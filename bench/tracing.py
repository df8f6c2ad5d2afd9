"""Span tracing around pipeguard's layer boundaries, installed from outside.

The tracer replaces public functions and methods with thin wrappers that
record one span per call: name, start, end and the enclosing span. It patches
every module that holds its own reference to a function (``dispatch`` lives
in ``pipeguard.agents`` and, imported by name, in ``pipeguard.evaluation``),
so calls are seen wherever they come from. Spans stay in flat in-memory
arrays until the run ends; ``reduce`` turns them into per-layer call counts,
self time and latency percentiles.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict

import numpy as np

# Span name -> places that hold the callable: (module, attribute) for
# functions, (module, class, attribute) for methods.
SPANS = {
    "env.reset": [("pipeguard.env", "PipelineEnv", "reset")],
    "env.step": [("pipeguard.env", "PipelineEnv", "step")],
    "env.observe": [("pipeguard.env", "observe"), ("pipeguard.agents", "observe"),
                    ("pipeguard.evaluation", "observe")],
    "agents.dispatch": [("pipeguard.agents", "dispatch"),
                        ("pipeguard.evaluation", "dispatch")],
    "agents.analyze": [("pipeguard.agents", "analyze"),
                       ("pipeguard.evaluation", "analyze")],
    "agents.reason": [("pipeguard.agents", "RuleBasedReasoner", "reason")],
    "learning.train": [("pipeguard.learning", "train")],
    "learning.train_dqn": [("pipeguard.learning", "train_dqn")],
    "learning.train_ppo": [("pipeguard.learning", "train_ppo")],
    "learning.ppo_objective": [("pipeguard.learning", "ppo_objective_and_grad")],
    "learning.encode_state": [("pipeguard.learning", "encode_state")],
    "learning.greedy": [("pipeguard.learning", "Policy", "greedy")],
    "ledger.make_genesis": [("pipeguard.ledger", "make_genesis")],
    "ledger.append_block": [("pipeguard.ledger", "append_block")],
    "ledger.bft_commit": [("pipeguard.ledger", "bft_commit")],
    "ledger.entries_root": [("pipeguard.ledger", "entries_root")],
    "ledger.merkle_root": [("pipeguard.ledger", "merkle_root")],
    "ledger.entry_serialize": [("pipeguard.ledger", "LedgerEntry", "serialize")],
    "ledger.block_serialize": [("pipeguard.ledger", "Block", "serialize")],
    "ledger.block_deserialize": [("pipeguard.ledger", "Block", "deserialize")],
    "ledger.write_chain": [("pipeguard.ledger", "write_chain")],
    "ledger.read_chain": [("pipeguard.ledger", "read_chain")],
    "ledger.verify_chain": [("pipeguard.ledger", "verify_chain")],
    "ledger.verify_chain_file": [("pipeguard.ledger", "verify_chain_file")],
    "protocol.replay": [("pipeguard.protocol", "replay")],
    "protocol.decode": [("pipeguard.protocol", "decode_message")],
    "protocol.route": [("pipeguard.protocol", "route_request")],
    "protocol.encode": [("pipeguard.protocol", "encode_message")],
    "evaluation.train_mitigation_policy": [
        ("pipeguard.evaluation", "train_mitigation_policy")],
    "evaluation.run_experiment": [("pipeguard.evaluation", "run_experiment")],
    "evaluation.compute_metrics": [("pipeguard.evaluation", "compute_metrics")],
    "evaluation.decide": [("pipeguard.evaluation", cls, "decide") for cls in (
        "RuleBasedStack", "ProvenanceStack", "PolicyStack", "PlaybookStack")],
}

# The ledger write path, traced on its own during set-up so that the file
# write shows as a row of its own.
WRITE_PATH = ("ledger.write_chain", "ledger.block_serialize", "ledger.entry_serialize")

# Spans whose latency percentiles are reported, each set traced on its own
# passes: a span's duration then holds no wrapper of a nested span. The arm
# of a decide span comes from its enclosing run_experiment.
LATENCY_SPANS = (("evaluation.run_experiment", "evaluation.decide"),
                 ("agents.dispatch", "ledger.append_block"))


def _blocks_checked(args, result) -> tuple[int, int]:
    """Blocks, and their entries, whose Merkle root verify_chain recomputed."""
    chain = args[0]
    n = len(chain)
    if hasattr(result, "first_bad_index"):
        n = result.first_bad_index + (result.reason != "hash_link")
    return n, sum(len(b.entries) for b in chain[:n])


# Spans whose calls also count work: blocks and entries the ledger committed
# or checked, and protocol responses that carry an error.
_COUNTED = frozenset({"ledger.append_block", "ledger.make_genesis",
                      "ledger.verify_chain", "protocol.route"})


def _count(name, args, result) -> dict[str, int]:
    """Work counted at a boundary, beyond the call itself."""
    if name in ("ledger.append_block", "ledger.make_genesis"):
        return {"ledger.blocks": 1,
                "ledger.entries": len(args[1]) if name == "ledger.append_block" else 0}
    if name == "ledger.verify_chain":
        blocks, entries = _blocks_checked(args, result)
        return {"ledger.blocks": blocks, "ledger.entries": entries}
    if name == "protocol.route":
        return {"protocol.errors": int(result.error is not None)}
    return {}


def resolve(target: tuple[str, ...]) -> tuple[object, str]:
    """(module or class, attribute name) of one ``SPANS`` target."""
    module = importlib.import_module(target[0])
    owner = module if len(target) == 2 else getattr(module, target[1])
    return owner, target[-1]


class Tracer:
    """Records spans in flat arrays; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._tag: str | None = None   # arm of the enclosing run_experiment
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        counts = name in _COUNTED
        is_experiment = name == "evaluation.run_experiment"
        is_decide = name == "evaluation.decide"
        fixed_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = (self._id(f"{name}.{self._tag}") if is_decide else fixed_id)
            idx = len(self.start)
            self.name.append(span_name)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(idx)
            saved_tag = self._tag
            if is_experiment:
                self._tag = args[0].value
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()
                self._tag = saved_tag
            if counts:
                for key, value in _count(name, args, result).items():
                    self.counters[key] += value
            return result
        return traced

    def install(self, names=None) -> None:
        """Patch every target of the named spans (all spans by default)."""
        for name in names or SPANS:
            for target in SPANS[name]:
                owner, attr = resolve(target)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def mark(self) -> tuple[int, dict[str, int]]:
        """A window bound for ``reduce``: span index and counter values."""
        return len(self.start), dict(self.counters)

    def reduce(self, first, last) -> tuple[dict, dict[str, int]]:
        """Reduce the spans between two marks.

        Returns, per span name, the call count, total self seconds and
        inclusive durations, plus ``top_level_s``: the summed duration of
        spans with no traced parent. Self time is a span's duration minus
        that of its direct children. Also returns the counters' increase.
        """
        (lo, counted), (hi, counted_after) = first, last
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        start = np.frombuffer(self.start)[lo:hi]
        dur = np.frombuffer(self.end)[lo:hi] - start
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        children = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        self_s = dur - children
        out = {}
        for i, label in enumerate(self.names):
            mask = name == i
            if mask.any():
                out[label] = {"calls": int(mask.sum()),
                              "self_s": float(self_s[mask].sum()),
                              "durations": dur[mask]}
        out["top_level_s"] = float(dur[~nested].sum())
        return out, {k: v - counted.get(k, 0) for k, v in counted_after.items()}

    def write(self, path: str) -> None:
        """Save every span as parallel arrays in a compressed ``.npz``:
        ``name`` indexes ``names``; ``parent`` is a span index or -1."""
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent),
                            counters=np.array(json.dumps(dict(self.counters))))
