"""Metric names and units, and how a run's timings reduce to them.

End-to-end metrics are reported by every workload from untraced passes;
per-layer metrics come from the traced half of a ``--trace 1`` run and are
normalised to one pass of the workload. BENCHMARK.json lists the same names.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

END_TO_END = {"setup_s": "s", "pass_s": "s", "phase_geomean_ms": "ms"}

ARMS = ("RuleBased", "ProvenanceOnly", "RLOnly", "Proposed")

_FIELD_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}
_SPAN_FIELDS = [
    ("ledger.append_block", "calls", "self_s", "p50_us", "p99_us"),
    ("ledger.bft_commit", "self_s"),
    ("ledger.merkle_root", "self_s"),
    ("ledger.write_chain", "self_s"),
    ("ledger.write_chain_existing", "self_s"),
    ("ledger.read_chain", "self_s"),
    ("ledger.block_deserialize", "self_s"),
    ("ledger.verify_chain", "self_s"),
    ("learning.ppo_objective", "calls", "self_s"),
    ("learning.train_ppo", "self_s"),
    ("learning.train_dqn", "self_s"),
    ("learning.encode_state", "self_s"),
    ("learning.greedy", "self_s"),
    ("agents.dispatch", "calls", "self_s", "p50_us", "p99_us"),
    ("agents.analyze", "calls", "self_s"),
    ("agents.reason", "self_s"),
    ("env.step", "calls", "self_s"),
    ("env.reset", "self_s"),
    ("env.observe", "self_s"),
    ("protocol.decode", "calls", "self_s"),
    ("protocol.route", "self_s"),
    ("protocol.encode", "self_s"),
    ("evaluation.compute_metrics", "self_s"),
    ("evaluation.run_experiment", "self_s"),
]

PER_LAYER = {f"{span}.{f}": _FIELD_UNITS[f] for span, *fs in _SPAN_FIELDS for f in fs}
PER_LAYER.update({
    "ledger.entries_root.per_block": "ratio",
    "ledger.entry_serialize.per_entry": "ratio",
    "protocol.error_response_ratio": "ratio",
})
for _arm in ARMS:
    PER_LAYER[f"evaluation.decide.{_arm}.p50_us"] = "us"
    PER_LAYER[f"evaluation.analysis_cost.{_arm}.sim_min"] = "sim_min/step"
PER_LAYER.update({"trace.overhead_ratio": "ratio", "trace.uncovered_s": "s"})


def phase_medians(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def end_to_end(passes, setup_times) -> dict[str, float]:
    """``pass_s`` sums the per-phase medians; ``phase_geomean_ms`` weighs
    every phase equally, so a short phase (protocol replay) still shows."""
    medians = phase_medians(passes).values()
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": sum(medians),
        "phase_geomean_ms": 1000.0 * math.exp(statistics.fmean(math.log(m) for m in medians)),
    }


def per_layer(stats, counters, latency, write_stats, rewrite_stats, untraced, traced,
              analysis_cost: dict[str, float]) -> dict[str, float]:
    """Per-pass layer metrics from reduced spans (see ``Tracer.reduce``).

    ``stats`` and ``counters`` cover the fully traced passes, ``latency`` the
    passes with only ``tracing.LATENCY_SPANS`` installed; the percentiles come
    from the latter. ``write_stats`` covers one set-up, which is where the
    chain file is written, and ``rewrite_stats`` the writes of that chain
    over its existing file (per call).
    """
    n = len(traced)

    def calls(span):
        return stats[span]["calls"] if span in stats else 0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls(span) / n
        elif field == "self_s" and span == "ledger.write_chain":
            out[name] = write_stats[span]["self_s"] if span in write_stats else 0.0
        elif field == "self_s" and span == "ledger.write_chain_existing":
            rewrites = rewrite_stats.get("ledger.write_chain")
            out[name] = rewrites["self_s"] / rewrites["calls"] if rewrites else 0.0
        elif field == "self_s":
            out[name] = stats[span]["self_s"] / n if span in stats else 0.0
        elif field in ("p50_us", "p99_us"):
            q = 50 if field == "p50_us" else 99
            out[name] = (float(np.percentile(latency[span]["durations"], q)) * 1e6
                         if span in latency else 0.0)
    for arm in ARMS:
        out[f"evaluation.analysis_cost.{arm}.sim_min"] = analysis_cost[arm]
    out["ledger.entries_root.per_block"] = ratio(calls("ledger.entries_root"),
                                                 counters.get("ledger.blocks", 0))
    out["ledger.entry_serialize.per_entry"] = ratio(calls("ledger.entry_serialize"),
                                                    counters.get("ledger.entries", 0))
    out["protocol.error_response_ratio"] = ratio(counters.get("protocol.errors", 0),
                                                 calls("protocol.route"))
    traced_s = [sum(p.values()) for p in traced]
    untraced_s = [sum(p.values()) for p in untraced]
    out["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    out["trace.uncovered_s"] = (sum(traced_s) - stats["top_level_s"]) / n
    return out
