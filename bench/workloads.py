"""The three benchmark workloads: ``train``, ``evaluate`` and ``audit``.

Each workload has a set-up, built from the workload seed alone, and a list of
phases. A phase is one or more calls into pipeguard's public entry points;
one pass runs every phase once, in order, each call after the previous one
returns. Every call comes with a check of its own output: either a verdict
(True/False) or a digest that must be the same on every call of that op.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

from pipeguard import evaluation, ledger, learning, protocol
from pipeguard.env import PipelineEnv

import inputs

EVAL_EPISODES = 2000
TRAIN_EPISODES = 3000
# One replay of the 1600-frame script takes ~20 ms; a pass replays it on
# several fresh connectors so that the phase time is not dominated by noise.
REPLAYS = 5


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # True/False, or bytes that must repeat on every call of this op.
    check: Callable[[object], bool | bytes]


@dataclass
class Phase:
    name: str
    metric: str        # throughput name this phase reports, e.g. train_dqn_eps_per_s
    unit: str          # what one call processes: eps, blocks, frames, copies
    size: int          # units processed by one pass of the phase
    ops: list[Op]


@dataclass
class Setup:
    phases: list[Phase]
    # Identifies the generated inputs. Called after the set-up clock stops,
    # so that hashing the inputs is not counted as set-up time.
    digest: Callable[[], bytes]
    info: Callable[[], dict] = dict
    # Writes a file the set-up wrote over again, once it is on disk; run
    # only by a traced run, outside every timed region.
    rewrite: Callable[[], None] | None = None


def policy_digest(policy: learning.Policy) -> bytes:
    h = hashlib.sha256(f"{policy.kind}|{policy.actions}|{policy.seed}".encode())
    h.update(policy.params.tobytes())
    return h.digest()


def experiment_digest(outcome) -> bytes:
    report, records, artifacts = outcome
    h = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
    h.update(json.dumps([r.to_dict() for r in records], sort_keys=True).encode())
    if artifacts is not None:
        # The last block hash commits to every earlier block and entry.
        h.update(len(artifacts.chain).to_bytes(8, "big") + artifacts.chain[-1].hash())
    return h.digest()


# -- train ---------------------------------------------------------------------


def setup_train(seed: int, tmpdir: str) -> Setup:
    suite = evaluation.calibration_suite()
    configs = {algo: learning.TrainConfig(algorithm=algo, episodes=TRAIN_EPISODES,
                                          learning_rate=inputs.LEARNING_RATE, seed=seed)
               for algo in ("DQN", "PPO")}
    phases = [
        Phase(algo.lower(), f"train_{algo.lower()}_eps_per_s", "eps", TRAIN_EPISODES,
              [Op(f"train.{algo}",
                  lambda c=config: evaluation.train_mitigation_policy(suite, c),
                  policy_digest)])
        for algo, config in configs.items()
    ]
    return Setup(phases, lambda: hashlib.sha256(
        (evaluation.suite_hash(suite) + repr(sorted(configs.items()))).encode()).digest())


# -- evaluate ------------------------------------------------------------------


def setup_evaluate(seed: int, tmpdir: str) -> Setup:
    suite = evaluation.calibration_suite()
    fused = evaluation.train_mitigation_policy(suite, inputs.dqn_config(seed))
    detector_only = evaluation.train_mitigation_policy(
        suite, inputs.dqn_config(seed), correlation=False)
    arms = [
        (evaluation.BaselineKind.RULE_BASED, "rulebased", None),
        (evaluation.BaselineKind.PROVENANCE_ONLY, "provenance", None),
        (evaluation.BaselineKind.RL_ONLY, "rlonly", detector_only),
        (evaluation.BaselineKind.PROPOSED, "proposed", fused),
    ]
    options = evaluation.ExperimentOptions(episodes=EVAL_EPISODES)
    phases = [
        Phase(short, f"eval_{short}_eps_per_s", "eps", EVAL_EPISODES,
              [Op(f"evaluate.{arm.value}",
                  lambda a=arm, p=policy: evaluation.run_experiment(a, suite, seed, p, options),
                  experiment_digest)])
        for arm, short, policy in arms
    ]
    return Setup(phases, lambda: policy_digest(fused) + policy_digest(detector_only))


# -- audit ---------------------------------------------------------------------


def setup_audit(seed: int, tmpdir: str) -> Setup:
    artifacts = inputs.audit_chain(seed, EVAL_EPISODES)
    validators, acl = artifacts.validators, artifacts.acl
    # Fresh files for every set-up: on ext4 mounted with `discard`, opening
    # an existing file for writing truncates it and costs ~50 ms, against
    # ~6 us for a new file. A traced run times that case apart (`rewrite`).
    workdir = tempfile.mkdtemp(prefix="audit-", dir=tmpdir)
    chain_path = os.path.join(workdir, "chain.bin")
    ledger.write_chain(artifacts.chain, chain_path)
    with open(chain_path, "rb") as fh:
        data = fh.read()
    plan = inputs.flip_plan(data, seed)
    tampered = []
    for j, (block, bit, reason) in enumerate(plan):
        path = os.path.join(workdir, f"tampered-{j}.bin")
        with open(path, "wb") as fh:
            fh.write(inputs.flipped(data, bit))
        tampered.append((path, block, reason))
    initial, requests, responses = inputs.replay_script(seed)

    def verify(path):
        return lambda: ledger.verify_chain_file(path, validators, acl)

    def caught(block, reason):
        return lambda v: v == ledger.ChainInvalid(block, reason)

    def replay():
        connector = protocol.SimulatedConnector()
        env = PipelineEnv()
        for state in initial:
            connector.register(state.run_id, env, state)
        return protocol.replay(requests, connector.registry())

    phases = [
        Phase("verify", "ledger_verify_blocks_per_s", "blocks", len(artifacts.chain),
              [Op("audit.verify", verify(chain_path),
                  lambda v: isinstance(v, ledger.ChainValid))]),
        Phase("tamper", "ledger_tamper_copies_per_s", "copies", len(tampered),
              [Op(f"audit.tamper.{j}", verify(path), caught(block, reason))
               for j, (path, block, reason) in enumerate(tampered)]),
        Phase("replay", "protocol_replay_frames_per_s", "frames", REPLAYS * len(requests),
              [Op(f"audit.replay.{i}", replay, lambda out: out == responses)
               for i in range(REPLAYS)]),
    ]
    def digest():
        h = hashlib.sha256(data)
        h.update(repr(plan).encode())
        h.update(b"".join(requests) + b"".join(responses))
        return h.digest()

    def info():
        return {"chain_blocks": len(artifacts.chain),
                "chain_entries": sum(len(b.entries) for b in artifacts.chain),
                "chain_bytes": len(data),
                **inputs.replay_mix(requests, responses)}

    def rewrite():
        # Truncating a file whose blocks are on disk is the costly open;
        # a file still in the page cache truncates cheaply.
        with open(chain_path, "rb") as fh:
            os.fsync(fh.fileno())
        ledger.write_chain(artifacts.chain, chain_path)

    return Setup(phases, digest, info, rewrite)


WORKLOADS = {"train": setup_train, "evaluate": setup_evaluate, "audit": setup_audit}
