"""Tests of the benchmark itself: transparent tracing, pure input generators
and a BENCHMARK.json that matches the code."""

import json
import os

import pytest

import inputs
import metrics
import tracing
import workloads
from pipeguard import evaluation, learning, ledger, protocol
from pipeguard.env import PipelineEnv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def small_chain():
    """A short audit chain and its file bytes."""
    artifacts = inputs.audit_chain(seed=4, episodes=12, train_episodes=100)
    return artifacts, b"".join(
        len(raw).to_bytes(4, "big") + raw for raw in (b.serialize() for b in artifacts.chain))


def _outputs(tmp_path):
    """Digests of one small call into every traced layer."""
    suite = evaluation.calibration_suite()
    out = []
    for algo in ("DQN", "PPO"):
        config = learning.TrainConfig(algorithm=algo, episodes=40, learning_rate=0.3, seed=5)
        out.append(workloads.policy_digest(evaluation.train_mitigation_policy(suite, config)))
    policy = evaluation.train_mitigation_policy(suite, inputs.dqn_config(5, episodes=40))
    options = evaluation.ExperimentOptions(episodes=6)
    for arm in evaluation.ARM_ORDER:
        outcome = evaluation.run_experiment(arm, suite, 5, policy, options)
        out.append(workloads.experiment_digest(outcome))
        if outcome[2] is not None:
            artifacts = outcome[2]
    path = str(tmp_path / "chain.bin")
    ledger.write_chain(artifacts.chain, path)
    with open(path, "rb") as fh:
        out.append(fh.read())
    out.append(repr(ledger.verify_chain_file(path, artifacts.validators, artifacts.acl)))
    initial, requests, _ = inputs.replay_script(5, frames=60)
    connector = protocol.SimulatedConnector()
    for state in initial:
        connector.register(state.run_id, PipelineEnv(), state)
    out.append(b"".join(protocol.replay(requests, connector.registry())))
    return out


def test_traced_outputs_are_byte_identical(tmp_path):
    targets = [tracing.resolve(t) for targets in tracing.SPANS.values() for t in targets]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    plain = _outputs(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        first = tracer.mark()
        traced = _outputs(tmp_path)
        stats, counters = tracer.reduce(first, tracer.mark())
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [owner.__dict__[attr] for owner, attr in targets] == originals
    for span in tracing.SPANS:   # decide spans are named per arm
        assert any(k == span or k.startswith(span + ".") for k in stats), span
    # Self times partition the time covered by top-level spans.
    total_self = sum(v["self_s"] for k, v in stats.items() if k != "top_level_s")
    assert total_self == pytest.approx(stats["top_level_s"], rel=1e-9)
    assert counters["protocol.errors"] > 0


def test_replay_script_is_a_pure_function_of_the_seed():
    first = inputs.replay_script(8, frames=300)
    again = inputs.replay_script(8, frames=300)
    other = inputs.replay_script(9, frames=300)
    assert first[1:] == again[1:]
    assert first[1] != other[1] and first[2] != other[2]
    assert first[0] == again[0]


def test_replay_matches_its_transcript():
    initial, requests, responses = inputs.replay_script(3, frames=400)
    connector = protocol.SimulatedConnector()
    for state in initial:
        connector.register(state.run_id, PipelineEnv(), state)
    assert protocol.replay(requests, connector.registry()) == responses
    errors = sum(b'"error":' in r for r in responses)
    assert 0.15 < errors / len(responses) < 0.35


def test_valid_requests_read_in_the_golden_frames_shares():
    _, requests, responses = inputs.replay_script(3, frames=2000)
    methods = [json.loads(q)["method"] for q, r in zip(requests, responses)
               if b'"error":' not in r]
    for read in ("fetch_logs", "fetch_artifact"):   # one golden frame in four each
        assert 0.2 < methods.count(read) / len(methods) < 0.3


def test_chain_and_flips_are_pure_functions_of_the_seed(small_chain):
    _, data = small_chain
    again = inputs.audit_chain(seed=4, episodes=12, train_episodes=100)
    other = inputs.audit_chain(seed=6, episodes=12, train_episodes=100)
    assert b"".join(b.serialize() for b in again.chain) == \
        b"".join(b.serialize() for b in small_chain[0].chain)
    assert b"".join(b.serialize() for b in other.chain) != \
        b"".join(b.serialize() for b in again.chain)
    assert inputs.flip_plan(data, 4) == inputs.flip_plan(data, 4)
    assert inputs.flip_plan(data, 4) != inputs.flip_plan(data, 5)


@pytest.mark.parametrize("seed", range(6))
def test_each_flip_is_caught_at_its_block_for_its_reason(small_chain, tmp_path, seed):
    artifacts, data = small_chain
    for block, bit, reason in inputs.flip_plan(data, seed):
        path = tmp_path / "tampered.bin"
        path.write_bytes(inputs.flipped(data, bit))
        verdict = ledger.verify_chain_file(str(path), artifacts.validators, artifacts.acl)
        assert verdict == ledger.ChainInvalid(block, reason)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metrics.PER_LAYER
    assert doc["paths"] == ["bench"]
