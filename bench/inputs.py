"""Seeded inputs for the ``audit`` workload.

Everything here is a pure function of the workload seed: the audit chain,
the bit flips applied to copies of it, and the protocol request frames with
the response transcript they must produce. The transcript comes from an
independent model of the simulated connector that drives the environment
itself, so a replay is checked byte for byte against it.
"""

from __future__ import annotations

import json
import random
import struct

from pipeguard import evaluation, learning
from pipeguard.env import (
    MitigationAction,
    PipelineEnv,
    PipelineStage,
    SignalKind,
    stage_name,
)

# Training set-up shared by every workload; matches ``pipeguard train``.
DQN_EPISODES = 3000
LEARNING_RATE = 0.3


def dqn_config(seed: int, episodes: int = DQN_EPISODES) -> learning.TrainConfig:
    return learning.TrainConfig(algorithm="DQN", episodes=episodes,
                                learning_rate=LEARNING_RATE, seed=seed)


# -- ledger ------------------------------------------------------------------


def audit_chain(seed: int, episodes: int = 2000,
                train_episodes: int = DQN_EPISODES) -> evaluation.LedgerArtifacts:
    """The ledger a Proposed evaluation at ``seed`` writes: one block per
    episode plus genesis."""
    suite = evaluation.calibration_suite()
    policy = evaluation.train_mitigation_policy(suite, dqn_config(seed, train_episodes))
    _, _, artifacts = evaluation.run_experiment(
        evaluation.BaselineKind.PROPOSED, suite, seed, policy,
        evaluation.ExperimentOptions(episodes=episodes))
    return artifacts


def block_spans(data: bytes) -> list[tuple[int, int]]:
    """(start, end) byte offset of each length-prefixed block in a chain file."""
    spans, pos = [], 0
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        spans.append((pos, pos + 4 + length))
        pos += 4 + length
    return spans


# Where a tampered copy's bit flip lands within its block, and the reason
# verification must then report. Every field but the length prefix is raw
# hash or signature bytes, so the flip never stops the file from decoding.
TAMPER_FIELDS = (
    ("prev_hash", "hash_link"),
    ("merkle_root", "merkle_mismatch"),
    ("entry_digest", "merkle_mismatch"),
    ("signature", "signature"),
    ("length_prefix", "encoding"),
)


def _field_bytes(data: bytes, start: int, end: int, field: str) -> tuple[int, int]:
    """Byte range of ``field`` within the block record at data[start:end]."""
    header = start + 4                        # after the record's length prefix
    if field == "length_prefix":
        return start, header
    if field == "prev_hash":
        return header + 8, header + 40
    if field == "merkle_root":
        return header + 40, header + 72
    if field == "signature":                  # raw bytes of the last signature
        return end - 64, end
    pos = header + 72
    pos += 4 + struct.unpack(">I", data[pos:pos + 4])[0] + 8   # proposer, timestamp
    if struct.unpack(">I", data[pos:pos + 4])[0] == 0:
        raise ValueError("block has no entries")
    pos += 8                                  # entry count, first entry's length
    for _ in range(2):                        # agent id, role
        pos += 4 + struct.unpack(">I", data[pos:pos + 4])[0]
    return pos, pos + 32


def flip_plan(data: bytes, seed: int) -> list[tuple[int, int, str]]:
    """(block index, bit offset, expected reason) for each tampered copy.

    Copy ``j`` flips one bit of field ``TAMPER_FIELDS[j]`` in a block drawn
    from a narrow window around the middle of the ``j``-th of equal slices of
    the chain, so the work a verifier does before it stops is about the same
    from seed to seed.
    """
    spans = block_spans(data)
    rng = random.Random(f"audit-flips|{seed}")
    copies = len(TAMPER_FIELDS)
    jitter = len(spans) // 200
    plan = []
    for j, (field, reason) in enumerate(TAMPER_FIELDS):
        middle = (2 * j + 1) * len(spans) // (2 * copies)
        block = max(1, middle + rng.randint(-jitter, jitter))   # genesis has no entries
        first, last = _field_bytes(data, *spans[block], field)
        plan.append((block, rng.randrange(first * 8, last * 8), reason))
    return plan


def flipped(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


# -- protocol ----------------------------------------------------------------

_FETCH_LOGS, _FETCH_ARTIFACT = "fetch_logs", "fetch_artifact"
_TRIGGER, _MITIGATE = "trigger_action", "issue_mitigation"
_UNKNOWN_RUN, _ILLEGAL, _NO_METHOD = -32001, -32002, -32601
_STAGES = tuple(stage_name(s) for s in PipelineStage)
# Valid requests use the four methods in equal shares, as the golden frames
# of tests/test_protocol.py do (one of each), and any mitigation action.
_METHODS = (_FETCH_LOGS, _FETCH_ARTIFACT, _TRIGGER, _MITIGATE)
_MITIGATIONS = tuple(MitigationAction)


def _frame(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False).encode() + b"\n"


class _Error(Exception):
    def __init__(self, code: int, message: str):
        self.code, self.message = code, message


class _ConnectorModel:
    """What the simulated connector must answer, computed from the
    environment's own transitions."""

    def __init__(self, env: PipelineEnv, states: dict):
        self.env = env
        self.states = states

    def answer(self, method: str, params: dict) -> dict:
        run_id = params.get("run_id")
        if method not in (_FETCH_LOGS, _FETCH_ARTIFACT, _TRIGGER, _MITIGATE):
            raise _Error(_NO_METHOD, f"method not found: {method}")
        if run_id not in self.states:
            raise _Error(_UNKNOWN_RUN, f"unknown run: {run_id}")
        state = self.states[run_id]
        if method == _FETCH_LOGS:
            stage = params.get("stage")
            if stage is not None and stage not in _STAGES:
                raise _Error(_ILLEGAL, f"unknown stage: {stage}")
            return {"run_id": run_id, "logs": [
                {"stage": stage_name(s.stage), "content": s.content}
                for s in state.signals
                if s.kind is SignalKind.PIPELINE_LOG
                and (stage is None or stage_name(s.stage) == stage)]}
        if method == _FETCH_ARTIFACT:
            return {"run_id": run_id, "artifact": {
                "name": params.get("name", "build-artifact"),
                "stage": stage_name(state.stage),
                "digest": f"sha256:{state.run_id[4:]}"}}
        if method == _TRIGGER:
            verb = params.get("action")
            if verb == "pause":
                if state.done or state.paused:
                    raise _Error(_ILLEGAL, "run cannot be paused")
                state = self.env.pause(state)
            elif verb == "resume":
                if not state.paused:
                    raise _Error(_ILLEGAL, "run is not paused")
                state = self.env.resume(state)
            elif verb == "rerun":
                if not state.done:
                    raise _Error(_ILLEGAL, "run is still in progress")
                state = self.env.reset(
                    list(state.active_attacks + state.pending_attacks), state.rng_seed)
            else:
                raise _Error(_ILLEGAL, f"unknown pipeline verb: {verb}")
            self.states[run_id] = state
            return {"run_id": run_id, "stage": stage_name(state.stage),
                    "paused": state.paused, "build_delay": state.build_delay}
        name = params.get("mitigation", "")
        if name not in MitigationAction.__members__:
            raise _Error(_ILLEGAL, f"unknown mitigation: {params.get('mitigation')}")
        if state.done:
            raise _Error(_ILLEGAL, "run already finished")
        transition = self.env.step(state, MitigationAction[name])
        self.states[run_id] = transition.next_state
        outcome = transition.outcome
        return {"run_id": run_id, "attack_mitigated": outcome.attack_mitigated,
                "false_positive": outcome.false_positive,
                "developer_accepted": outcome.developer_accepted,
                "build_delay": outcome.build_delay, "done": transition.done}


def _valid_request(rng: random.Random, run_id: str, state) -> tuple[str, dict]:
    run = {"run_id": run_id}
    method = rng.choice(_METHODS)
    if method == _FETCH_LOGS:
        if rng.random() < 0.5:
            run["stage"] = rng.choice(_STAGES)
        return method, run
    if method == _FETCH_ARTIFACT:
        if rng.random() < 0.5:
            run["name"] = f"artifact-{rng.randrange(100)}.tar"
        return method, run
    # A write the run's state forbids would fail: a finished run is rerun
    # and a paused one resumed instead.
    if state.done:
        return _TRIGGER, {**run, "action": "rerun"}
    if state.paused:
        return _TRIGGER, {**run, "action": "resume"}
    if method == _TRIGGER:
        return _TRIGGER, {**run, "action": "pause"}
    return _MITIGATE, {**run, "mitigation": rng.choice(_MITIGATIONS).name}


def _failing_request(rng: random.Random, run_id: str, state) -> tuple[str, dict]:
    """One of the connector's six domain errors, in equal shares."""
    run = {"run_id": run_id}
    kind = rng.randrange(6)
    if kind == 0:
        return _FETCH_LOGS, {"run_id": f"run-{rng.getrandbits(64):016x}"}
    if kind == 1:
        return rng.choice(("fetch_secrets", "deploy", "rollback")), run
    if kind == 2:
        return _MITIGATE, {**run, "mitigation": "SHUTDOWN_CLUSTER"}
    if kind == 3:
        return _FETCH_LOGS, {**run, "stage": "PostDeploy"}
    if kind == 4:
        return _TRIGGER, {**run, "action": "restart"}
    # A verb the run's current state forbids.
    if state.done:
        return _MITIGATE, {**run, "mitigation": "BLOCK_BUILD"}
    return _TRIGGER, {**run, "action": "resume" if not state.paused else "pause"}


# The request mix is a synthetic choice: nothing in pipeguard records real
# connector traffic. The frames address REPLAY_RUNS live runs, benign in the
# share an evaluation uses (ExperimentOptions.benign_fraction); a quarter of
# the requests must get a domain error.
REPLAY_RUNS = 8
ERROR_SHARE = 0.25


def replay_script(seed: int, frames: int = 1600):
    """Request frames for ``protocol.replay`` and the responses they must get.

    Returns ``(initial_states, requests, responses)``. Register each initial
    state with a fresh ``SimulatedConnector`` before every replay.
    """
    rng = random.Random(f"audit-frames|{seed}")
    suite = evaluation.calibration_suite()
    env = PipelineEnv()
    initial = []
    benign = round(REPLAY_RUNS * evaluation.ExperimentOptions().benign_fraction)
    for r in range(REPLAY_RUNS):
        scenarios = [] if r < benign else [suite[rng.randrange(len(suite))]]
        initial.append(env.reset(scenarios, rng.getrandbits(63)))
    model = _ConnectorModel(env, {s.run_id: s for s in initial})
    requests, responses = [], []
    for frame_id in range(1, frames + 1):
        # Runs stay registered under their first id; a rerun may change the
        # id the state itself carries.
        run_id = rng.choice(initial).run_id
        fail = rng.random() < ERROR_SHARE
        method, params = (_failing_request if fail else _valid_request)(
            rng, run_id, model.states[run_id])
        requests.append(_frame({"version": "1.0", "id": frame_id, "kind": "request",
                                "method": method, "params": params}))
        response = {"version": "1.0", "id": frame_id, "kind": "response"}
        try:
            response["result"] = model.answer(method, params)
        except _Error as exc:
            response["error"] = {"code": exc.code, "message": exc.message}
        if fail != ("error" in response):
            raise AssertionError(f"frame {frame_id}: generator model disagrees with itself")
        responses.append(_frame(response))
    return initial, requests, responses


def replay_mix(requests: list[bytes], responses: list[bytes]) -> dict[str, str]:
    """What one replay of the script does: the share of each request method
    (``trigger_action`` by verb) and of error responses, and the environment
    steps and resets the requests cause."""
    counts = {"env_steps": 0, "env_resets": 0, "error_responses": 0}
    shares = {}
    for raw_request, raw_response in zip(requests, responses):
        request, response = json.loads(raw_request), json.loads(raw_response)
        method = request["method"]
        if method == _TRIGGER:
            method = f"{method}.{request['params'].get('action')}"
        shares[method] = shares.get(method, 0) + 1
        if "error" in response:
            counts["error_responses"] += 1
        elif method == _MITIGATE:
            counts["env_steps"] += 1
        elif method == f"{_TRIGGER}.rerun":
            counts["env_resets"] += 1
    shares["error_responses"] = counts.pop("error_responses")
    mix = {f"replay_share.{k}": f"{v / len(requests):.3f}" for k, v in sorted(shares.items())}
    mix.update({f"replay_{k}": str(v) for k, v in counts.items()})
    return mix
