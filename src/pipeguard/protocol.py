"""Standardized message layer between agents and pipeline endpoints.

Framing is newline-delimited UTF-8 JSON with a fixed key order, so identical
envelopes always encode to identical bytes. A simulated pipeline connector
implements the four methods (fetch_logs, fetch_artifact, trigger_action,
issue_mitigation) against the in-process environment; real vendor connectors
would be additional handler registries behind the same interface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

from .env import (
    EnvState,
    MitigationAction,
    PipelineEnv,
    STAGE_NAMES,
    SignalKind,
    stage_name,
)

PROTOCOL_VERSION = "1.0"

METHOD_NOT_FOUND = -32601
INVALID_REQUEST = -32600
UNKNOWN_RUN = -32001
ILLEGAL_ACTION = -32002

_KEY_ORDER = ("version", "id", "kind", "method", "params", "result", "error")
_OBJECT_OR_NULL = (dict, type(None))


class ProtocolError(Exception):
    """Raised by handlers to signal a domain error with a protocol code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class FrameError(Exception):
    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Envelope:
    version: str = PROTOCOL_VERSION
    id: Optional[int] = None
    kind: str = "request"            # request | response | event
    method: Optional[str] = None
    params: Optional[dict] = None
    result: Optional[dict] = None
    error: Optional[dict] = None

    def __post_init__(self):
        if self.version != PROTOCOL_VERSION:
            raise FrameError(f"unsupported version {self.version!r}")
        if self.kind not in ("request", "response", "event"):
            raise FrameError(f"unknown kind {self.kind!r}")
        if self.kind in ("request", "event") and not self.method:
            raise FrameError(f"{self.kind} requires a method")
        if self.method is not None and not isinstance(self.method, str):
            raise FrameError("method must be a string")
        if not (isinstance(self.params, _OBJECT_OR_NULL)
                and isinstance(self.result, _OBJECT_OR_NULL)
                and isinstance(self.error, _OBJECT_OR_NULL)):
            raise FrameError("params, result and error must be objects")
        if self.kind == "response":
            if (self.result is None) == (self.error is None):
                raise FrameError("response carries exactly one of result/error")
        # type() rather than isinstance(): JSON true would pass as the int 1.
        if self.kind in ("request", "response") or self.id is not None:
            if type(self.id) is not int or self.id <= 0:
                raise FrameError("id must be a positive integer")


def encode_message(envelope: Envelope) -> bytes:
    """One envelope per line; keys in fixed order, no extra whitespace."""
    doc = {}
    for key in _KEY_ORDER:
        value = getattr(envelope, key)
        if value is not None:
            doc[key] = value
    # A lone surrogate (JSON "\ud800", which json.loads accepts) cannot be
    # UTF-8 encoded; write it back as that JSON escape.
    text = json.dumps(doc, separators=(",", ":"), ensure_ascii=False)
    return text.encode("utf-8", "backslashreplace") + b"\n"


def decode_message(frame: bytes) -> Envelope:
    text = frame.rstrip(b"\n")
    if b"\n" in text:
        raise FrameError("frame contains an embedded newline", text.index(b"\n"))
    try:
        doc = json.loads(text.decode("utf-8"))
    # ValueError covers bad UTF-8, bad JSON and integers too long to convert.
    except (ValueError, RecursionError) as exc:
        offset = getattr(exc, "pos", getattr(exc, "start", 0))
        raise FrameError(f"malformed frame: {exc}", offset) from exc
    if not isinstance(doc, dict):
        raise FrameError("frame must be a JSON object")
    unknown = set(doc) - set(_KEY_ORDER)
    if unknown:
        raise FrameError(f"unknown fields: {sorted(unknown)}")
    if "version" not in doc:
        raise FrameError("missing field: version")
    if "kind" not in doc:
        raise FrameError("missing field: kind")
    return Envelope(**doc)


Handler = Callable[[dict], dict]


def route_request(registry: dict[str, Handler], envelope: Envelope) -> Envelope:
    """Dispatch a request envelope to its handler, preserving the id."""
    if envelope.kind != "request":
        raise FrameError(f"cannot route a {envelope.kind} envelope")
    handler = registry.get(envelope.method)
    if handler is None:
        return Envelope(
            id=envelope.id, kind="response",
            error={"code": METHOD_NOT_FOUND,
                   "message": f"method not found: {envelope.method}"},
        )
    try:
        result = handler(envelope.params or {})
    except ProtocolError as exc:
        return Envelope(id=envelope.id, kind="response",
                        error={"code": exc.code, "message": exc.message})
    return Envelope(id=envelope.id, kind="response", result=result)


# -- simulated pipeline connector ------------------------------------------------


def _str_param(params: dict, key: str, default: Optional[str] = None) -> Optional[str]:
    """A request parameter that must be a string or null when present."""
    value = params.get(key, default)
    if value is not None and not isinstance(value, str):
        raise ProtocolError(INVALID_REQUEST, f"{key} must be a string")
    return value


@dataclass
class RunHandle:
    env: PipelineEnv
    state: EnvState


class SimulatedConnector:
    """In-process stand-in for vendor CI connectors.

    Holds live runs by id; every mutation goes through the environment's own
    transitions, never by editing state directly.
    """

    def __init__(self):
        self.runs: dict[str, RunHandle] = {}

    def register(self, run_id: str, env: PipelineEnv, state: EnvState) -> None:
        self.runs[run_id] = RunHandle(env=env, state=state)

    def registry(self) -> dict[str, Handler]:
        return {
            "fetch_logs": self.fetch_logs,
            "fetch_artifact": self.fetch_artifact,
            "trigger_action": self.trigger_action,
            "issue_mitigation": self.issue_mitigation,
        }

    def _run(self, params: dict) -> RunHandle:
        run_id = _str_param(params, "run_id")
        handle = self.runs.get(run_id)
        if handle is None:
            raise ProtocolError(UNKNOWN_RUN, f"unknown run: {run_id}")
        return handle

    def fetch_logs(self, params: dict) -> dict:
        handle = self._run(params)
        stage = _str_param(params, "stage")
        if stage is not None and stage not in STAGE_NAMES:
            raise ProtocolError(ILLEGAL_ACTION, f"unknown stage: {stage}")
        logs = [
            {"stage": stage_name(s.stage), "content": s.content}
            for s in handle.state.signals
            if s.kind is SignalKind.PIPELINE_LOG
            and (stage is None or stage_name(s.stage) == stage)
        ]
        return {"run_id": params["run_id"], "logs": logs}

    def fetch_artifact(self, params: dict) -> dict:
        handle = self._run(params)
        name = _str_param(params, "name", "build-artifact")
        return {
            "run_id": params["run_id"],
            "artifact": {
                "name": name,
                "stage": stage_name(handle.state.stage),
                "digest": f"sha256:{handle.state.run_id[4:]}",
            },
        }

    def trigger_action(self, params: dict) -> dict:
        handle = self._run(params)
        verb = _str_param(params, "action")
        state = handle.state
        if verb == "pause":
            if state.done or state.paused:
                raise ProtocolError(ILLEGAL_ACTION, "run cannot be paused")
            handle.state = handle.env.pause(state)
        elif verb == "resume":
            if not state.paused:
                raise ProtocolError(ILLEGAL_ACTION, "run is not paused")
            handle.state = handle.env.resume(state)
        elif verb == "rerun":
            if not state.done:
                raise ProtocolError(ILLEGAL_ACTION, "run is still in progress")
            # A rerun is a fresh run of the same schedule under the same seed.
            handle.state = handle.env.reset(
                list(state.active_attacks + state.pending_attacks), state.rng_seed
            )
        else:
            raise ProtocolError(ILLEGAL_ACTION, f"unknown pipeline verb: {verb}")
        return {
            "run_id": params["run_id"],
            "stage": stage_name(handle.state.stage),
            "paused": handle.state.paused,
            "build_delay": handle.state.build_delay,
        }

    def issue_mitigation(self, params: dict) -> dict:
        handle = self._run(params)
        name = _str_param(params, "mitigation", "")
        try:
            action = MitigationAction[name]
        except KeyError:
            raise ProtocolError(
                ILLEGAL_ACTION, f"unknown mitigation: {params.get('mitigation')}"
            ) from None
        if handle.state.done:
            raise ProtocolError(ILLEGAL_ACTION, "run already finished")
        transition = handle.env.step(handle.state, action)
        handle.state = transition.next_state
        outcome = transition.outcome
        return {
            "run_id": params["run_id"],
            "attack_mitigated": outcome.attack_mitigated,
            "false_positive": outcome.false_positive,
            "developer_accepted": outcome.developer_accepted,
            "build_delay": outcome.build_delay,
            "done": transition.done,
        }


def replay(frames: list[bytes], registry: dict[str, Handler]) -> list[bytes]:
    """Feed request frames through the router, producing response frames."""
    out = []
    for frame in frames:
        if not frame.strip():
            continue
        envelope = decode_message(frame)
        if envelope.kind != "request":
            continue
        out.append(encode_message(route_request(registry, envelope)))
    return out
