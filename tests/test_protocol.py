import json

import pytest
from hypothesis import given, settings, strategies as st

from pipeguard import evaluation
from pipeguard.env import MitigationAction, PipelineEnv
from pipeguard.protocol import (
    Envelope,
    FrameError,
    ILLEGAL_ACTION,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    ProtocolError,
    SimulatedConnector,
    UNKNOWN_RUN,
    decode_message,
    encode_message,
    replay,
    route_request,
)

RUN_ID = "run-957392054a846243"

# Golden byte fixtures: one request/response pair per protocol method,
# captured from a fresh run of the first shipped scenario under seed 1.
GOLDEN_FRAMES = [
    (
        Envelope(id=1, kind="request", method="fetch_logs",
                 params={"run_id": RUN_ID}),
        b'{"version":"1.0","id":1,"kind":"request","method":"fetch_logs",'
        b'"params":{"run_id":"run-957392054a846243"}}\n',
        b'{"version":"1.0","id":1,"kind":"response","result":'
        b'{"run_id":"run-957392054a846243","logs":[]}}\n',
    ),
    (
        Envelope(id=2, kind="request", method="fetch_artifact",
                 params={"run_id": RUN_ID, "name": "app.tar"}),
        b'{"version":"1.0","id":2,"kind":"request","method":"fetch_artifact",'
        b'"params":{"run_id":"run-957392054a846243","name":"app.tar"}}\n',
        b'{"version":"1.0","id":2,"kind":"response","result":'
        b'{"run_id":"run-957392054a846243","artifact":{"name":"app.tar",'
        b'"stage":"SourceManagement","digest":"sha256:957392054a846243"}}}\n',
    ),
    (
        Envelope(id=3, kind="request", method="trigger_action",
                 params={"run_id": RUN_ID, "action": "pause"}),
        b'{"version":"1.0","id":3,"kind":"request","method":"trigger_action",'
        b'"params":{"run_id":"run-957392054a846243","action":"pause"}}\n',
        b'{"version":"1.0","id":3,"kind":"response","result":'
        b'{"run_id":"run-957392054a846243","stage":"SourceManagement",'
        b'"paused":true,"build_delay":2.0}}\n',
    ),
    (
        Envelope(id=4, kind="request", method="issue_mitigation",
                 params={"run_id": RUN_ID, "mitigation": "BLOCK_BUILD"}),
        b'{"version":"1.0","id":4,"kind":"request","method":"issue_mitigation",'
        b'"params":{"run_id":"run-957392054a846243","mitigation":"BLOCK_BUILD"}}\n',
        b'{"version":"1.0","id":4,"kind":"response","result":'
        b'{"run_id":"run-957392054a846243","attack_mitigated":true,'
        b'"false_positive":false,"developer_accepted":true,'
        b'"build_delay":2.0,"done":true}}\n',
    ),
]


def fresh_connector():
    suite = evaluation.calibration_suite()
    env = PipelineEnv()
    state = env.reset([suite[0]], 1)
    assert state.run_id == RUN_ID
    connector = SimulatedConnector()
    connector.register(state.run_id, env, state)
    return connector


class TestFraming:
    def test_fixed_key_order(self):
        env = Envelope(id=9, kind="request", method="fetch_logs", params={})
        raw = encode_message(env)
        keys = list(json.loads(raw).keys())
        assert keys == ["version", "id", "kind", "method", "params"]

    def test_lone_surrogate_is_written_as_json_escape(self):
        env = Envelope(id=1, kind="response", result={"name": "\ud800 \u00e9"})
        frame = encode_message(env)
        # Only the character UTF-8 cannot hold is escaped.
        assert frame.endswith(b'"result":{"name":"\\ud800 \xc3\xa9"}}\n')
        assert decode_message(frame) == env

    def test_round_trip(self):
        env = Envelope(id=3, kind="response", result={"ok": True})
        assert decode_message(encode_message(env)) == env

    def test_embedded_newline_rejected(self):
        with pytest.raises(FrameError, match="newline"):
            decode_message(b'{"version":"1.0"\n,"kind":"event"}')

    def test_malformed_json_reports_offset(self):
        with pytest.raises(FrameError) as err:
            decode_message(b'{"version":"1.0", !}\n')
        assert err.value.offset > 0

    def test_unknown_field_rejected(self):
        with pytest.raises(FrameError, match="unknown fields"):
            decode_message(b'{"version":"1.0","kind":"event","method":"m","x":1}\n')

    def test_missing_version_named(self):
        with pytest.raises(FrameError, match="version"):
            decode_message(b'{"kind":"event","method":"m"}\n')

    def test_response_needs_exactly_one_of_result_error(self):
        with pytest.raises(FrameError):
            Envelope(id=1, kind="response")
        with pytest.raises(FrameError):
            Envelope(id=1, kind="response", result={}, error={})

    def test_request_id_must_be_positive_int(self):
        with pytest.raises(FrameError):
            Envelope(id=0, kind="request", method="m")
        with pytest.raises(FrameError):
            Envelope(id=None, kind="request", method="m")

    @pytest.mark.parametrize("frame, message", [
        (b'{"version":"1.0","id":1,"kind":"request","method":"m","params":[1]}',
         "params, result and error must be objects"),
        (b'{"version":"1.0","id":1,"kind":"request","method":["x"]}',
         "method must be a string"),
        (b'{"version":"1.0","id":true,"kind":"request","method":"m"}',
         "id must be a positive integer"),
        (b'{"version":"1.0","id":1.0,"kind":"event","method":"m"}',
         "id must be a positive integer"),
        (b'{"version":"1.0","id":1,"kind":"response","result":"ok"}',
         "params, result and error must be objects"),
        (b'{"version":"1.0","id":1,"kind":"response","error":7}',
         "params, result and error must be objects"),
        (b'{"version":"1.0","id":' + b"1" * 5000 + b',"kind":"event","method":"m"}',
         "malformed frame"),
        (b"[" * 100_000 + b"]" * 100_000, "malformed frame"),
    ], ids=["params", "method", "id-bool", "id-float", "result", "error",
            "long-int", "deep-nesting"])
    def test_ill_typed_frame_rejected(self, frame, message):
        with pytest.raises(FrameError, match=message):
            decode_message(frame)

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["request", "response", "event"]),
        eid=st.integers(min_value=1, max_value=2**31),
        method=st.text(min_size=1, max_size=12),
        payload=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.text(max_size=12), st.booleans()),
            max_size=4,
        ),
    )
    def test_round_trip_property(self, kind, eid, method, payload):
        if kind == "response":
            env = Envelope(id=eid, kind=kind, result=payload)
        else:
            env = Envelope(id=eid if kind == "request" else None,
                           kind=kind, method=method, params=payload)
        assert decode_message(encode_message(env)) == env


class TestRouting:
    def test_unknown_method_error_code(self):
        req = Envelope(id=1, kind="request", method="reboot", params={})
        resp = route_request({}, req)
        assert resp.error["code"] == METHOD_NOT_FOUND
        assert resp.id == 1

    def test_handler_protocol_error_becomes_error_envelope(self):
        def boom(params):
            raise ProtocolError(ILLEGAL_ACTION, "nope")
        resp = route_request({"m": boom},
                             Envelope(id=2, kind="request", method="m"))
        assert resp.error == {"code": ILLEGAL_ACTION, "message": "nope"}

    def test_cannot_route_event(self):
        with pytest.raises(FrameError):
            route_request({}, Envelope(kind="event", method="m"))


class TestConnector:
    def test_golden_fixtures(self):
        connector = fresh_connector()
        registry = connector.registry()
        for env, req_bytes, resp_bytes in GOLDEN_FRAMES:
            assert encode_message(env) == req_bytes
            assert decode_message(req_bytes) == env
            resp = route_request(registry, env)
            assert encode_message(resp) == resp_bytes

    def test_unknown_run(self):
        connector = fresh_connector()
        req = Envelope(id=1, kind="request", method="fetch_logs",
                       params={"run_id": "run-ffff"})
        resp = route_request(connector.registry(), req)
        assert resp.error["code"] == UNKNOWN_RUN

    @pytest.mark.parametrize("method, params", [
        ("fetch_logs", {"run_id": ["x"]}),
        ("fetch_logs", {"run_id": RUN_ID, "stage": ["Build"]}),
        ("fetch_artifact", {"run_id": RUN_ID, "name": 7}),
        ("trigger_action", {"run_id": RUN_ID, "action": {"verb": "pause"}}),
        ("issue_mitigation", {"run_id": RUN_ID, "mitigation": ["BLOCK_BUILD"]}),
    ])
    def test_non_string_param_is_invalid_request(self, method, params):
        connector = fresh_connector()
        before = connector.runs[RUN_ID].state
        resp = route_request(connector.registry(), Envelope(
            id=1, kind="request", method=method, params=params))
        key = [k for k, v in params.items() if not isinstance(v, str)][0]
        assert resp.error == {"code": INVALID_REQUEST, "message": f"{key} must be a string"}
        assert connector.runs[RUN_ID].state is before

    def test_illegal_mitigation_name(self):
        connector = fresh_connector()
        req = Envelope(id=1, kind="request", method="issue_mitigation",
                       params={"run_id": RUN_ID, "mitigation": "SELF_DESTRUCT"})
        resp = route_request(connector.registry(), req)
        assert resp.error["code"] == ILLEGAL_ACTION

    def test_pause_resume_returns_to_pre_pause_stage(self):
        connector = fresh_connector()
        registry = connector.registry()
        before = connector.runs[RUN_ID].state
        pause = Envelope(id=1, kind="request", method="trigger_action",
                         params={"run_id": RUN_ID, "action": "pause"})
        resume = Envelope(id=2, kind="request", method="trigger_action",
                          params={"run_id": RUN_ID, "action": "resume"})
        r1 = route_request(registry, pause)
        assert r1.result["paused"] is True
        r2 = route_request(registry, resume)
        after = connector.runs[RUN_ID].state
        assert r2.result["paused"] is False
        assert after.stage is before.stage
        assert after.build_delay == before.build_delay + 2.0

    def test_double_pause_is_illegal(self):
        connector = fresh_connector()
        registry = connector.registry()
        pause = Envelope(id=1, kind="request", method="trigger_action",
                         params={"run_id": RUN_ID, "action": "pause"})
        route_request(registry, pause)
        resp = route_request(registry, pause)
        assert resp.error["code"] == ILLEGAL_ACTION

    def test_rerun_requires_finished_run(self):
        connector = fresh_connector()
        req = Envelope(id=1, kind="request", method="trigger_action",
                       params={"run_id": RUN_ID, "action": "rerun"})
        resp = route_request(connector.registry(), req)
        assert resp.error["code"] == ILLEGAL_ACTION

    def test_fetch_logs_stage_filter(self):
        connector = fresh_connector()
        handle = connector.runs[RUN_ID]
        while not handle.state.done:
            handle.state = handle.env.step(
                handle.state, MitigationAction.ALLOW_CONTINUE).next_state
        resp = route_request(connector.registry(), Envelope(
            id=1, kind="request", method="fetch_logs",
            params={"run_id": RUN_ID, "stage": "Build"}))
        assert resp.result["logs"], "build stage always emits a pipeline log"
        assert all(log["stage"] == "Build" for log in resp.result["logs"])

    def test_fetch_logs_unknown_stage(self):
        connector = fresh_connector()
        resp = route_request(connector.registry(), Envelope(
            id=1, kind="request", method="fetch_logs",
            params={"run_id": RUN_ID, "stage": "Compile"}))
        assert resp.error["code"] == ILLEGAL_ACTION

    def test_replay_round_trip(self):
        connector = fresh_connector()
        frames = [req_bytes for _, req_bytes, _ in GOLDEN_FRAMES]
        out = replay(frames, connector.registry())
        assert out == [resp_bytes for _, _, resp_bytes in GOLDEN_FRAMES]
