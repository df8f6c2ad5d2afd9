import copy
import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, strategies as st

from pipeguard.env import (
    AgentRole,
    AttackScenario,
    ConfigError,
    ContractViolation,
    DEFAULT_ACCEPTANCE,
    DEFAULT_DELAYS,
    EnvConfig,
    MitigationAction,
    OutcomeFlags,
    PipelineEnv,
    PipelineStage,
    RewardParams,
    SignalKind,
    VulnerabilityClass,
    check_fields,
    compute_reward,
    developer_response,
    env_config_from_dict,
    load_scenarios,
    mitigates,
    observe,
    rollback_succeeds,
    scenario_from_dict,
    scenario_to_dict,
    unit_draw,
)


def make_scenario(**overrides):
    base = dict(
        id="s1",
        vuln_class=VulnerabilityClass.INJECTION,
        stage=PipelineStage.SOURCE_MANAGEMENT,
        payload=("exec_untrusted_input",),
        syntactic_detectable=True,
        semantic_detectable=False,
        severity=0.8,
    )
    base.update(overrides)
    return AttackScenario(**base)


class TestReward:
    def test_hand_computed_values(self):
        p = RewardParams()  # alpha 1.0, beta 0.5, delta 0.01, eta 0.25
        assert compute_reward(OutcomeFlags(True, False, False, 0.0), p) == 1.0
        assert compute_reward(OutcomeFlags(False, True, False, 0.0), p) == -0.5
        assert compute_reward(OutcomeFlags(False, False, True, 0.0), p) == 0.25
        assert compute_reward(OutcomeFlags(False, False, False, 10.0), p) == -0.1
        assert compute_reward(OutcomeFlags(True, True, True, 5.0), p) == pytest.approx(
            1.0 - 0.5 + 0.25 - 0.05, abs=1e-12
        )

    @given(
        m=st.booleans(), fp=st.booleans(), acc=st.booleans(),
        dt=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        alpha=st.floats(min_value=0.0, max_value=10.0),
        beta=st.floats(min_value=0.0, max_value=10.0),
        delta=st.floats(min_value=0.0, max_value=10.0),
        eta=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_linearity_property(self, m, fp, acc, dt, alpha, beta, delta, eta):
        p = RewardParams(alpha, beta, delta, eta)
        expected = alpha * m - beta * fp - delta * dt + eta * acc
        assert compute_reward(OutcomeFlags(m, fp, acc, dt), p) == pytest.approx(
            expected, abs=1e-12
        )

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            RewardParams(alpha=-1.0)
        with pytest.raises(ConfigError):
            RewardParams(delta=float("nan"))


class TestScenarios:
    def test_round_trip(self):
        s = make_scenario()
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_unknown_field_rejected(self):
        doc = scenario_to_dict(make_scenario())
        doc["color"] = "red"
        with pytest.raises(ConfigError, match="unknown scenario fields"):
            scenario_from_dict(doc)

    def test_missing_field_rejected(self):
        doc = scenario_to_dict(make_scenario())
        del doc["severity"]
        with pytest.raises(ConfigError, match="missing scenario fields"):
            scenario_from_dict(doc)

    def test_undetectable_scenario_rejected(self):
        with pytest.raises(ConfigError, match="undetectable"):
            make_scenario(syntactic_detectable=False,
                          semantic_detectable=False)

    def test_severity_bounds(self):
        with pytest.raises(ConfigError):
            make_scenario(severity=1.5)

    def test_duplicate_ids_rejected(self, tmp_path):
        doc = scenario_to_dict(make_scenario())
        path = tmp_path / "suite.json"
        path.write_text(json.dumps([doc, doc]))
        with pytest.raises(ConfigError, match="duplicate scenario id"):
            load_scenarios(str(path))

    def test_unknown_stage_name(self):
        doc = scenario_to_dict(make_scenario())
        doc["stage"] = "Compile"
        with pytest.raises(ConfigError, match="unknown pipeline stage"):
            scenario_from_dict(doc)


class TestCheckFields:
    SPEC = {"n": int, "x": float, "on": bool, "tags": [str], "mode": {"a", "b"},
            "table": [[float]], "doc": dict}

    @pytest.mark.parametrize("obj", [
        {"n": 2, "x": 2, "on": False, "tags": [], "mode": "a", "doc": {}},
        {"x": 1e308, "tags": ["t"], "table": [[1, 2.5], []]},
    ])
    def test_accepts(self, obj):
        check_fields(obj, self.SPEC, "thing", required=("x",))

    @pytest.mark.parametrize("obj, message", [
        ([1], "thing must be a JSON object, got [1]"),
        ({"x": 1, "y": 1, "z": 1}, "unknown thing fields: ['y', 'z']"),
        ({}, "missing thing fields: ['x']"),
        ({"x": True}, "thing field x must be a finite number, got true"),
        ({"x": float("nan")}, "got NaN"),
        ({"x": float("inf")}, "got Infinity"),
        ({"x": 10 ** 400}, "must be a finite number"),
        ({"x": 1, "n": 1.0}, "thing field n must be an integer, got 1.0"),
        ({"x": 1, "n": False}, "must be an integer, got false"),
        ({"x": 1, "on": 0}, "must be true or false, got 0"),
        ({"x": 1, "tags": ["a", 3]}, "thing field tags[1] must be a string, got 3"),
        ({"x": 1, "mode": "c"}, "must be one of ['a', 'b'], got \"c\""),
        ({"x": 1, "mode": ["a"]}, "must be one of ['a', 'b'], got [\"a\"]"),
        ({"x": 1, "table": [[1], [None]]}, "thing field table[1][0] must be a finite"),
        ({"x": 1, "doc": None}, "thing field doc must be a JSON object, got null"),
    ])
    def test_rejects(self, obj, message):
        with pytest.raises(ConfigError) as exc:
            check_fields(obj, self.SPEC, "thing", required=("x",))
        assert message in str(exc.value)


class TestDeterminism:
    def test_unit_draw_is_stable_and_uniform_range(self):
        a = unit_draw("x", 1, 2)
        assert a == unit_draw("x", 1, 2)
        assert 0.0 <= a < 1.0
        assert unit_draw("x", 1, 3) != a

    def test_identical_runs_produce_identical_traces(self):
        env = PipelineEnv()
        s = make_scenario()
        first, second = env.reset([s], 5), env.reset([s], 5)
        assert first == second
        for action in (MitigationAction.ALLOW_CONTINUE,
                       MitigationAction.REQUEST_REVIEW):
            t1 = env.step(first, action)
            t2 = env.step(second, action)
            assert t1 == t2
            first, second = t1.next_state, t2.next_state

    def test_seed_changes_run_id(self):
        env = PipelineEnv()
        s = make_scenario()
        assert env.reset([s], 1).run_id != env.reset([s], 2).run_id


A = MitigationAction
# Scripted episodes: (config, scenarios, seed, actions). The actions are
# taken in order until the run ends; each episode must end within them.
SCRIPTED_EPISODES = {
    "benign-exhausts-last-stage": (EnvConfig(), [], 3, [A.ALLOW_CONTINUE] * 5),
    "block-build": (
        EnvConfig(),
        [make_scenario(semantic_detectable=True),
         make_scenario(id="s2", stage=PipelineStage.BUILD)],
        11, [A.REQUEST_REVIEW, A.ALLOW_CONTINUE, A.BLOCK_BUILD]),
    "pause-and-every-action": (
        EnvConfig(max_steps_per_stage=2, decoys_only_benign=False,
                  decoy_probability=0.9),
        [make_scenario(semantic_detectable=True),
         make_scenario(id="s2", vuln_class=VulnerabilityClass.INSECURE_DESERIALIZATION,
                       stage=PipelineStage.DEPENDENCY_RESOLUTION),
         make_scenario(id="s3", vuln_class=VulnerabilityClass.MISCONFIGURATION,
                       stage=PipelineStage.BUILD, semantic_detectable=True),
         make_scenario(id="s4", vuln_class=VulnerabilityClass.BROKEN_ACCESS_CONTROL,
                       stage=PipelineStage.ARTIFACT_PACKAGING)],
        7, [A.PAUSE_BUILD, A.OPEN_GUARD_PULL_REQUEST, A.ALLOW_CONTINUE,
            A.QUARANTINE_DEPENDENCY, A.PAUSE_BUILD, A.APPLY_CONFIG_PATCH,
            A.REQUEST_REVIEW, A.REVOKE_CREDENTIALS, A.ALLOW_CONTINUE,
            A.PAUSE_BUILD]),
}


class TestScriptedEpisodes:
    # sha256 of the repr of the reset state and of every Transition (which
    # holds its next state), one per line, captured before EnvState was
    # built with one constructor call per step, then re-derived with the
    # removed terminal_outcome and effects fields cut from each line and
    # mitigated_ids=(...) replaced by attacked=<whether any scenario ran>.
    DIGESTS = {
        "benign-exhausts-last-stage":
            "0471a71d05c8aa563257fe5cea0cdc404f501f2e030190783ca021f379e86556",
        "block-build":
            "7200e792fba8c5605c17720977da1f1c650122a1c2c8f671f09920021e223dd1",
        "pause-and-every-action":
            "2b25396d5c4ff238f4da78209f8af04ec47cf8ee17a7f37d3d20ee80efd4f233",
    }

    @pytest.mark.parametrize("name", sorted(SCRIPTED_EPISODES))
    def test_states_are_pinned(self, name):
        config, scenarios, seed, actions = SCRIPTED_EPISODES[name]
        env = PipelineEnv(config)
        state = env.reset(scenarios, seed)
        lines = [repr(state)]
        for action in actions:
            transition = env.step(state, action)
            lines.append(repr(transition))
            state = transition.next_state
        assert state.done
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(SCRIPTED_EPISODES))
    def test_step_is_pure_and_returns_frozen_states(self, name):
        config, scenarios, seed, actions = SCRIPTED_EPISODES[name]
        env = PipelineEnv(config)
        state = env.reset(scenarios, seed)
        for scripted in actions:
            for action in MitigationAction:
                before = copy.deepcopy(state)
                transition = env.step(state, action)
                assert state == before
                assert env.step(state, action) == transition
                with pytest.raises(dataclasses.FrozenInstanceError):
                    transition.next_state.step = 0
            state = env.step(state, scripted).next_state
        assert state.done


class TestStepDynamics:
    def test_benign_run_walks_all_stages(self):
        env = PipelineEnv()
        state = env.reset([], 3)
        stages = []
        while not state.done:
            stages.append(state.stage)
            state = env.step(state, MitigationAction.ALLOW_CONTINUE).next_state
        assert stages == list(PipelineStage)
        assert state.build_delay == 0.0
        assert state.clock_minutes == 5 * 3.0

    def test_attack_injected_at_its_stage(self):
        env = PipelineEnv()
        s = make_scenario(stage=PipelineStage.BUILD)
        state = env.reset([s], 3)
        assert state.active_attacks == ()
        state = env.step(state, MitigationAction.ALLOW_CONTINUE).next_state
        assert state.active_attacks == ()
        state = env.step(state, MitigationAction.ALLOW_CONTINUE).next_state
        assert [a.id for a in state.active_attacks] == ["s1"]

    def test_block_build_terminates_and_mitigates(self):
        env = PipelineEnv()
        state = env.reset([make_scenario()], 3)
        t = env.step(state, MitigationAction.BLOCK_BUILD)
        assert t.done
        assert t.outcome.attack_mitigated
        assert [a.id for a in t.mitigated] == ["s1"]
        assert t.outcome.developer_accepted
        assert t.reward == pytest.approx(1.0 - 0.01 * 2.0 + 0.25)
        with pytest.raises(ContractViolation):
            env.step(t.next_state, MitigationAction.ALLOW_CONTINUE)

    def test_false_positive_flagged_on_benign_intervention(self):
        env = PipelineEnv()
        state = env.reset([], 3)
        t = env.step(state, MitigationAction.REVOKE_CREDENTIALS)
        assert t.outcome.false_positive
        assert t.outcome.developer_accepted
        assert t.reward == pytest.approx(-0.5 - 0.01 * 2.0 + 0.25)

    def test_mitigated_attack_signals_removed(self):
        env = PipelineEnv()
        state = env.reset([make_scenario()], 3)
        assert any(sig.origin_attack == "s1" for sig in state.signals)
        t = env.step(state, MitigationAction.OPEN_GUARD_PULL_REQUEST)
        assert t.outcome.attack_mitigated  # acceptance draw for seed 3 succeeds
        assert all(sig.origin_attack != "s1" for sig in t.next_state.signals)

    def test_action_effect_table(self):
        dr = make_scenario(stage=PipelineStage.DEPENDENCY_RESOLUTION)
        misconfig = make_scenario(
            vuln_class=VulnerabilityClass.MISCONFIGURATION)
        access = make_scenario(
            vuln_class=VulnerabilityClass.BROKEN_ACCESS_CONTROL)
        stage = PipelineStage.BUILD
        assert mitigates(MitigationAction.QUARANTINE_DEPENDENCY, dr, stage, True)
        assert not mitigates(MitigationAction.QUARANTINE_DEPENDENCY,
                             make_scenario(), stage, True)
        assert mitigates(MitigationAction.APPLY_CONFIG_PATCH, misconfig, stage, True)
        assert mitigates(MitigationAction.REVOKE_CREDENTIALS, access, stage, True)
        assert mitigates(MitigationAction.OPEN_GUARD_PULL_REQUEST,
                         make_scenario(), stage, True)
        assert not mitigates(MitigationAction.OPEN_GUARD_PULL_REQUEST,
                             make_scenario(), stage, False)
        assert not mitigates(MitigationAction.REQUEST_REVIEW,
                             make_scenario(), stage, True)
        assert not mitigates(MitigationAction.BLOCK_BUILD, make_scenario(),
                             PipelineStage.DEPLOYMENT, True)

    def test_request_review_delay(self):
        env = PipelineEnv()
        state = env.reset([], 3)
        t = env.step(state, MitigationAction.REQUEST_REVIEW)
        assert t.outcome.build_delay == 5.0
        assert t.next_state.build_delay == 5.0


class TestObservations:
    def test_role_partitioning(self):
        env = PipelineEnv()
        state = env.reset([make_scenario()], 3)
        commits = observe(state, AgentRole.CODE_ANALYSIS)
        assert all(sig.kind is SignalKind.COMMIT_DIFF for sig in commits)
        assert all(sig.origin_attack is None for sig in commits)
        assert any("exec_untrusted_input" in sig.content for sig in commits)

    def test_access_control_attacks_emit_permission_records(self):
        env = PipelineEnv()
        s = make_scenario(vuln_class=VulnerabilityClass.BROKEN_ACCESS_CONTROL,
                          payload=("wildcard_admin",))
        state = env.reset([s], 3)
        records = observe(state, AgentRole.ACCESS_CONTROL)
        assert any("wildcard_admin" in sig.content for sig in records)

    def test_semantic_attack_leaves_echo_next_stage(self):
        env = PipelineEnv()
        s = make_scenario(payload=("obfuscated_string_concat",),
                          syntactic_detectable=False, semantic_detectable=True)
        state = env.reset([s], 3)
        state = env.step(state, MitigationAction.ALLOW_CONTINUE).next_state
        echoes = [sig for sig in state.signals
                  if sig.stage is PipelineStage.DEPENDENCY_RESOLUTION
                  and sig.content == "version_pin_drift"]
        assert len(echoes) == 1

    def test_decoys_only_on_benign_runs(self):
        env = PipelineEnv(EnvConfig(decoy_probability=1.0))
        benign = env.reset([], 3)
        decoy_tokens = {"obfuscated_string_concat", "nested_object_graph",
                        "unused_privilege_grant", "implicit_default_config"}
        assert any(sig.content in decoy_tokens for sig in benign.signals)
        attacked = env.reset([make_scenario()], 3)
        assert not any(sig.content in decoy_tokens and sig.origin_attack is None
                       for sig in attacked.signals)


class TestPauseResumeRollback:
    def test_pause_keeps_stage_and_charges_delay(self):
        env = PipelineEnv()
        state = env.reset([], 3)
        paused = env.pause(state)
        assert paused.paused and paused.stage is state.stage
        assert paused.build_delay == state.build_delay + 2.0
        resumed = env.resume(paused)
        assert not resumed.paused
        assert resumed.stage is state.stage
        assert resumed.build_delay == paused.build_delay  # cost is not refunded

    def test_double_pause_rejected(self):
        env = PipelineEnv()
        paused = env.pause(env.reset([], 3))
        with pytest.raises(ContractViolation):
            env.pause(paused)

    def test_rollback_succeeds_for_invertible_actions(self):
        env = PipelineEnv()
        s = make_scenario(vuln_class=VulnerabilityClass.MISCONFIGURATION)
        state = env.reset([s], 3)
        t = env.step(state, MitigationAction.APPLY_CONFIG_PATCH)
        assert t.mitigated == (s,)
        assert rollback_succeeds(state, MitigationAction.APPLY_CONFIG_PATCH)

    def test_block_build_is_not_invertible(self):
        env = PipelineEnv()
        state = env.reset([make_scenario()], 3)
        t = env.step(state, MitigationAction.BLOCK_BUILD)
        assert t.done
        assert not rollback_succeeds(state, MitigationAction.BLOCK_BUILD)

    def test_rollback_fails_from_a_paused_run(self):
        # Undoing the patch would also unpause the run, so it cannot restore it.
        env = PipelineEnv()
        s = make_scenario(vuln_class=VulnerabilityClass.MISCONFIGURATION)
        paused = env.pause(env.reset([s], 3))
        t = env.step(paused, MitigationAction.APPLY_CONFIG_PATCH)
        assert t.mitigated == (s,)
        assert not rollback_succeeds(paused, MitigationAction.APPLY_CONFIG_PATCH)

    def test_review_is_not_invertible(self):
        state = PipelineEnv().reset([make_scenario()], 3)
        assert not rollback_succeeds(state, MitigationAction.REQUEST_REVIEW)


class TestDeveloperModel:
    def test_acceptance_rates_close_to_configured(self):
        accepted = sum(
            developer_response(MitigationAction.OPEN_GUARD_PULL_REQUEST, seed, 0, EnvConfig())
            for seed in range(2000)
        )
        assert 0.75 < accepted / 2000 < 0.85

    def test_unconditional_actions_always_accepted(self):
        assert all(
            developer_response(MitigationAction.BLOCK_BUILD, seed, 0, EnvConfig())
            for seed in range(50)
        )


class TestConfig:
    @pytest.mark.parametrize("doc, message", [
        ({"step_minutes": -1}, "step_minutes must be >= 0"),
        ({"decoy_probability": 1.5}, "decoy_probability must be in [0, 1]"),
        ({"delays": {"PAUSE_BUILD": -0.5}}, "delays PAUSE_BUILD must be >= 0"),
        ({"acceptance": {"REQUEST_REVIEW": -0.1}}, "acceptance REQUEST_REVIEW"),
        ({"acceptance": {"request_review": 0.5}}, "unknown acceptance fields"),
        ({"reward": {"alpha": -1}}, "reward parameter alpha"),
        ({"max_steps_per_stage": 0}, "max_steps_per_stage must be >= 1"),
    ])
    def test_out_of_range_values_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            env_config_from_dict(doc)

    def test_in_range_values_accepted(self):
        cfg = env_config_from_dict({"step_minutes": 0, "decoy_probability": 1,
                                    "delays": {"BLOCK_BUILD": 0},
                                    "acceptance": {"REQUEST_REVIEW": 0.0}})
        assert cfg.delays["BLOCK_BUILD"] == 0.0
        assert cfg.acceptance["REQUEST_REVIEW"] == 0.0

    def test_delay_override(self):
        cfg = EnvConfig(delays={"BLOCK_BUILD": 9.0})
        assert cfg.delays["BLOCK_BUILD"] == 9.0
        assert cfg.delays["ALLOW_CONTINUE"] == 0.0

    def test_per_action_tables_name_every_action(self):
        names = [a.name for a in MitigationAction]
        assert list(DEFAULT_DELAYS) == list(DEFAULT_ACCEPTANCE) == names
        cfg = EnvConfig(delays={"PAUSE_BUILD": 1}, acceptance={"BLOCK_BUILD": 0})
        assert cfg.delays == {**DEFAULT_DELAYS, "PAUSE_BUILD": 1.0}
        assert cfg.acceptance == {**DEFAULT_ACCEPTANCE, "BLOCK_BUILD": 0.0}
        assert type(cfg.delays["PAUSE_BUILD"]) is float
        assert EnvConfig(delays=dict(DEFAULT_DELAYS)) == EnvConfig()
