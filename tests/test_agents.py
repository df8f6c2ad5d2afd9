from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from pipeguard import agents
from pipeguard.agents import (
    BENIGN_ASSESSMENT,
    RULES,
    Assessment,
    Detector,
    Finding,
    RuleBasedReasoner,
    analyze,
    cross_stage_boost,
    dispatch,
    noisy_or,
)
from pipeguard.env import (
    AgentRole,
    ContractViolation,
    DEFAULT_DECOYS,
    DEFAULT_ECHO_TOKENS,
    EnvConfig,
    KIND_TO_ROLE,
    MitigationAction,
    ObservationSignal,
    PipelineEnv,
    PipelineStage,
    SignalKind,
    VulnerabilityClass,
    attack_signal_kind,
)
from pipeguard.evaluation import STRONG_RULE_THRESHOLD, calibration_suite


def sig(content, kind=SignalKind.COMMIT_DIFF, stage=PipelineStage.SOURCE_MANAGEMENT):
    return ObservationSignal(stage=stage, kind=kind, content=content)


def finding(cls=VulnerabilityClass.INJECTION, conf=0.8,
            stage=PipelineStage.SOURCE_MANAGEMENT, role=AgentRole.CODE_ANALYSIS):
    return Finding(role=role, hypothesis=cls, stage=stage, confidence=conf,
                   evidence=("tok",))


class TestAgents:
    def test_rule_match_is_token_exact(self):
        out = analyze(AgentRole.CODE_ANALYSIS, [sig("uses exec_untrusted_input here")])
        assert len(out) == 1
        assert out[0].hypothesis is VulnerabilityClass.INJECTION
        assert out[0].confidence == 0.9
        # substring of a larger token must not match
        assert analyze(AgentRole.CODE_ANALYSIS, [sig("exec_untrusted_inputs")]) == []

    def test_wrong_signal_kind_violates_contract(self):
        with pytest.raises(ContractViolation):
            analyze(AgentRole.CODE_ANALYSIS, [sig("x", kind=SignalKind.SBOM_ENTRY)])

    def test_one_finding_per_rule_signal_pair(self):
        out = analyze(AgentRole.CODE_ANALYSIS,
                      [sig("exec_untrusted_input exec_untrusted_input")])
        assert len(out) == 1

    def test_every_role_has_default_rules(self):
        assert list(RULES) == list(AgentRole)
        for rules in RULES.values():
            assert isinstance(rules, tuple)
            assert any(c >= STRONG_RULE_THRESHOLD for _, _, c in rules)

    def test_env_tokens_are_rules_of_the_role_that_sees_them(self):
        def rule(kind, token):
            by_token = {t: (vc, c) for t, vc, c in RULES[KIND_TO_ROLE[kind]]}
            assert token in by_token, (kind, token)
            return by_token[token]

        for s in calibration_suite():
            kind = attack_signal_kind(s.vuln_class, s.stage)
            for token in s.payload:
                vuln_class, confidence = rule(kind, token)
                assert vuln_class is s.vuln_class, (s.id, token)
                assert (confidence >= STRONG_RULE_THRESHOLD) is s.syntactic_detectable, \
                    (s.id, token)
            if s.semantic_detectable:
                kind = attack_signal_kind(s.vuln_class, PipelineStage(s.stage + 1))
                token = DEFAULT_ECHO_TOKENS[s.vuln_class].get(kind)
                assert token is not None, s.id
                vuln_class, confidence = rule(kind, token)
                assert vuln_class is s.vuln_class, (s.id, token)
                assert confidence < STRONG_RULE_THRESHOLD, (s.id, token)
        for kind, token in DEFAULT_DECOYS:
            assert rule(kind, token)[1] < STRONG_RULE_THRESHOLD, token

    def test_finding_contract(self):
        with pytest.raises(ContractViolation):
            finding(conf=1.5)
        with pytest.raises(ContractViolation):
            Finding(role=AgentRole.CODE_ANALYSIS,
                    hypothesis=VulnerabilityClass.INJECTION,
                    stage=PipelineStage.BUILD, confidence=0.5, evidence=())


class TestReasoner:
    def test_noisy_or_known_values(self):
        assert noisy_or([0.8, 0.7]) == pytest.approx(0.94)
        assert noisy_or([0.25, 0.25]) == pytest.approx(0.4375)
        assert noisy_or([]) == 0.0

    def test_cross_stage_boost_derived_oracle(self):
        # odds(0.84) = 5.25; boosted odds 7.875; p = 7.875/8.875
        assert cross_stage_boost(0.84, 1.5) == pytest.approx(7.875 / 8.875)
        assert cross_stage_boost(0.84, 1.5) == pytest.approx(0.8873, abs=5e-4)
        assert cross_stage_boost(1.0, 1.5) == 1.0

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_boost_with_factor_above_one_increases(self, p):
        assert cross_stage_boost(p, 1.5) > p

    def test_no_findings_is_benign(self):
        r = RuleBasedReasoner()
        assert r.reason([]) == BENIGN_ASSESSMENT

    def test_subthreshold_is_benign(self):
        r = RuleBasedReasoner()
        assert r.reason([finding(conf=0.25)]).verdict is None

    def test_two_stage_weak_findings_cross_threshold(self):
        r = RuleBasedReasoner()
        fs = [finding(conf=0.25, stage=PipelineStage.SOURCE_MANAGEMENT),
              finding(conf=0.25, stage=PipelineStage.DEPENDENCY_RESOLUTION)]
        out = r.reason(fs)
        assert out.verdict is VulnerabilityClass.INJECTION
        assert out.severity == pytest.approx(0.53846, abs=1e-4)
        # Same evidence without the correlation bonus stays benign.
        off = RuleBasedReasoner(correlation_enabled=False)
        assert off.reason(fs).verdict is None

    def test_same_stage_findings_get_no_bonus(self):
        r = RuleBasedReasoner()
        fs = [finding(conf=0.25), finding(conf=0.25)]
        assert r.reason(fs).verdict is None

    def test_verdict_tie_break_is_class_order(self):
        r = RuleBasedReasoner()
        fs = [finding(cls=VulnerabilityClass.MISCONFIGURATION, conf=0.8),
              finding(cls=VulnerabilityClass.INJECTION, conf=0.8)]
        assert r.reason(fs).verdict is VulnerabilityClass.INJECTION

    def test_rationale_names_evidence(self):
        r = RuleBasedReasoner()
        out = r.reason([finding(conf=0.9)])
        assert "tok" in out.rationale
        assert "Injection" in out.rationale

    def test_verdict_requires_rationale(self):
        with pytest.raises(ContractViolation):
            Assessment(verdict=VulnerabilityClass.INJECTION, severity=0.9, rationale="")


class TestSweep:
    """Every decision runs every agent once, in pipeline order, then fuses
    all their findings."""

    def test_full_sweep_visits_all_agents_once(self, monkeypatch):
        visited = []

        def recording(role, signals):
            visited.append(role)
            return analyze(role, signals)
        monkeypatch.setattr(agents, "analyze", recording)

        env = PipelineEnv()
        state = env.reset([], 11)
        dispatch(state, RuleBasedReasoner())
        assert visited == list(AgentRole)

        # Attack signals for three agents, listed against pipeline order.
        attack_signals = (
            sig("wildcard_admin", SignalKind.PERMISSION_RECORD, PipelineStage.BUILD),
            sig("typosquat_pkg", SignalKind.SBOM_ENTRY,
                PipelineStage.DEPENDENCY_RESOLUTION),
            sig("exec_untrusted_input shell_metachar_concat"),
        )
        state = replace(state, signals=state.signals + attack_signals)
        reasoner = RuleBasedReasoner()
        visited.clear()
        trace = dispatch(state, reasoner)
        assert visited == list(AgentRole)
        assert [(f.role, f.evidence) for f in trace.findings] == [
            (AgentRole.CODE_ANALYSIS, ("exec_untrusted_input",)),
            (AgentRole.CODE_ANALYSIS, ("shell_metachar_concat",)),
            (AgentRole.DEPENDENCY_INTELLIGENCE, ("typosquat_pkg",)),
            (AgentRole.ACCESS_CONTROL, ("wildcard_admin",))]
        assert trace.assessment == reasoner.reason(list(trace.findings))
        assert trace.assessment.verdict is VulnerabilityClass.INJECTION


def episode_states(env, scenarios, seed):
    """Every pre-state of one episode, acting by turns with actions that
    mitigate some attacks without ending the run, each paired with whether
    an earlier step mitigated an attack."""
    actions = [MitigationAction.ALLOW_CONTINUE, MitigationAction.REVOKE_CREDENTIALS,
               MitigationAction.APPLY_CONFIG_PATCH, MitigationAction.QUARANTINE_DEPENDENCY]
    states = []
    state, mitigated = env.reset(scenarios, seed), False
    while not state.done:
        states.append((state, mitigated))
        transition = env.step(state, actions[len(states) % len(actions)])
        state, mitigated = transition.next_state, mitigated or bool(transition.mitigated)
    return states


class TestDetector:
    def test_assess_equals_dispatch(self):
        # Decoys on every run, attacked ones too.
        env = PipelineEnv(EnvConfig(decoy_probability=0.5, decoys_only_benign=False))
        runs = [[]] * 4 + [[s] for s in calibration_suite()]
        walked = [pair for seed, scenarios in enumerate(runs)
                  for pair in episode_states(env, scenarios, seed)]
        states = [state for state, _ in walked]
        assert any(s.origin_attack is None and s.content in
                   ("obfuscated_string_concat", "nested_object_graph",
                    "unused_privilege_grant", "implicit_default_config")
                   for state in states if state.active_attacks for s in state.signals)
        assert any(mitigated and state.signals for state, mitigated in walked)
        for correlation in (True, False):
            detector = Detector(correlation)
            reasoner = RuleBasedReasoner(correlation_enabled=correlation)
            for state in states:
                assert detector.assess(state) == dispatch(state, reasoner)

    def test_repeated_observation_sweeps_once_per_detector(self, monkeypatch):
        swept = []

        def counting(state, reasoner):
            swept.append(state)
            return dispatch(state, reasoner)
        monkeypatch.setattr(agents, "dispatch", counting)

        state = PipelineEnv().reset([], 11)
        state = replace(state, signals=state.signals + (sig("exec_untrusted_input"),))
        # Same observation: other clock and build delay, origin labels the
        # agents never see.
        twin = replace(state, build_delay=2.0, clock_minutes=9.0, signals=tuple(
            replace(s, origin_attack="atk") for s in state.signals))
        first, second = Detector(), Detector()
        trace = first.assess(state)
        assert first.assess(twin) is trace and first.assess(state) is trace
        assert len(swept) == 1
        assert second.assess(twin) == trace
        assert len(swept) == 2
        # A different observation is a new sweep, and so is one signal seen
        # at another stage.
        first.assess(replace(state, signals=state.signals[:-1]))
        assert len(swept) == 3
        moved = replace(state, signals=state.signals[:-1] + (
            sig("exec_untrusted_input", stage=PipelineStage.BUILD),))
        assert first.assess(moved).findings[-1].stage is PipelineStage.BUILD
        assert len(swept) == 4
