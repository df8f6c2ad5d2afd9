import pytest
from hypothesis import given, strategies as st

from pipeguard.agents import (
    ALWAYS,
    BENIGN_ASSESSMENT,
    Assessment,
    Finding,
    Guard,
    Rule,
    RuleBasedReasoner,
    analyze,
    build_graph,
    cross_stage_boost,
    default_graph,
    default_rules,
    dispatch,
    full_sweep_graph,
    noisy_or,
    rules_from_list,
)
from pipeguard.env import (
    AgentRole,
    AttackScenario,
    ConfigError,
    ContractViolation,
    ObservationSignal,
    PipelineEnv,
    PipelineStage,
    SignalKind,
    VulnerabilityClass,
)


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

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(ConfigError):
            rules_from_list([{"role": "CodeAnalysis", "token": "x",
                              "class": "Injection", "confidence": 0.5,
                              "priority": 1}])

    @pytest.mark.parametrize("rule", [
        {"role": "CodeAnalysis", "token": "x", "class": "Injection"},
        {"role": "Auditor", "token": "x", "class": "Injection", "confidence": 0.5},
        {"role": "CodeAnalysis", "token": 7, "class": "Injection", "confidence": 0.5},
    ])
    def test_malformed_rule_rejected(self, rule):
        with pytest.raises(ConfigError):
            rules_from_list([rule])

    def test_every_role_has_default_rules(self):
        rules = default_rules()
        roles = {r.role for r in rules}
        assert roles == set(AgentRole)
        # Parsed once per process, into a table no caller can change.
        assert default_rules() is rules and isinstance(rules, tuple)
        # Each packaged graph is parsed once per process, too, into
        # mappings no caller can change.
        graph = full_sweep_graph()
        assert full_sweep_graph() is graph
        with pytest.raises(TypeError):
            graph.nodes["extra"] = graph.nodes[graph.entry]

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


class TestGuards:
    def test_guard_counts_matching_findings(self):
        g = Guard(vuln_class=VulnerabilityClass.INJECTION,
                  min_confidence=0.5, min_count=2)
        assert not g.fires([finding(conf=0.9)])
        assert g.fires([finding(conf=0.9), finding(conf=0.6)])
        assert not g.fires([finding(conf=0.9), finding(conf=0.4)])

    def test_always_guard(self):
        assert ALWAYS.fires([])


class TestGraph:
    def test_unknown_node_reference_rejected(self):
        spec = {
            "entry": "a",
            "nodes": [{"id": "a", "type": "agent", "role": "CodeAnalysis"}],
            "edges": [{"from": "a", "to": "ghost"}],
        }
        with pytest.raises(ConfigError, match="ghost"):
            build_graph(spec)

    def test_missing_entry_rejected(self):
        spec = {"entry": "nope",
                "nodes": [{"id": "a", "type": "agent", "role": "CodeAnalysis"}]}
        with pytest.raises(ConfigError):
            build_graph(spec)

    def test_agent_node_requires_role(self):
        spec = {"entry": "a", "nodes": [{"id": "a", "type": "agent"}]}
        with pytest.raises(ConfigError, match="missing a role"):
            build_graph(spec)

    def test_visit_bound_must_be_positive(self):
        spec = {"entry": "a", "max_visits_per_node": 0,
                "nodes": [{"id": "a", "type": "decision"}]}
        with pytest.raises(ConfigError):
            build_graph(spec)

    @pytest.mark.parametrize("change", [
        {"max_visits_per_node": "2"},
        {"nodes": [{"id": "a", "type": "router"}]},
        {"nodes": [{"id": 1, "type": "decision"}]},
        {"edges": [{"from": "a", "to": "a", "guard": {"class": "Nope"}}]},
        {"edges": [{"from": "a", "to": "a", "guard": {"min_count": 1.5}}]},
        {"edges": [{"from": "a"}]},
    ])
    def test_malformed_spec_rejected(self, change):
        spec = {"entry": "a", "nodes": [{"id": "a", "type": "decision"}], **change}
        with pytest.raises(ConfigError):
            build_graph(spec)

    def test_default_graph_routes_injection_to_monitoring(self):
        env = PipelineEnv()
        attack = AttackScenario(
            id="inj", vuln_class=VulnerabilityClass.INJECTION,
            stage=PipelineStage.SOURCE_MANAGEMENT,
            payload=("exec_untrusted_input",),
            syntactic_detectable=True, semantic_detectable=False, severity=0.9,
        )
        state = env.reset([attack], 11)
        trace = dispatch(default_graph(), state, RuleBasedReasoner())
        visited = [role for role, _ in trace.activations]
        assert visited == [AgentRole.CODE_ANALYSIS, AgentRole.CICD_MONITORING]
        assert trace.assessment.verdict is VulnerabilityClass.INJECTION

    def test_default_graph_benign_run_stops_at_first_agent(self):
        env = PipelineEnv()
        state = env.reset([], 11)
        trace = dispatch(default_graph(), state, RuleBasedReasoner())
        assert [role for role, _ in trace.activations] == [AgentRole.CODE_ANALYSIS]
        assert trace.assessment.verdict is None

    def test_full_sweep_visits_all_agents_once(self):
        env = PipelineEnv()
        state = env.reset([], 11)
        trace = dispatch(full_sweep_graph(), state, RuleBasedReasoner())
        assert [role for role, _ in trace.activations] == list(AgentRole)

    def test_loop_bounded_by_max_visits(self):
        spec = {
            "entry": "a",
            "max_visits_per_node": 3,
            "nodes": [{"id": "a", "type": "agent", "role": "CodeAnalysis"}],
            "edges": [{"from": "a", "to": "a"}],
        }
        graph = build_graph(spec)
        env = PipelineEnv()
        state = env.reset([], 11)
        trace = dispatch(graph, state, RuleBasedReasoner())
        assert len(trace.activations) == 3
