import copy
import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from pipeguard import evaluation, learning, ledger as ledger_mod
from pipeguard.agents import Detector
from pipeguard.env import (
    ConfigError,
    EnvConfig,
    MitigationAction,
    PipelineEnv,
    PipelineStage,
    VulnerabilityClass,
)
from pipeguard.evaluation import (
    ARM_ORDER,
    BaselineKind,
    DefenseEpisodeEnv,
    EpisodeRecord,
    ExperimentOptions,
    MetricsReport,
    Mitigation,
    PolicyStack,
    ablation,
    calibration_suite,
    class_scores,
    compare,
    comparison_csv,
    compute_metrics,
    episode_seed,
    run_experiment,
    suite_hash,
)
from pipeguard.learning import N_STATES, Policy


def record(index=0, benign=False, predicted=(), actual=(), mitigations=(),
           fp_actions=0, duration=15.0, undefended=15.0):
    return EpisodeRecord(
        index=index, seed=episode_seed(0, index), benign=benign,
        scenario=None,
        predicted_classes=sorted(predicted),
        actual_classes=sorted(actual),
        mitigations=list(mitigations),
        interventions=len(predicted),
        false_positive_actions=fp_actions,
        requested_review=False,
        total_return=0.0,
        build_delay=0.0,
        duration_minutes=duration,
        undefended_minutes=undefended if benign else 0.0,
    )


def mitigation(clock=3.0, injected=0.0, autonomous=True, rollback=True):
    return Mitigation(
        attack_id="a", vuln_class="Injection", injected_clock=injected,
        mitigated_clock=clock, action="BLOCK_BUILD", autonomous=autonomous,
        rollback_ok=rollback, developer_accepted=True,
    )


class TestClassScores:
    def test_zero_division_convention(self):
        empty = class_scores(0, 0, 0, 0)
        assert empty["precision"] == 0.0
        assert empty["recall"] == 0.0
        assert empty["f1"] == 0.0

    def test_known_values(self):
        c = class_scores(tp=8, fp=2, fn=2, tn=10)
        assert (c["tp"], c["fp"], c["fn"], c["tn"]) == (8, 2, 2, 10)
        assert c["precision"] == pytest.approx(0.8)
        assert c["recall"] == pytest.approx(0.8)
        assert c["f1"] == pytest.approx(0.8)


class TestComputeMetrics:
    def test_confusion_matches_brute_force(self):
        """Cross-check the aggregation against an independent per-episode
        enumeration over randomized label sets."""
        classes = [vc.value for vc in VulnerabilityClass]
        records = []
        i = 0
        for actual in itertools.chain([()], itertools.combinations(classes, 1),
                                      itertools.combinations(classes, 2)):
            for predicted in itertools.chain(
                    [()], itertools.combinations(classes, 1)):
                records.append(record(index=i, actual=actual,
                                      predicted=predicted))
                i += 1
        report = compute_metrics(records, BaselineKind.PROPOSED, 0, "x", 0.0)
        for vc in classes:
            tp = sum(vc in r.actual_classes and vc in r.predicted_classes
                     for r in records)
            fp = sum(vc not in r.actual_classes and vc in r.predicted_classes
                     for r in records)
            fn = sum(vc in r.actual_classes and vc not in r.predicted_classes
                     for r in records)
            tn = len(records) - tp - fp - fn
            got = report.per_class[vc]
            assert (got["tp"], got["fp"], got["fn"], got["tn"]) == (tp, fp, fn, tn)
            assert got["precision"] == (tp / (tp + fp) if tp + fp else 0.0)
            assert got["recall"] == (tp / (tp + fn) if tp + fn else 0.0)
            p, r = got["precision"], got["recall"]
            assert got["f1"] == (2 * p * r / (p + r) if p + r else 0.0)

    def test_mttm_includes_arm_latency(self):
        records = [record(mitigations=[mitigation(clock=3.0)]),
                   record(index=1, mitigations=[mitigation(clock=9.0)])]
        report = compute_metrics(records, BaselineKind.RULE_BASED, 0, "x", 25.0)
        assert report.mttm_minutes == pytest.approx((3 + 25 + 9 + 25) / 2)

    def test_autonomy_and_rollback_rates(self):
        records = [record(mitigations=[mitigation(autonomous=True, rollback=True),
                                       mitigation(autonomous=False, rollback=False)])]
        report = compute_metrics(records, BaselineKind.PROPOSED, 0, "x", 0.0)
        assert report.autonomy_rate == 0.5
        assert report.rollback_success_rate == 0.5

    def test_overhead_only_from_benign_episodes(self):
        records = [record(benign=True, duration=16.5, undefended=15.0),
                   record(index=1, duration=99.0, undefended=15.0)]
        report = compute_metrics(records, BaselineKind.PROPOSED, 0, "x", 0.0)
        assert report.overhead_percent == pytest.approx(10.0)

    def test_no_mitigations_edge(self):
        report = compute_metrics([record()], BaselineKind.PROPOSED, 0, "x", 0.0)
        assert report.mttm_minutes == 0.0
        assert report.autonomy_rate == 1.0
        assert report.rollback_success_rate == 0.0
        assert report.overhead_percent == 0.0
        assert report.false_positive_actions == 0


class TestCalibrationSuite:
    def test_shape(self, suite):
        assert len(suite) == 40
        by_class = {}
        for s in suite:
            by_class.setdefault(s.vuln_class, []).append(s)
        for vc in VulnerabilityClass:
            group = by_class[vc]
            assert len(group) == 10
            assert sum(s.syntactic_detectable for s in group) == 6
            assert sum(s.semantic_detectable for s in group) == 4

    def test_all_valid_and_pre_packaging(self, suite):
        for s in suite:
            assert s.stage <= PipelineStage.BUILD

    def test_hash_is_stable_and_order_sensitive(self, suite):
        assert suite_hash(suite) == suite_hash(list(suite))
        assert suite_hash(suite) != suite_hash(suite[::-1])


class TestArms:
    def test_rule_based_misses_semantic_attacks(self, suite):
        options = ExperimentOptions(episodes=80, benign_fraction=0.0)
        report, records, artifacts = run_experiment(
            BaselineKind.RULE_BASED, suite, 3, options=options)
        assert artifacts is None
        for vc in VulnerabilityClass:
            got = report.per_class[vc.value]
            assert got["precision"] == 1.0
            assert 0.45 <= got["recall"] <= 0.75
        assert report.autonomy_rate == 0.0
        assert report.mttm_minutes == pytest.approx(25.0)

    def test_provenance_only_blocks_artifact_altering_late(self, suite):
        options = ExperimentOptions(episodes=80, benign_fraction=0.0)
        report, records, _ = run_experiment(
            BaselineKind.PROVENANCE_ONLY, suite, 3, options=options)
        assert report.per_class["Injection"]["recall"] == 1.0
        assert report.per_class["InsecureDeserialization"]["recall"] == 1.0
        assert report.per_class["BrokenAccessControl"]["recall"] == 0.0
        assert report.per_class["Misconfiguration"]["recall"] == 0.0
        assert report.mttm_minutes >= 28.0

    def test_proposed_detects_semantics_and_writes_ledger(
            self, suite, proposed_policy):
        options = ExperimentOptions(episodes=60)
        report, records, artifacts = run_experiment(
            BaselineKind.PROPOSED, suite, 3, proposed_policy, options)
        for vc in VulnerabilityClass:
            assert report.per_class[vc.value]["recall"] >= 0.9
        assert artifacts is not None
        assert len(artifacts.chain) == 61  # genesis + one block per episode
        verdict = ledger_mod.verify_chain(
            artifacts.chain, artifacts.validators, artifacts.acl)
        assert isinstance(verdict, ledger_mod.ChainValid)

    @pytest.mark.parametrize("params_shape, actions", [
        ((N_STATES, 3), ("a", "b", "c")),
        ((N_STATES, 8), tuple(a.name for a in reversed(MitigationAction))),
    ])
    def test_policy_stack_rejects_foreign_policy(self, params_shape, actions):
        policy = Policy("tabular-greedy", np.zeros(params_shape), actions)
        with pytest.raises(ConfigError, match="policy"):
            PolicyStack(policy)

    def test_policy_arms_require_policy(self, suite):
        with pytest.raises(ConfigError, match="requires a trained policy"):
            run_experiment(BaselineKind.PROPOSED, suite, 3)

    def test_empty_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(BaselineKind.RULE_BASED, [], 0)

    def test_run_experiment_is_deterministic(self, suite, proposed_policy):
        options = ExperimentOptions(episodes=25)
        a = run_experiment(BaselineKind.PROPOSED, suite, 5, proposed_policy, options)
        b = run_experiment(BaselineKind.PROPOSED, suite, 5, proposed_policy, options)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert [blk.hash() for blk in a[2].chain] == \
            [blk.hash() for blk in b[2].chain]

    def test_ledger_leaves_report_and_records_unchanged(self, suite,
                                                        proposed_policy):
        on = run_experiment(BaselineKind.PROPOSED, suite, 3, proposed_policy,
                            ExperimentOptions(episodes=40))
        off = run_experiment(BaselineKind.PROPOSED, suite, 3, proposed_policy,
                             ExperimentOptions(episodes=40, ledger_enabled=False))
        assert on[2] is not None and off[2] is None
        assert on[0] == off[0]
        assert on[1] == off[1]

    @pytest.mark.parametrize("arm", ARM_ORDER, ids=lambda arm: arm.value)
    def test_arm_constants_reach_the_outputs(self, suite, proposed_policy,
                                             detector_only_policy, arm):
        """MTTM is the simulated delay plus the arm's actuation constant, and
        benign overhead is the arm's per-step analysis cost plus action delays."""
        latency, analysis_cost = {
            BaselineKind.RULE_BASED: (25.0, 0.07),
            BaselineKind.PROVENANCE_ONLY: (25.0, 0.05),
            BaselineKind.RL_ONLY: (6.0, 0.12),
            BaselineKind.PROPOSED: (0.0, 0.17),
        }[arm]
        policy = detector_only_policy if arm is BaselineKind.RL_ONLY else proposed_policy
        report, records, _ = run_experiment(
            arm, suite, 17, policy, ExperimentOptions(episodes=200, ledger_enabled=False))
        mitigations = [m for r in records for m in r.mitigations]
        simulated = np.mean([m.mitigated_clock - m.injected_clock for m in mitigations])
        assert report.mttm_minutes - simulated == pytest.approx(latency)
        if arm in evaluation.HUMAN_GATED:
            assert not any(m.autonomous for m in mitigations)
        step_minutes = ExperimentOptions().env_config.step_minutes
        benign = [r for r in records if r.benign]
        assert benign
        for r in benign:
            steps = r.undefended_minutes / step_minutes
            cost = (r.duration_minutes - r.undefended_minutes - r.build_delay) / steps
            assert cost == pytest.approx(analysis_cost)

    def test_ledger_entries_record_the_fused_assessment_of_each_state(
            self, suite, proposed_policy):
        seed, options = 3, ExperimentOptions(episodes=12)
        _, _, artifacts = run_experiment(BaselineKind.PROPOSED, suite, seed,
                                         proposed_policy, options)
        pipeline = PipelineEnv(options.env_config)
        decide = PolicyStack(proposed_policy).decide
        for i, block in enumerate(artifacts.chain[1:]):
            scenarios, ep_seed = evaluation._plan_episode(
                seed, i, suite, options.benign_fraction)
            steps = list(evaluation.episode_steps(decide, pipeline, scenarios, ep_seed))
            assert len(block.entries) == len(steps)
            for entry, (pre_state, decision, _) in zip(block.entries, steps):
                doc = json.dumps([[s.stage.value, s.kind.value, s.content]
                                  for s in pre_state.signals], separators=(",", ":"))
                assert entry.signals_digest == hashlib.sha256(doc.encode()).digest()
                assessment = Detector().assess(pre_state).assessment
                assert entry.reasoning_summary == (
                    f"{assessment.verdict.value} severity {assessment.severity:.3f}"
                    if assessment.verdict is not None else "benign")
                assert entry.action is decision.action


class TestTrainingEnv:
    @pytest.mark.parametrize("env_config", [EnvConfig(), EnvConfig(max_steps_per_stage=3)],
                             ids=["default", "three-steps-per-stage"])
    def test_training_sees_the_states_evaluation_acts_on(
            self, suite, proposed_policy, monkeypatch, env_config):
        seed, episodes = 7, 40
        env = DefenseEpisodeEnv(suite, seed, env_config)
        trained = []
        for _ in range(episodes):
            sid, done = env.reset(None), False
            while not done:
                action = proposed_policy.greedy(sid)
                trained.append((sid, action))
                sid, _, done = env.step(action)

        state_ids, actions, prior_alerts = [], [], []
        encode, walk = learning.encode_state, evaluation.episode_steps

        def recording_encode(state, assessment, prior):
            prior_alerts.append(prior)
            state_ids.append(encode(state, assessment, prior))
            return state_ids[-1]

        def recording_walk(*args):
            for step in walk(*args):
                actions.append(int(step.decision.action))
                yield step
        monkeypatch.setattr(learning, "encode_state", recording_encode)
        monkeypatch.setattr(evaluation, "episode_steps", recording_walk)
        run_experiment(BaselineKind.PROPOSED, suite, seed, proposed_policy,
                       ExperimentOptions(episodes=episodes, env_config=env_config,
                                         ledger_enabled=False))
        assert list(zip(state_ids, actions, strict=True)) == trained
        if env_config.max_steps_per_stage > 1:
            # Longer runs count more alerts than encode_state keeps apart.
            assert max(prior_alerts) >= learning.N_PRIOR_ALERTS


class TestAblation:
    def test_unknown_target_rejected(self, suite, proposed_policy):
        with pytest.raises(ConfigError, match="unknown ablation"):
            ablation(suite, 0, proposed_policy, {"llm"})

    def test_ledger_off_leaves_confusion_identical(self, suite, proposed_policy):
        options = ExperimentOptions(episodes=40)
        result = ablation(suite, 3, proposed_policy, {"ledger"}, options)
        assert result["confusion_identical"]

    def test_reasoner_off_drops_semantic_recall(self, suite, proposed_policy):
        options = ExperimentOptions(episodes=120)
        result = ablation(suite, 3, proposed_policy, {"reasoner"}, options)
        deltas = result["per_class_deltas"]
        assert deltas["InsecureDeserialization"]["recall_delta"] <= -0.10
        assert deltas["BrokenAccessControl"]["recall_delta"] <= -0.10

    def test_rl_off_raises_false_positives_and_mttm(self, suite, proposed_policy):
        options = ExperimentOptions(episodes=120)
        result = ablation(suite, 3, proposed_policy, {"rl"}, options)
        assert result["false_positive_actions_delta"] > 0
        assert result["mttm_delta"] > 0

    @pytest.mark.parametrize("disable, blocks_per_episode", [
        ({"rl"}, 0), ({"reasoner"}, 0), ({"ledger"}, 1)])
    def test_commits_only_the_chain_it_compares(self, suite, proposed_policy,
                                                monkeypatch, disable,
                                                blocks_per_episode):
        """Only the ledger ablation compares against a committed chain, and
        only its baseline commits one."""
        calls = []
        real = ledger_mod.append_block
        monkeypatch.setattr(ledger_mod, "append_block",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        options = ExperimentOptions(episodes=6)
        ablation(suite, 3, proposed_policy, disable, options)
        assert len(calls) == blocks_per_episode * options.episodes

    def test_rl_off_leaves_caller_options_unchanged(self, suite, proposed_policy):
        options = ExperimentOptions(episodes=10)
        before = copy.deepcopy(options)
        ablation(suite, 3, proposed_policy, {"rl"}, options)
        assert options == before


class TestCompare:
    def fake_report(self, arm, f1, mttm, overhead):
        per_class = {
            vc.value: {"tp": 1, "fp": 0, "fn": 0, "tn": 1,
                       "precision": 1.0, "recall": 1.0, "f1": f1}
            for vc in VulnerabilityClass
        }
        return MetricsReport(arm=arm.value, episodes=10, seed=0, suite="s",
                             per_class=per_class, mttm_minutes=mttm,
                             overhead_percent=overhead, autonomy_rate=1.0,
                             rollback_success_rate=1.0, false_positive_actions=0)

    def all_reports(self):
        return [
            self.fake_report(BaselineKind.RULE_BASED, 0.75, 28.0, 2.5),
            self.fake_report(BaselineKind.PROVENANCE_ONLY, 0.5, 34.0, 1.8),
            self.fake_report(BaselineKind.RL_ONLY, 0.75, 12.0, 4.0),
            self.fake_report(BaselineKind.PROPOSED, 0.93, 6.0, 5.8),
        ]

    def test_requires_two_reports(self):
        with pytest.raises(ConfigError, match="at least 2"):
            compare([self.fake_report(BaselineKind.PROPOSED, 1, 1, 1)])

    @pytest.mark.parametrize("field, value", [
        ("suite", "other"), ("seed", 1), ("episodes", 50)])
    def test_mismatched_runs_rejected(self, field, value):
        a = self.fake_report(BaselineKind.PROPOSED, 1, 1, 1)
        b = dataclasses.replace(self.fake_report(BaselineKind.RULE_BASED, 1, 1, 1),
                                **{field: value})
        with pytest.raises(ConfigError, match=f"reports differ in {field}"):
            compare([a, b])

    def test_repeated_arm_rejected(self):
        a = self.fake_report(BaselineKind.RULE_BASED, 1, 1, 1)
        with pytest.raises(ConfigError, match="two reports of arm RuleBased"):
            compare([a, self.fake_report(BaselineKind.PROPOSED, 1, 1, 1), a])

    def test_table_structure_and_arm_order(self):
        tables = compare(self.all_reports())
        assert [row["class"] for row in tables["f1"]] == \
            [vc.value for vc in VulnerabilityClass]
        assert list(tables["f1"][0].keys())[1:] == [a.value for a in ARM_ORDER]
        assert [row["arm"] for row in tables["mttm"]] == \
            [a.value for a in ARM_ORDER]
        assert tables["mttm"][3]["mttm_minutes"] == 6.0
        assert tables["overhead"][0]["overhead_percent"] == 2.5

    def test_csv_rendering(self):
        csvs = comparison_csv(compare(self.all_reports()))
        header = csvs["mttm"].splitlines()[0]
        assert header == "arm,mttm_minutes"
        assert csvs["f1"].splitlines()[0].startswith("class,RuleBased,")

    def test_report_dict_round_trip(self):
        rep = self.fake_report(BaselineKind.PROPOSED, 0.9, 6.0, 5.0)
        assert MetricsReport.from_dict(rep.to_dict()) == rep
