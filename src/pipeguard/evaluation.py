"""Experiment runner and metrics engine.

Four arms run against the same scenario suite: a syntactic rule baseline, a
provenance-style post-build checker, a learned policy without fused
reasoning, and the full detection + reasoning + policy stack. Metrics are
per-class precision/recall/F1, mean time-to-mitigation (MTTM), benign-run
overhead, autonomy rate and rollback success. Everything is seeded and
reproducible byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass, field, asdict, replace
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from . import learning, ledger as ledger_mod
# analyze, dispatch and observe go unused here; bench/tracing.py patches them here.
from .agents import Assessment, Detector, analyze, dispatch  # noqa: F401
from .env import (
    AgentRole,
    AttackScenario,
    ConfigError,
    EnvConfig,
    EnvState,
    MitigationAction,
    PipelineEnv,
    PipelineStage,
    Transition,
    VulnerabilityClass,
    check_fields,
    observe,
    rollback_succeeds,
    scenario_to_dict,
    unit_draw,
)


class BaselineKind(str, Enum):
    RULE_BASED = "RuleBased"
    PROVENANCE_ONLY = "ProvenanceOnly"
    RL_ONLY = "RLOnly"
    PROPOSED = "Proposed"


ARM_ORDER = tuple(BaselineKind)

# Post-detection actuation latency per arm, simulated minutes. The two
# non-autonomous arms pay a human review constant; the policy-only arm pays a
# runtime verification pass because it acts without an attached rationale.
DEFAULT_ARM_LATENCY = {
    BaselineKind.RULE_BASED: 25.0,
    BaselineKind.PROVENANCE_ONLY: 25.0,
    BaselineKind.RL_ONLY: 6.0,
    BaselineKind.PROPOSED: 0.0,
}
# Proposed's actuation latency when RL is disabled and a static playbook acts.
PLAYBOOK_LATENCY = 10.0
# The arms whose actions a human reviews before they take effect.
HUMAN_GATED = frozenset({BaselineKind.RULE_BASED, BaselineKind.PROVENANCE_ONLY})

# Per-step analysis cost charged when computing benign build overhead.
DEFAULT_ANALYSIS_COST = {
    BaselineKind.RULE_BASED: 0.07,
    BaselineKind.PROVENANCE_ONLY: 0.05,
    BaselineKind.RL_ONLY: 0.12,
    BaselineKind.PROPOSED: 0.17,
}

# Fixed verdict-to-action map used by the non-learning arms.
FIXED_ACTION_MAP = {
    VulnerabilityClass.INJECTION: MitigationAction.BLOCK_BUILD,
    VulnerabilityClass.INSECURE_DESERIALIZATION: MitigationAction.BLOCK_BUILD,
    VulnerabilityClass.BROKEN_ACCESS_CONTROL: MitigationAction.REVOKE_CREDENTIALS,
    VulnerabilityClass.MISCONFIGURATION: MitigationAction.APPLY_CONFIG_PATCH,
}

STRONG_RULE_THRESHOLD = 0.5


def episode_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"episode|{seed}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % 2**63


def suite_hash(suite: list[AttackScenario]) -> str:
    doc = json.dumps([scenario_to_dict(s) for s in suite],
                     separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


@dataclass
class ExperimentOptions:
    episodes: int = 200
    benign_fraction: float = 0.25
    env_config: EnvConfig = field(default_factory=EnvConfig)
    ledger_enabled: bool = True

    def __post_init__(self):
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        if not (0.0 <= self.benign_fraction < 1.0):
            raise ConfigError("benign_fraction must be in [0, 1)")


@dataclass
class Mitigation:
    attack_id: str
    vuln_class: str
    injected_clock: float
    mitigated_clock: float
    action: str
    autonomous: bool
    rollback_ok: bool
    developer_accepted: bool


@dataclass
class EpisodeRecord:
    index: int
    seed: int
    benign: bool
    scenario: Optional[dict]
    predicted_classes: list[str]
    actual_classes: list[str]
    mitigations: list[Mitigation]
    interventions: int
    false_positive_actions: int
    requested_review: bool
    total_return: float
    build_delay: float
    duration_minutes: float
    undefended_minutes: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MetricsReport:
    arm: str
    episodes: int
    seed: int
    suite: str                       # suite hash
    per_class: dict                  # class -> {tp, fp, fn, tn, precision, recall, f1}
    mttm_minutes: float
    overhead_percent: float
    autonomy_rate: float
    rollback_success_rate: float
    false_positive_actions: int

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "MetricsReport":
        check_fields(doc, _REPORT_FIELDS, "report", required=_REPORT_FIELDS)
        check_fields(doc["per_class"], _PER_CLASS_FIELDS, "report per_class",
                     required=_PER_CLASS_FIELDS)
        for name, counts in doc["per_class"].items():
            check_fields(counts, _CLASS_METRIC_FIELDS, f"report per_class {name}",
                         required=_CLASS_METRIC_FIELDS)
        return MetricsReport(**doc)


_REPORT_FIELDS = {
    "arm": {kind.value for kind in BaselineKind}, "episodes": int, "seed": int, "suite": str,
    "per_class": dict, "mttm_minutes": float, "overhead_percent": float,
    "autonomy_rate": float, "rollback_success_rate": float, "false_positive_actions": int,
}
_PER_CLASS_FIELDS = dict.fromkeys((vc.value for vc in VulnerabilityClass), dict)
_CLASS_METRIC_FIELDS = {"tp": int, "fp": int, "fn": int, "tn": int,
                        "precision": float, "recall": float, "f1": float}


def class_scores(tp: int, fp: int, fn: int, tn: int) -> dict:
    """One class's `per_class` entry; a ratio with an empty denominator is 0.0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "precision": precision, "recall": recall, "f1": f1}


def compute_metrics(records: list[EpisodeRecord], arm: BaselineKind,
                    seed: int, suite_digest: str,
                    arm_latency: float) -> MetricsReport:
    """Aggregate labeled episode outcomes into a metrics report."""
    per_class = {}
    for vc in VulnerabilityClass:
        pairs = Counter((vc.value in r.actual_classes, vc.value in r.predicted_classes)
                        for r in records)
        per_class[vc.value] = class_scores(pairs[True, True], pairs[False, True],
                                           pairs[True, False], pairs[False, False])
    mitigations = [m for r in records for m in r.mitigations]
    latencies = [m.mitigated_clock - m.injected_clock + arm_latency for m in mitigations]
    overheads = [(r.duration_minutes - r.undefended_minutes) / r.undefended_minutes * 100.0
                 for r in records if r.benign and r.undefended_minutes > 0]
    return MetricsReport(
        arm=arm.value,
        episodes=len(records),
        seed=seed,
        suite=suite_digest,
        per_class=per_class,
        mttm_minutes=float(np.mean(latencies)) if latencies else 0.0,
        overhead_percent=float(np.mean(overheads)) if overheads else 0.0,
        autonomy_rate=(sum(m.autonomous for m in mitigations) / len(mitigations)
                       if mitigations else 1.0),
        rollback_success_rate=(sum(m.rollback_ok for m in mitigations) / len(mitigations)
                               if mitigations else 0.0),
        false_positive_actions=sum(r.false_positive_actions for r in records),
    )


# -- per-arm decision stacks ----------------------------------------------------


class Decision(NamedTuple):
    verdict: Optional[VulnerabilityClass]
    action: MitigationAction


ALLOW = Decision(None, MitigationAction.ALLOW_CONTINUE)


def _fixed_response(findings) -> Decision:
    """The fixed action for the most confident finding (the first on ties),
    or ALLOW when there is none."""
    if not findings:
        return ALLOW
    top = max(findings, key=lambda f: f.confidence)
    return Decision(top.hypothesis, FIXED_ACTION_MAP[top.hypothesis])


# Each arm's stack maps a state to a Decision by `decide(state, prior_alerts)`.


class RuleBasedStack:
    """Syntactic rule matches above a confidence floor, fixed action map,
    human review before actuation."""

    def __init__(self):
        self.detector = Detector()

    def decide(self, state, prior_alerts):
        return _fixed_response([f for f in self.detector.assess(state).findings
                                if f.confidence >= STRONG_RULE_THRESHOLD])


# Attack classes whose payload changes artifact bytes; a digest comparison
# can only ever surface these. Permission and configuration tampering leave
# the built artifact byte-identical.
ARTIFACT_ALTERING = frozenset({
    VulnerabilityClass.INJECTION,
    VulnerabilityClass.INSECURE_DESERIALIZATION,
})


class ProvenanceStack:
    """Detects only artifact digest mismatches at packaging/deployment; the
    harness reveals the mismatch class from ground truth, as a real digest
    check would identify the tampered artifact."""

    def decide(self, state, prior_alerts):
        if state.stage < PipelineStage.ARTIFACT_PACKAGING:
            return ALLOW
        for attack in state.active_attacks:
            if attack.vuln_class in ARTIFACT_ALTERING:
                return Decision(attack.vuln_class, MitigationAction.BLOCK_BUILD)
        return ALLOW


def policy_state(detector: Detector, state: EnvState,
                 prior_alerts: int) -> tuple[int, Assessment]:
    """The state id a policy acts on, and the fused assessment it encodes.
    Evaluation and training both map states through it."""
    assessment = detector.assess(state).assessment
    return learning.encode_state(state, assessment, prior_alerts), assessment


class PolicyStack:
    """Run the agent sweep, fuse findings, act greedily from a trained policy."""

    def __init__(self, policy: learning.Policy, correlation: bool = True):
        # A policy fits only the state and action spaces it was trained on.
        expected = (DefenseEpisodeEnv.n_states, DefenseEpisodeEnv.n_actions)
        if policy.params.shape != expected:
            raise ConfigError(f"policy params have shape {policy.params.shape}, "
                              f"expected {expected}")
        if policy.actions != DefenseEpisodeEnv.action_labels:
            raise ConfigError(f"policy actions must be {list(DefenseEpisodeEnv.action_labels)}")
        self.policy = policy
        self.detector = Detector(correlation)

    def decide(self, state, prior_alerts):
        sid, assessment = policy_state(self.detector, state, prior_alerts)
        return Decision(assessment.verdict, MitigationAction(self.policy.greedy(sid)))


class PlaybookStack:
    """Reasoner verdicts plus any raw finding trigger a fixed playbook action
    (the learned policy is disabled)."""

    def __init__(self, correlation: bool = True):
        self.detector = Detector(correlation)

    def decide(self, state, prior_alerts):
        trace = self.detector.assess(state)
        assessment = trace.assessment
        if assessment.verdict is not None:
            return Decision(assessment.verdict, FIXED_ACTION_MAP[assessment.verdict])
        # No fused verdict: the static playbook still reacts to any finding.
        return _fixed_response(trace.findings)


def _build_stack(arm: BaselineKind, policy: Optional[learning.Policy]):
    if arm is BaselineKind.RULE_BASED:
        return RuleBasedStack()
    if arm is BaselineKind.PROVENANCE_ONLY:
        return ProvenanceStack()
    if policy is None:
        raise ConfigError(f"arm {arm.value} requires a trained policy")
    return PolicyStack(policy, correlation=arm is BaselineKind.PROPOSED)


# -- episode loop -----------------------------------------------------------------


def _plan_episode(seed: int, index: int, suite: list[AttackScenario],
                  benign_fraction: float) -> tuple[list[AttackScenario], int]:
    """Episode `index`'s scenarios (none for a benign run) and its run seed,
    for evaluation and training alike."""
    benign = unit_draw("benign-slot", seed, index) < benign_fraction
    return ([] if benign else [suite[index % len(suite)]]), episode_seed(seed, index)


class Step(NamedTuple):
    pre_state: EnvState
    decision: Decision
    transition: Transition


def episode_steps(decide: Callable[[EnvState, int], Decision],
                  pipeline: PipelineEnv, scenarios: list[AttackScenario],
                  ep_seed: int) -> Iterator[Step]:
    """Walk one episode: reset, then decide and step until the run is done.

    The episode record, the ledger entries and the simulate trace are all
    built from the steps it yields, so they describe the same walk.
    """
    state = pipeline.reset(scenarios, ep_seed)
    prior_alerts = 0
    while not state.done:
        decision = decide(state, prior_alerts)
        if decision.verdict is not None:
            prior_alerts += 1
        transition = pipeline.step(state, decision.action)
        yield Step(state, decision, transition)
        state = transition.next_state


def _episode_record(steps: list[Step], scenarios: list[AttackScenario],
                    ep_seed: int, index: int, options: ExperimentOptions,
                    arm: BaselineKind) -> EpisodeRecord:
    predicted: set[str] = set()
    mitigations: list[Mitigation] = []
    interventions = 0
    fp_actions = 0
    requested_review = False
    total_return = 0.0
    for pre_state, (verdict, action), transition in steps:
        total_return += transition.reward
        if action is not MitigationAction.ALLOW_CONTINUE:
            interventions += 1
            if transition.outcome.false_positive:
                fp_actions += 1
            if verdict is not None:
                predicted.add(verdict.value)
        if action is MitigationAction.REQUEST_REVIEW:
            requested_review = True
        for attack in transition.mitigated:
            mitigations.append(Mitigation(
                attack_id=attack.id,
                vuln_class=attack.vuln_class.value,
                injected_clock=dict(pre_state.injection_clock)[attack.id],
                mitigated_clock=pre_state.clock_minutes,
                action=action.name,
                autonomous=arm not in HUMAN_GATED and not requested_review,
                rollback_ok=rollback_succeeds(pre_state, action),
                developer_accepted=transition.outcome.developer_accepted,
            ))
    final = steps[-1].transition.next_state
    benign = not scenarios
    analysis_cost = DEFAULT_ANALYSIS_COST[arm]
    return EpisodeRecord(
        index=index,
        seed=ep_seed,
        benign=benign,
        scenario=scenario_to_dict(scenarios[0]) if scenarios else None,
        predicted_classes=sorted(predicted),
        actual_classes=sorted({s.vuln_class.value for s in scenarios}),
        mitigations=mitigations,
        interventions=interventions,
        false_positive_actions=fp_actions,
        requested_review=requested_review,
        total_return=total_return,
        build_delay=final.build_delay,
        duration_minutes=final.clock_minutes + analysis_cost * len(steps),
        undefended_minutes=(len(steps) * options.env_config.step_minutes
                            if benign else 0.0),
    )


@dataclass
class LedgerArtifacts:
    chain: list
    validators: ledger_mod.ValidatorSet
    signing_keys: dict
    acl: ledger_mod.AclPolicy


def _init_ledger(seed: int) -> LedgerArtifacts:
    validators, keys = ledger_mod.generate_validators(ledger_mod.DEFAULT_VALIDATORS, seed)
    acl = ledger_mod.default_acl()
    genesis = ledger_mod.make_genesis(validators, keys, acl)
    return LedgerArtifacts([genesis], validators, keys, acl)


def _ledger_entries(steps: list[Step], global_clock: float,
                    detector: Detector) -> list[ledger_mod.LedgerEntry]:
    """One ledger entry per decision of an episode. What an entry says about
    its state is the trace `detector` memoized when the stack decided on it."""
    entries = []
    for pre_state, (_, action), transition in steps:
        trace = detector.assess(pre_state)
        verdict, severity = trace.assessment.verdict, trace.assessment.severity
        entries.append(ledger_mod.LedgerEntry(
            agent_id="mitigation-controller",
            role=AgentRole.CICD_MONITORING,
            signals_digest=trace.signals_digest,
            reasoning_summary=(f"{verdict.value} severity {severity:.3f}"
                               if verdict is not None else "benign"),
            action=action,
            outcome=transition.outcome,
            timestamp=int(global_clock + pre_state.clock_minutes),
        ))
    return entries


def run_experiment(
    arm: BaselineKind,
    suite: list[AttackScenario],
    seed: int,
    policy: Optional[learning.Policy] = None,
    options: Optional[ExperimentOptions] = None,
) -> tuple[MetricsReport, list[EpisodeRecord], Optional[LedgerArtifacts]]:
    """Run every planned episode through the arm's decision stack."""
    if not suite:
        raise ConfigError("scenario suite must be non-empty")
    return _run(arm, _build_stack(arm, policy), DEFAULT_ARM_LATENCY[arm],
                suite, seed, options or ExperimentOptions())


def _run(arm: BaselineKind, stack, latency: float, suite: list[AttackScenario],
         seed: int, options: ExperimentOptions):
    """Run every planned episode through `stack`, reporting as `arm` with
    `latency` minutes of actuation latency."""
    pipeline = PipelineEnv(options.env_config)
    digest = suite_hash(suite)
    records: list[EpisodeRecord] = []
    artifacts: Optional[LedgerArtifacts] = None
    if arm is BaselineKind.PROPOSED and options.ledger_enabled:
        artifacts = _init_ledger(seed)
    batches = []  # one block's (entries, timestamp) per episode
    global_clock = 0.0
    for i in range(options.episodes):
        scenarios, ep_seed = _plan_episode(seed, i, suite, options.benign_fraction)
        steps = list(episode_steps(stack.decide, pipeline, scenarios, ep_seed))
        record = _episode_record(steps, scenarios, ep_seed, i, options, arm)
        if artifacts is not None:
            batches.append((_ledger_entries(steps, global_clock, stack.detector),
                            int(global_clock + record.duration_minutes)))
        global_clock += record.duration_minutes
        records.append(record)
    if artifacts is not None:
        ledger_mod.append_blocks(artifacts.chain, batches, artifacts.validators.ids()[0],
                                 artifacts.validators, artifacts.signing_keys, artifacts.acl)
    report = compute_metrics(records, arm, seed, digest, latency)
    return report, records, artifacts


# -- training against the simulated pipeline -------------------------------------


class DefenseEpisodeEnv:
    """Episodic RL view of the pipeline: detection runs inside the env, the
    agent chooses mitigation actions over encoded states."""

    n_states = learning.N_STATES
    n_actions = len(MitigationAction)
    action_labels = tuple(a.name for a in MitigationAction)
    _actions = tuple(MitigationAction)  # indexed by the learner's action id

    def __init__(self, suite: list[AttackScenario], seed: int,
                 env_config: Optional[EnvConfig] = None,
                 correlation: bool = True):
        self.suite = suite
        self.seed = seed
        self.pipeline = PipelineEnv(env_config)
        self.detector = Detector(correlation)
        self._episode = 0

    def reset(self, rng) -> int:
        scenarios, ep_seed = _plan_episode(self.seed, self._episode, self.suite,
                                           ExperimentOptions.benign_fraction)
        self._episode += 1
        self._state = self.pipeline.reset(scenarios, ep_seed)
        self._prior_alerts = 0
        sid, self._assessment = policy_state(self.detector, self._state, 0)
        return sid

    def step(self, action: int) -> tuple[int, float, bool]:
        if self._assessment.verdict is not None:
            self._prior_alerts += 1
        transition = self.pipeline.step(self._state, self._actions[action])
        self._state = transition.next_state
        if transition.done:
            return 0, transition.reward, True
        sid, self._assessment = policy_state(self.detector, self._state,
                                             self._prior_alerts)
        return sid, transition.reward, False


def train_mitigation_policy(
    suite: list[AttackScenario],
    config: learning.TrainConfig,
    env_config: Optional[EnvConfig] = None,
    correlation: bool = True,
) -> learning.Policy:
    if not suite:
        raise ConfigError("scenario suite must be non-empty")
    env = DefenseEpisodeEnv(suite, config.seed, env_config, correlation)
    return learning.train(env, config)


# -- ablations and comparisons -----------------------------------------------------


def ablation(
    suite: list[AttackScenario],
    seed: int,
    policy: learning.Policy,
    disable: set[str],
    options: Optional[ExperimentOptions] = None,
) -> dict:
    """Re-run the full stack with components disabled; report metric deltas."""
    if not disable:
        raise ConfigError("ablation needs at least one target: reasoner, rl or ledger")
    unknown = disable - {"reasoner", "rl", "ledger"}
    if unknown:
        raise ConfigError(f"unknown ablation targets: {sorted(unknown)}")
    options = options or ExperimentOptions()
    # A chain is committed only where it is the difference under test: the
    # baseline of a ledger ablation. Any other chain would go unread.
    baseline, _, _ = run_experiment(
        BaselineKind.PROPOSED, suite, seed, policy,
        replace(options, ledger_enabled=options.ledger_enabled and "ledger" in disable))
    correlation = "reasoner" not in disable
    if "rl" in disable:
        stack, latency = PlaybookStack(correlation), PLAYBOOK_LATENCY
    else:
        stack = PolicyStack(policy, correlation)
        latency = DEFAULT_ARM_LATENCY[BaselineKind.PROPOSED]
    ablated, _, _ = _run(BaselineKind.PROPOSED, stack, latency, suite, seed,
                         replace(options, ledger_enabled=False))
    return {
        "disabled": sorted(disable),
        "baseline": baseline.to_dict(),
        "ablated": ablated.to_dict(),
        "per_class_deltas": {
            vc.value: {f"{k}_delta": ablated.per_class[vc.value][k]
                       - baseline.per_class[vc.value][k]
                       for k in ("recall", "precision", "f1")}
            for vc in VulnerabilityClass},
        "mttm_delta": ablated.mttm_minutes - baseline.mttm_minutes,
        "false_positive_actions_delta":
            ablated.false_positive_actions - baseline.false_positive_actions,
        "confusion_identical": all(
            baseline.per_class[vc.value][k] == ablated.per_class[vc.value][k]
            for vc in VulnerabilityClass for k in ("tp", "fp", "fn", "tn")
        ),
    }


def compare(reports: list[MetricsReport]) -> dict:
    """Per-class F1, per-arm MTTM and per-arm overhead tables."""
    if len(reports) < 2:
        raise ConfigError("comparison requires at least 2 reports")
    for name in ("suite", "seed", "episodes"):
        if len({getattr(r, name) for r in reports}) > 1:
            raise ConfigError(f"reports differ in {name}")
    by_arm: dict[str, MetricsReport] = {}
    for r in reports:
        if r.arm in by_arm:
            raise ConfigError(f"two reports of arm {r.arm}")
        by_arm[r.arm] = r
    arms = [a.value for a in ARM_ORDER if a.value in by_arm]
    f1_rows = [{"class": vc.value,
                **{arm: by_arm[arm].per_class[vc.value]["f1"] for arm in arms}}
               for vc in VulnerabilityClass]
    mttm_rows = [{"arm": arm, "mttm_minutes": by_arm[arm].mttm_minutes}
                 for arm in arms]
    overhead_rows = [{"arm": arm, "overhead_percent": by_arm[arm].overhead_percent}
                     for arm in arms]
    return {"f1": f1_rows, "mttm": mttm_rows, "overhead": overhead_rows}


def comparison_csv(tables: dict) -> dict[str, str]:
    """Render the comparison tables as CSV text, one per table."""
    out = {}
    for name, rows in tables.items():
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        out[name] = buf.getvalue()
    return out


# -- shipped calibration suite -------------------------------------------------


def calibration_suite() -> list[AttackScenario]:
    """Deterministic scenario suite: per class, six syntactically detectable
    attacks and four that only cross-stage correlation catches."""
    sm = PipelineStage.SOURCE_MANAGEMENT
    dr = PipelineStage.DEPENDENCY_RESOLUTION
    bd = PipelineStage.BUILD
    inj = VulnerabilityClass.INJECTION
    des = VulnerabilityClass.INSECURE_DESERIALIZATION
    bac = VulnerabilityClass.BROKEN_ACCESS_CONTROL
    mis = VulnerabilityClass.MISCONFIGURATION
    spec: list[tuple[VulnerabilityClass, PipelineStage, list[str], bool]] = [
        # (class, stage, payload, syntactic)
        (inj, sm, ["exec_untrusted_input"], True),
        (inj, sm, ["shell_metachar_concat"], True),
        (inj, dr, ["typosquat_pkg"], True),
        (inj, dr, ["postinstall_curl_bash"], True),
        (inj, bd, ["curl_pipe_sh_in_ci"], True),
        (inj, sm, ["exec_untrusted_input", "shell_metachar_concat"], True),
        (inj, sm, ["obfuscated_string_concat"], False),
        (inj, dr, ["version_pin_drift"], False),
        (inj, bd, ["unexpected_build_subprocess"], False),
        (inj, sm, ["obfuscated_string_concat"], False),
        (des, sm, ["pickle_loads_untrusted"], True),
        (des, sm, ["yaml_unsafe_load"], True),
        (des, dr, ["gadget_chain_dep"], True),
        (des, bd, ["deserialize_artifact_blob"], True),
        (des, sm, ["pickle_loads_untrusted", "yaml_unsafe_load"], True),
        (des, dr, ["gadget_chain_dep"], True),
        (des, sm, ["dynamic_attr_loader"], False),
        (des, dr, ["nested_object_graph"], False),
        (des, bd, ["artifact_size_anomaly"], False),
        (des, sm, ["dynamic_attr_loader"], False),
        (bac, sm, ["wildcard_admin"], True),
        (bac, dr, ["secret_in_plaintext"], True),
        (bac, bd, ["token_scope_star"], True),
        (bac, sm, ["wildcard_admin", "secret_in_plaintext"], True),
        (bac, dr, ["wildcard_admin"], True),
        (bac, bd, ["secret_in_plaintext"], True),
        (bac, sm, ["unused_privilege_grant"], False),
        (bac, dr, ["unused_privilege_grant"], False),
        (bac, bd, ["unused_privilege_grant"], False),
        (bac, sm, ["unused_privilege_grant"], False),
        (mis, sm, ["privileged_container_true"], True),
        (mis, dr, ["public_s3_acl"], True),
        (mis, bd, ["debug_endpoint_exposed"], True),
        (mis, sm, ["public_s3_acl", "debug_endpoint_exposed"], True),
        (mis, dr, ["privileged_container_true"], True),
        (mis, bd, ["public_s3_acl"], True),
        (mis, sm, ["implicit_default_config"], False),
        (mis, dr, ["implicit_default_config"], False),
        (mis, bd, ["implicit_default_config"], False),
        (mis, sm, ["implicit_default_config"], False),
    ]
    suite = []
    for i, (vc, stage, payload, syntactic) in enumerate(spec):
        suite.append(AttackScenario(
            id=f"cal-{i:03d}-{vc.value.lower()}",
            vuln_class=vc,
            stage=stage,
            payload=tuple(payload),
            syntactic_detectable=syntactic,
            semantic_detectable=not syntactic,
            severity=0.85 if syntactic else 0.5,
        ))
    return suite
