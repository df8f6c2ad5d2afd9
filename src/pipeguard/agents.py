"""Specialized detection agents, the reasoner and the agent sweep.

Each agent is a pure function from its role's observable signals to findings,
driven by a declarative rule table. The reasoner fuses the accumulated
findings into a single assessment by deterministic rule-plus-correlation
fusion (noisy-OR with a cross-stage bonus). Every decision runs all five
agents once, in pipeline order, so every class is observable; a run's
`Detector` does that sweep once per distinct observation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .env import (
    AgentRole,
    ContractViolation,
    EnvState,
    KIND_TO_ROLE,
    ObservationSignal,
    PipelineStage,
    VulnerabilityClass,
    observe,
)

ROLE_TO_KIND = {role: kind for kind, role in KIND_TO_ROLE.items()}


@dataclass(frozen=True)
class Finding:
    role: AgentRole
    hypothesis: VulnerabilityClass
    stage: PipelineStage
    confidence: float
    evidence: tuple[str, ...]

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ContractViolation("finding confidence outside [0,1]")
        if not self.evidence:
            raise ContractViolation("finding must carry evidence")


@dataclass(frozen=True)
class Assessment:
    verdict: Optional[VulnerabilityClass]
    severity: float
    rationale: str

    def __post_init__(self):
        if self.verdict is not None and not self.rationale:
            raise ContractViolation("non-benign assessment requires a rationale")


BENIGN_ASSESSMENT = Assessment(
    verdict=None,
    severity=0.0,
    rationale="",
)


# Each role's detection rules, (token, class, confidence), in scan order, which
# orders findings: the fixed response's pick on ties and the noisy-OR's float
# products depend on it. Strong (>= 0.5) rows come first; the weak (0.25) rows
# are the tokens of correlation-only payloads and of env's echoes and decoys.
RULES = {
    AgentRole.CODE_ANALYSIS: (
        ("exec_untrusted_input", VulnerabilityClass.INJECTION, 0.9),
        ("shell_metachar_concat", VulnerabilityClass.INJECTION, 0.85),
        ("pickle_loads_untrusted", VulnerabilityClass.INSECURE_DESERIALIZATION, 0.9),
        ("yaml_unsafe_load", VulnerabilityClass.INSECURE_DESERIALIZATION, 0.85),
        ("obfuscated_string_concat", VulnerabilityClass.INJECTION, 0.25),
        ("dynamic_attr_loader", VulnerabilityClass.INSECURE_DESERIALIZATION, 0.25),
    ),
    AgentRole.DEPENDENCY_INTELLIGENCE: (
        ("typosquat_pkg", VulnerabilityClass.INJECTION, 0.85),
        ("postinstall_curl_bash", VulnerabilityClass.INJECTION, 0.9),
        ("gadget_chain_dep", VulnerabilityClass.INSECURE_DESERIALIZATION, 0.85),
        ("version_pin_drift", VulnerabilityClass.INJECTION, 0.25),
        ("nested_object_graph", VulnerabilityClass.INSECURE_DESERIALIZATION, 0.25),
    ),
    AgentRole.CICD_MONITORING: (
        ("curl_pipe_sh_in_ci", VulnerabilityClass.INJECTION, 0.85),
        ("deserialize_artifact_blob", VulnerabilityClass.INSECURE_DESERIALIZATION, 0.8),
        ("unexpected_build_subprocess", VulnerabilityClass.INJECTION, 0.25),
        ("artifact_size_anomaly", VulnerabilityClass.INSECURE_DESERIALIZATION, 0.25),
    ),
    AgentRole.ACCESS_CONTROL: (
        ("wildcard_admin", VulnerabilityClass.BROKEN_ACCESS_CONTROL, 0.9),
        ("secret_in_plaintext", VulnerabilityClass.BROKEN_ACCESS_CONTROL, 0.85),
        ("token_scope_star", VulnerabilityClass.BROKEN_ACCESS_CONTROL, 0.8),
        ("unused_privilege_grant", VulnerabilityClass.BROKEN_ACCESS_CONTROL, 0.25),
        ("offhours_token_use", VulnerabilityClass.BROKEN_ACCESS_CONTROL, 0.25),
    ),
    AgentRole.CONFIGURATION_AUDIT: (
        ("privileged_container_true", VulnerabilityClass.MISCONFIGURATION, 0.9),
        ("public_s3_acl", VulnerabilityClass.MISCONFIGURATION, 0.85),
        ("debug_endpoint_exposed", VulnerabilityClass.MISCONFIGURATION, 0.8),
        ("implicit_default_config", VulnerabilityClass.MISCONFIGURATION, 0.25),
        ("env_override_drift", VulnerabilityClass.MISCONFIGURATION, 0.25),
    ),
}


def analyze(role: AgentRole, signals: list[ObservationSignal]) -> list[Finding]:
    expected_kind = ROLE_TO_KIND[role]
    for sig in signals:
        if sig.kind is not expected_kind:
            raise ContractViolation(
                f"{role.value} agent received a {sig.kind.value} signal"
            )
    findings = []
    for token, vuln_class, confidence in RULES[role]:
        for sig in signals:
            if token in sig.content.split():
                findings.append(Finding(
                    role=role,
                    hypothesis=vuln_class,
                    stage=sig.stage,
                    confidence=confidence,
                    evidence=(token,),
                ))
    return findings


# -- reasoning ---------------------------------------------------------------

# A fused class probability at or above this is a verdict.
FUSION_THRESHOLD = 0.5
# Odds multiplier for a class whose findings span two or more stages.
CROSS_STAGE_FACTOR = 1.5


def noisy_or(confidences) -> float:
    p = 1.0
    for c in confidences:
        p *= 1.0 - c
    return 1.0 - p


def cross_stage_boost(p: float, factor: float) -> float:
    """Multiply the detection odds by `factor`, capped at probability 1."""
    if p >= 1.0:
        return 1.0
    odds = p / (1.0 - p) * factor
    return odds / (1.0 + odds)


@dataclass(frozen=True)
class RuleBasedReasoner:
    """Deterministic stand-in for the language-model reasoning layer.

    Fuses per-class finding confidences with noisy-OR; findings of the same
    class seen in two or more distinct stages get an odds-space correlation
    bonus.
    """

    correlation_enabled: bool = True

    def reason(self, findings: Sequence[Finding]) -> Assessment:
        """Fuse findings into one assessment. A pure function of `findings`:
        equal findings give an equal assessment, whatever run or state they
        came from, which is what lets `Detector` memoize the sweep."""
        if not findings:
            return BENIGN_ASSESSMENT
        by_class: dict[VulnerabilityClass, list[Finding]] = {}
        for f in findings:
            by_class.setdefault(f.hypothesis, []).append(f)
        best: Optional[VulnerabilityClass] = None
        best_p = -1.0
        for vc in VulnerabilityClass:  # fixed order gives deterministic ties
            if vc not in by_class:
                continue
            group = by_class[vc]
            p = noisy_or(f.confidence for f in group)
            stages = {f.stage for f in group}
            if self.correlation_enabled and len(stages) >= 2:
                p = cross_stage_boost(p, CROSS_STAGE_FACTOR)
            if p > best_p:
                best, best_p = vc, p
        if best_p < FUSION_THRESHOLD:
            return BENIGN_ASSESSMENT
        group = by_class[best]
        evidence = sorted({tok for f in group for tok in f.evidence})
        stages = sorted({f.stage for f in group})
        rationale = (
            f"{best.value} indicated by {', '.join(evidence)} "
            f"across stage(s) {', '.join(s.name for s in stages)}; "
            f"fused confidence {best_p:.3f}"
        )
        return Assessment(
            verdict=best,
            severity=best_p,
            rationale=rationale,
        )


# -- the agent sweep -------------------------------------------------------------


@dataclass(frozen=True)
class DispatchTrace:
    findings: tuple[Finding, ...]    # every agent's, in AgentRole order
    assessment: Assessment
    signals_digest: bytes            # sha256 of the observation, as the ledger records it


def dispatch(state: EnvState, reasoner: RuleBasedReasoner) -> DispatchTrace:
    """Run every agent once, in pipeline order, on what its role observes,
    then fuse all their findings in that order."""
    findings = tuple(f for role in AgentRole for f in analyze(role, observe(state, role)))
    doc = json.dumps([[s.stage.value, s.kind.value, s.content] for s in state.signals],
                     separators=(",", ":"))
    return DispatchTrace(findings, reasoner.reason(findings),
                         hashlib.sha256(doc.encode()).digest())


class Detector:
    """The agent sweep of one run or training call, memoized per distinct
    observation: each signal's (stage, kind, content), in order, is all that
    `dispatch` reads, as `observe` strips origin labels and `reason` is pure.
    Measured at 352-508 entries per run (DQN and PPO training at 3000
    episodes, every arm at 2000 episodes, seed 101)."""

    def __init__(self, correlation: bool = True):
        self.reasoner = RuleBasedReasoner(correlation_enabled=correlation)
        self._traces: dict[tuple, DispatchTrace] = {}

    def assess(self, state: EnvState) -> DispatchTrace:
        key = tuple((s.stage, s.kind, s.content) for s in state.signals)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = dispatch(state, self.reasoner)
        return trace
