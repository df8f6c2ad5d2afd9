"""Specialized detection agents, the pluggable reasoner and the execution graph.

Each agent is a pure function from its role's observable signals to findings,
driven by a declarative rule table. A reasoner fuses the accumulated findings
into a single assessment; the shipped implementation is deterministic
rule-plus-correlation fusion (noisy-OR with a cross-stage bonus). Routing
between agents is a small guarded graph with bounded loops.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType
from typing import Mapping, Optional, Protocol

from .env import (
    AgentRole,
    ContractViolation,
    ConfigError,
    EnvState,
    KIND_TO_ROLE,
    ObservationSignal,
    PipelineStage,
    VulnerabilityClass,
    check_fields,
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


@dataclass(frozen=True)
class Rule:
    role: AgentRole
    token: str
    vuln_class: VulnerabilityClass
    confidence: float


_ROLE_NAMES = {role.value for role in AgentRole}
_CLASS_NAMES = {vc.value for vc in VulnerabilityClass}
_RULE_FIELDS = {"role": _ROLE_NAMES, "token": str, "class": _CLASS_NAMES, "confidence": float}


def rules_from_list(items: list[dict]) -> list[Rule]:
    for obj in items:
        check_fields(obj, _RULE_FIELDS, "rule", required=_RULE_FIELDS)
    return [Rule(role=AgentRole(obj["role"]), token=obj["token"],
                 vuln_class=VulnerabilityClass(obj["class"]), confidence=obj["confidence"])
            for obj in items]


@functools.cache
def default_rules() -> tuple[Rule, ...]:
    """The packaged rule table, parsed once per process."""
    text = resources.files("pipeguard.data").joinpath("rules_default.json").read_text()
    return tuple(rules_from_list(json.loads(text)))


def analyze(role: AgentRole, signals: list[ObservationSignal]) -> list[Finding]:
    expected_kind = ROLE_TO_KIND[role]
    for sig in signals:
        if sig.kind is not expected_kind:
            raise ContractViolation(
                f"{role.value} agent received a {sig.kind.value} signal"
            )
    findings = []
    for rule in default_rules():
        if rule.role is not role:
            continue
        for sig in signals:
            if rule.token in sig.content.split():
                findings.append(Finding(
                    role=role,
                    hypothesis=rule.vuln_class,
                    stage=sig.stage,
                    confidence=rule.confidence,
                    evidence=(rule.token,),
                ))
    return findings


# -- reasoning ---------------------------------------------------------------

# A fused class probability at or above this is a verdict.
FUSION_THRESHOLD = 0.5
# Odds multiplier for a class whose findings span two or more stages.
CROSS_STAGE_FACTOR = 1.5


class Reasoner(Protocol):
    def reason(self, findings: list[Finding]) -> Assessment:
        """Fuse findings into one assessment. Must be a pure function of
        `findings`: equal findings give an equal assessment, whatever run or
        state they came from, so a caller may memoize on them."""


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
    bonus. The external-model adapter slot shares this interface but is not
    implemented here.
    """

    correlation_enabled: bool = True

    def reason(self, findings: list[Finding]) -> Assessment:
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
        if best is None or best_p < FUSION_THRESHOLD:
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
            severity=min(best_p, 1.0),
            rationale=rationale,
        )


# -- execution graph -----------------------------------------------------------


@dataclass(frozen=True)
class Guard:
    vuln_class: Optional[VulnerabilityClass] = None
    min_confidence: float = 0.0
    min_count: int = 1

    def fires(self, findings: list[Finding]) -> bool:
        count = 0
        for f in findings:
            if self.vuln_class is not None and f.hypothesis is not self.vuln_class:
                continue
            if f.confidence >= self.min_confidence:
                count += 1
        return count >= self.min_count


# Unconditional edge.
ALWAYS = Guard(min_count=0)


@dataclass(frozen=True)
class GraphNode:
    id: str
    kind: str  # "agent" | "decision"
    role: Optional[AgentRole] = None


@dataclass(frozen=True)
class GraphEdge:
    dst: str
    guard: Guard


@dataclass(frozen=True)
class ExecutionGraph:
    nodes: Mapping[str, GraphNode]
    edges: Mapping[str, tuple[GraphEdge, ...]]  # source id -> out-edges in spec order
    entry: str
    max_visits_per_node: int


_GRAPH_FIELDS = {"entry": str, "max_visits_per_node": int, "nodes": list, "edges": list}
_NODE_FIELDS = {"id": str, "type": {"agent", "decision"}, "role": _ROLE_NAMES}
_EDGE_FIELDS = {"from": str, "to": str, "guard": dict}
_GUARD_FIELDS = {"class": _CLASS_NAMES, "min_confidence": float, "min_count": int}


def build_graph(spec: dict) -> ExecutionGraph:
    """Validate a graph description into an ExecutionGraph."""
    check_fields(spec, _GRAPH_FIELDS, "graph", required=("entry", "nodes"))
    for n in spec["nodes"]:
        check_fields(n, _NODE_FIELDS, "graph node", required=("id", "type"))
    ids = [n["id"] for n in spec["nodes"]]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate node ids in graph spec")
    nodes = MappingProxyType({
        n["id"]: GraphNode(id=n["id"], kind=n["type"],
                           role=AgentRole(n["role"]) if "role" in n else None)
        for n in spec["nodes"]
    })
    entry = spec["entry"]
    max_visits = spec.get("max_visits_per_node", 1)
    for n in nodes.values():
        if n.kind == "agent" and n.role is None:
            raise ConfigError(f"agent node {n.id} is missing a role")
    if entry not in nodes:
        raise ConfigError(f"entry node {entry!r} does not exist")
    if max_visits < 1:
        raise ConfigError("max_visits_per_node must be positive")
    edges: dict[str, list[GraphEdge]] = {node_id: [] for node_id in nodes}
    for e in spec.get("edges", []):
        check_fields(e, _EDGE_FIELDS, "graph edge", required=("from", "to"))
        src, dst = e["from"], e["to"]
        for endpoint in (src, dst):
            if endpoint not in nodes:
                raise ConfigError(f"edge references unknown node {endpoint!r}")
        g = e.get("guard")
        if g is None:
            guard = ALWAYS
        else:
            check_fields(g, _GUARD_FIELDS, "graph guard")
            guard = Guard(
                vuln_class=VulnerabilityClass(g["class"]) if "class" in g else None,
                min_confidence=g.get("min_confidence", 0.0),
                min_count=g.get("min_count", 1),
            )
        edges[src].append(GraphEdge(dst, guard))
    # Read-only mappings: a packaged graph is one object shared by every caller.
    out_edges = MappingProxyType({src: tuple(out) for src, out in edges.items()})
    return ExecutionGraph(nodes, out_edges, entry, max_visits)


@functools.cache
def _packaged_graph(name: str) -> ExecutionGraph:
    """A packaged graph, parsed once per process."""
    text = resources.files("pipeguard.data").joinpath(name).read_text()
    return build_graph(json.loads(text))


def default_graph() -> ExecutionGraph:
    """The shipped escalation route: code analysis hands off to pipeline
    monitoring when an injection pattern is present."""
    return _packaged_graph("graph_default.json")


def full_sweep_graph() -> ExecutionGraph:
    """All five agents in pipeline order, then the decision node. Used by the
    evaluation harness so every class is observable."""
    return _packaged_graph("graph_full_sweep.json")


@dataclass(frozen=True)
class DispatchTrace:
    activations: tuple[tuple[AgentRole, tuple[Finding, ...]], ...]
    assessment: Assessment


def dispatch(graph: ExecutionGraph, state: EnvState, reasoner: Reasoner) -> DispatchTrace:
    """Walk the graph from its entry, collecting findings, and fuse them.

    Guards are evaluated over all findings accumulated so far; the walk stops
    at a decision node, when no guard fires, or at the per-node visit bound.
    """
    visits: dict[str, int] = {}
    findings: list[Finding] = []
    activations: list[tuple[AgentRole, tuple[Finding, ...]]] = []
    current = graph.entry
    while True:
        visits[current] = visits.get(current, 0) + 1
        node = graph.nodes[current]
        if node.kind == "decision":
            break
        got = analyze(node.role, observe(state, node.role))
        findings.extend(got)
        activations.append((node.role, tuple(got)))
        nxt = None
        for edge in graph.edges[current]:
            if visits.get(edge.dst, 0) >= graph.max_visits_per_node:
                continue
            if edge.guard.fires(findings):
                nxt = edge.dst
                break
        if nxt is None:
            break
        current = nxt
    return DispatchTrace(tuple(activations), reasoner.reason(findings))
