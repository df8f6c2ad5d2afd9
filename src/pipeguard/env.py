"""Deterministic simulated CI/CD pipeline environment.

A run walks the pipeline stages in order, injecting configured attack
scenarios at their target stage and emitting role-observable signals.
Mitigation actions change the run's dynamics; every transition is a pure
function of (state, action, run seed), so whole traces are reproducible
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from typing import Optional


class VulnerabilityClass(str, Enum):
    INJECTION = "Injection"
    INSECURE_DESERIALIZATION = "InsecureDeserialization"
    BROKEN_ACCESS_CONTROL = "BrokenAccessControl"
    MISCONFIGURATION = "Misconfiguration"


class PipelineStage(IntEnum):
    SOURCE_MANAGEMENT = 0
    DEPENDENCY_RESOLUTION = 1
    BUILD = 2
    ARTIFACT_PACKAGING = 3
    DEPLOYMENT = 4


# Each stage's name in scenario files and outputs, indexed by PipelineStage.
STAGE_NAMES = ("SourceManagement", "DependencyResolution", "Build",
               "ArtifactPackaging", "Deployment")


def stage_name(stage: PipelineStage) -> str:
    return STAGE_NAMES[stage]


class SignalKind(str, Enum):
    COMMIT_DIFF = "commit_diff"
    SBOM_ENTRY = "sbom_entry"
    PIPELINE_LOG = "pipeline_log"
    PERMISSION_RECORD = "permission_record"
    CONFIG_MANIFEST = "config_manifest"


class MitigationAction(IntEnum):
    # Enumeration order is the greedy tie-break order everywhere.
    ALLOW_CONTINUE = 0
    BLOCK_BUILD = 1
    QUARANTINE_DEPENDENCY = 2
    REQUEST_REVIEW = 3
    REVOKE_CREDENTIALS = 4
    PAUSE_BUILD = 5
    APPLY_CONFIG_PATCH = 6
    OPEN_GUARD_PULL_REQUEST = 7


class AgentRole(str, Enum):
    CODE_ANALYSIS = "CodeAnalysis"
    DEPENDENCY_INTELLIGENCE = "DependencyIntelligence"
    CICD_MONITORING = "CICDMonitoring"
    ACCESS_CONTROL = "AccessControl"
    CONFIGURATION_AUDIT = "ConfigurationAudit"


# Which agent role may observe each signal kind.
KIND_TO_ROLE = {
    SignalKind.COMMIT_DIFF: AgentRole.CODE_ANALYSIS,
    SignalKind.SBOM_ENTRY: AgentRole.DEPENDENCY_INTELLIGENCE,
    SignalKind.PIPELINE_LOG: AgentRole.CICD_MONITORING,
    SignalKind.PERMISSION_RECORD: AgentRole.ACCESS_CONTROL,
    SignalKind.CONFIG_MANIFEST: AgentRole.CONFIGURATION_AUDIT,
}

# Default signal kind for a stage's generic events and for attack echoes.
STAGE_KIND = {
    PipelineStage.SOURCE_MANAGEMENT: SignalKind.COMMIT_DIFF,
    PipelineStage.DEPENDENCY_RESOLUTION: SignalKind.SBOM_ENTRY,
    PipelineStage.BUILD: SignalKind.PIPELINE_LOG,
    PipelineStage.ARTIFACT_PACKAGING: SignalKind.PIPELINE_LOG,
    PipelineStage.DEPLOYMENT: SignalKind.CONFIG_MANIFEST,
}


class ContractViolation(Exception):
    """An operation was called outside its contract."""


class ConfigError(Exception):
    """Invalid scenario or environment configuration."""


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", dict: "a JSON object"}


def check_value(value, kind, name: str) -> None:
    """Raise ConfigError unless a JSON value has `kind` (see check_fields)."""
    if isinstance(kind, list):
        check_value(value, list, name)
        for i, item in enumerate(value):
            check_value(item, kind[0], f"{name}[{i}]")
        return
    if isinstance(kind, set):
        ok = isinstance(value, str) and value in kind
    elif isinstance(value, bool) or kind is bool:
        ok = type(value) is kind
    elif kind is float:
        # NaN compares false; so does an int too large for a float.
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, kind)
    if not ok:
        expected = f"one of {sorted(kind)}" if isinstance(kind, set) else _KIND_NAMES[kind]
        raise ConfigError(f"{name} must be {expected}, got {json.dumps(value)[:40]}")
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{name} is not valid UTF-8, got "
                              f"{json.dumps(value)[:40]}") from None


def check_fields(obj, spec: dict, what: str, required=()) -> None:
    """Raise ConfigError unless `obj` is a JSON object with every key in
    `required`, no key outside `spec`, and each value of the kind `spec` gives
    its key: bool, int, float, str, list or dict; a set of allowed strings; or
    ``[kind]``, a list whose items all have that kind. A bool is not a number,
    an int passes where a float is expected, and floats must be finite."""
    check_value(obj, dict, what)
    unknown = set(obj) - set(spec)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing {what} fields: {sorted(missing)}")
    for key, value in obj.items():
        check_value(value, spec[key], f"{what} field {key}")


@dataclass(frozen=True)
class AttackScenario:
    id: str
    vuln_class: VulnerabilityClass
    stage: PipelineStage
    payload: tuple[str, ...]
    syntactic_detectable: bool
    semantic_detectable: bool
    severity: float

    def __post_init__(self):
        if not self.payload:
            raise ConfigError(f"scenario {self.id}: payload must be non-empty")
        if not (self.syntactic_detectable or self.semantic_detectable):
            raise ConfigError(
                f"scenario {self.id}: undetectable (neither syntactic nor semantic)"
            )
        if not (0.0 <= self.severity <= 1.0):
            raise ConfigError(f"scenario {self.id}: severity outside [0,1]")


_SCENARIO_FIELDS = {
    "id": str, "class": {vc.value for vc in VulnerabilityClass}, "stage": str, "payload": [str],
    "syntactic_detectable": bool, "semantic_detectable": bool, "severity": float,
}


def scenario_from_dict(obj: dict) -> AttackScenario:
    check_fields(obj, _SCENARIO_FIELDS, "scenario", required=_SCENARIO_FIELDS)
    if obj["stage"] not in STAGE_NAMES:
        raise ConfigError(f"unknown pipeline stage: {obj['stage']!r}")
    return AttackScenario(
        id=obj["id"],
        vuln_class=VulnerabilityClass(obj["class"]),
        stage=PipelineStage(STAGE_NAMES.index(obj["stage"])),
        payload=tuple(obj["payload"]),
        syntactic_detectable=obj["syntactic_detectable"],
        semantic_detectable=obj["semantic_detectable"],
        severity=float(obj["severity"]),
    )


def scenario_to_dict(s: AttackScenario) -> dict:
    return {
        "id": s.id,
        "class": s.vuln_class.value,
        "stage": stage_name(s.stage),
        "payload": list(s.payload),
        "syntactic_detectable": s.syntactic_detectable,
        "semantic_detectable": s.semantic_detectable,
        "severity": s.severity,
    }


def load_json(path: str):
    """Parse a UTF-8 JSON file. Bad UTF-8, bad JSON, integers too long to
    convert and nesting too deep to parse are each a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(str(exc)) from exc


def load_scenarios(path: str) -> list[AttackScenario]:
    data = load_json(path)
    check_value(data, list, "scenario file")
    scenarios = [scenario_from_dict(obj) for obj in data]
    seen: set[str] = set()
    for s in scenarios:
        if s.id in seen:
            raise ConfigError(f"duplicate scenario id: {s.id}")
        seen.add(s.id)
    return scenarios


@dataclass(frozen=True)
class ObservationSignal:
    stage: PipelineStage
    kind: SignalKind
    content: str
    origin_attack: Optional[str] = None

    def stripped(self) -> "ObservationSignal":
        if self.origin_attack is None:
            return self
        return ObservationSignal(self.stage, self.kind, self.content)


@dataclass(frozen=True)
class OutcomeFlags:
    attack_mitigated: bool = False
    false_positive: bool = False
    developer_accepted: bool = False
    build_delay: float = 0.0


@dataclass(frozen=True)
class RewardParams:
    alpha: float = 1.0
    beta: float = 0.5
    delta: float = 0.01
    eta: float = 0.25

    def __post_init__(self):
        for name in ("alpha", "beta", "delta", "eta"):
            v = getattr(self, name)
            if not (v >= 0.0 and v == v and v != float("inf")):
                raise ConfigError(f"reward parameter {name} must be finite and >= 0")


def compute_reward(outcome: OutcomeFlags, params: RewardParams) -> float:
    """Scalar step reward balancing mitigation value, false alarms,
    added build latency and developer acceptance."""
    return (
        params.alpha * float(outcome.attack_mitigated)
        - params.beta * float(outcome.false_positive)
        - params.delta * outcome.build_delay
        + params.eta * float(outcome.developer_accepted)
    )


@dataclass(frozen=True)
class EnvState:
    run_id: str
    stage: PipelineStage
    step: int
    active_attacks: tuple[AttackScenario, ...]
    signals: tuple[ObservationSignal, ...]
    build_delay: float
    rng_seed: int
    done: bool
    clock_minutes: float = 0.0
    paused: bool = False
    # Scenarios scheduled for stages not yet reached (hidden from agents).
    pending_attacks: tuple[AttackScenario, ...] = ()
    # Simulated-minute timestamp at which each scenario went live.
    injection_clock: tuple[tuple[str, float], ...] = ()
    # Whether the run was scheduled with any attack.
    attacked: bool = False


@dataclass(frozen=True)
class Transition:
    next_state: EnvState
    reward: float
    done: bool
    outcome: OutcomeFlags
    mitigated: tuple[AttackScenario, ...] = ()


def unit_draw(*parts) -> float:
    """Deterministic uniform draw in [0, 1) from a label tuple."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


# Probability that a developer accepts each action, by action name.
DEFAULT_ACCEPTANCE = {
    "ALLOW_CONTINUE": 1.0, "BLOCK_BUILD": 1.0, "QUARANTINE_DEPENDENCY": 1.0,
    "REQUEST_REVIEW": 0.9, "REVOKE_CREDENTIALS": 1.0, "PAUSE_BUILD": 1.0,
    "APPLY_CONFIG_PATCH": 0.7, "OPEN_GUARD_PULL_REQUEST": 0.8,
}

# Added build delay per action, simulated minutes, by action name.
DEFAULT_DELAYS = {
    "ALLOW_CONTINUE": 0.0, "BLOCK_BUILD": 2.0, "QUARANTINE_DEPENDENCY": 2.0,
    "REQUEST_REVIEW": 5.0, "REVOKE_CREDENTIALS": 2.0, "PAUSE_BUILD": 2.0,
    "APPLY_CONFIG_PATCH": 2.0, "OPEN_GUARD_PULL_REQUEST": 2.0,
}

# Weak behavioral traces an ongoing attack leaves in the next stage,
# keyed by class then by the echo signal's kind.
DEFAULT_ECHO_TOKENS = {
    VulnerabilityClass.INJECTION: {
        SignalKind.SBOM_ENTRY: "version_pin_drift",
        SignalKind.PIPELINE_LOG: "unexpected_build_subprocess",
        SignalKind.CONFIG_MANIFEST: "unexpected_build_subprocess",
        SignalKind.COMMIT_DIFF: "obfuscated_string_concat",
    },
    VulnerabilityClass.INSECURE_DESERIALIZATION: {
        SignalKind.SBOM_ENTRY: "nested_object_graph",
        SignalKind.PIPELINE_LOG: "artifact_size_anomaly",
        SignalKind.CONFIG_MANIFEST: "artifact_size_anomaly",
        SignalKind.COMMIT_DIFF: "dynamic_attr_loader",
    },
    VulnerabilityClass.BROKEN_ACCESS_CONTROL: {
        SignalKind.PERMISSION_RECORD: "offhours_token_use",
    },
    VulnerabilityClass.MISCONFIGURATION: {
        SignalKind.CONFIG_MANIFEST: "env_override_drift",
    },
}

# Benign noise occasionally emitted on attack-free runs: weak tokens that a
# match-anything scanner flags but a thresholded reasoner ignores.
DEFAULT_DECOYS = [
    (SignalKind.COMMIT_DIFF, "obfuscated_string_concat"),
    (SignalKind.SBOM_ENTRY, "nested_object_graph"),
    (SignalKind.PERMISSION_RECORD, "unused_privilege_grant"),
    (SignalKind.CONFIG_MANIFEST, "implicit_default_config"),
]


# Simulated minutes each decision step takes, before its action's delay.
STEP_MINUTES = 3.0


@dataclass(frozen=True)
class EnvConfig:
    reward: RewardParams = field(default_factory=RewardParams)
    decoy_probability: float = 0.25
    decoys_only_benign: bool = True

    def __post_init__(self):
        if not 0.0 <= self.decoy_probability <= 1.0:
            raise ConfigError("decoy_probability must be in [0, 1]")


_ENV_CONFIG_FIELDS = {"reward": dict, "decoy_probability": float, "decoys_only_benign": bool}
_REWARD_FIELDS = dict.fromkeys(RewardParams.__dataclass_fields__, float)
# Each action's name, indexed by MitigationAction: cheaper per step than `.name`.
_ACTION_NAMES = tuple(a.name for a in MitigationAction)


def env_config_from_dict(obj: dict) -> EnvConfig:
    check_fields(obj, _ENV_CONFIG_FIELDS, "environment config")
    check_fields(obj.get("reward", {}), _REWARD_FIELDS, "reward")
    return EnvConfig(**{**obj, "reward": RewardParams(**obj.get("reward", {}))})


def attack_signal_kind(vuln_class: VulnerabilityClass, stage: PipelineStage) -> SignalKind:
    if vuln_class is VulnerabilityClass.BROKEN_ACCESS_CONTROL:
        return SignalKind.PERMISSION_RECORD
    if vuln_class is VulnerabilityClass.MISCONFIGURATION:
        return SignalKind.CONFIG_MANIFEST
    return STAGE_KIND[stage]


def developer_response(action: MitigationAction, run_seed: int, step: int) -> bool:
    """Seeded pseudo-random developer acceptance draw for an action."""
    name = _ACTION_NAMES[action]
    p = DEFAULT_ACCEPTANCE[name]
    if p >= 1.0:
        return True
    return unit_draw("dev", run_seed, step, name) < p


def observe(state: EnvState, role: AgentRole) -> list[ObservationSignal]:
    """Signals visible to one agent role, with ground-truth labels stripped."""
    return [
        sig.stripped()
        for sig in state.signals
        if KIND_TO_ROLE[sig.kind] is role
    ]


def mitigates(action: MitigationAction, attack: AttackScenario,
              current_stage: PipelineStage, developer_accepted: bool) -> bool:
    """Shipped action-effect table: which action neutralizes which attack."""
    if action in (MitigationAction.BLOCK_BUILD, MitigationAction.PAUSE_BUILD):
        return current_stage < PipelineStage.DEPLOYMENT
    if action is MitigationAction.QUARANTINE_DEPENDENCY:
        return attack.stage is PipelineStage.DEPENDENCY_RESOLUTION
    if action is MitigationAction.APPLY_CONFIG_PATCH:
        return attack.vuln_class is VulnerabilityClass.MISCONFIGURATION
    if action is MitigationAction.REVOKE_CREDENTIALS:
        return attack.vuln_class is VulnerabilityClass.BROKEN_ACCESS_CONTROL
    if action is MitigationAction.OPEN_GUARD_PULL_REQUEST:
        return attack.stage is PipelineStage.SOURCE_MANAGEMENT and developer_accepted
    return False


# Actions whose side effect can be undone by an inverse action.
INVERTIBLE_ACTIONS = {
    MitigationAction.QUARANTINE_DEPENDENCY,
    MitigationAction.PAUSE_BUILD,
    MitigationAction.APPLY_CONFIG_PATCH,
    MitigationAction.REVOKE_CREDENTIALS,
    MitigationAction.OPEN_GUARD_PULL_REQUEST,
}


def rollback_succeeds(pre: EnvState, action: MitigationAction) -> bool:
    """Whether undoing `action`, taken from `pre`, restores `pre`: the action
    must have an inverse, and undoing it unpauses the run, so `pre` must not
    have been paused."""
    return action in INVERTIBLE_ACTIONS and not pre.paused


# The stages and each stage's stage_ok signal, built once and indexed by PipelineStage.
_STAGES = tuple(PipelineStage)
_STAGE_OK = tuple(ObservationSignal(stage, STAGE_KIND[stage], f"stage_ok {stage_name(stage)}")
                  for stage in PipelineStage)


class PipelineEnv:
    """One simulated pipeline environment bound to a configuration."""

    def __init__(self, config: EnvConfig | None = None):
        self.config = config or EnvConfig()

    # -- lifecycle ---------------------------------------------------------

    def reset(self, scenarios: list[AttackScenario], seed: int) -> EnvState:
        run_id = "run-" + hashlib.sha256(
            ("|".join(sorted(s.id for s in scenarios)) + f"|{seed}").encode()
        ).hexdigest()[:16]
        fields = dict(
            run_id=run_id,
            stage=PipelineStage.SOURCE_MANAGEMENT,
            step=0,
            active_attacks=(),
            signals=(),
            build_delay=0.0,
            rng_seed=seed,
            done=False,
            pending_attacks=tuple(scenarios),
            clock_minutes=0.0,
            injection_clock=(),
            attacked=bool(scenarios),
        )
        self._enter_stage(fields, PipelineStage.SOURCE_MANAGEMENT)
        return EnvState(**fields)

    def step(self, state: EnvState, action: MitigationAction) -> Transition:
        """Advance one decision step; pure in (state, action)."""
        if state.done:
            raise ContractViolation("step() called on a finished run")

        accepted = developer_response(action, state.rng_seed, state.step)
        delay_inc = DEFAULT_DELAYS[_ACTION_NAMES[action]]
        mitigated = tuple(a for a in state.active_attacks
                          if mitigates(action, a, state.stage, accepted))
        outcome = OutcomeFlags(
            attack_mitigated=bool(mitigated),
            false_positive=action is not MitigationAction.ALLOW_CONTINUE
            and not state.active_attacks,
            developer_accepted=accepted,
            build_delay=delay_inc,
        )
        reward = compute_reward(outcome, self.config.reward)

        # Each stage is one decision: a run ends on a block or after the last
        # stage, and otherwise enters the next stage.
        done = (action is MitigationAction.BLOCK_BUILD
                or state.stage is PipelineStage.DEPLOYMENT)

        fields = {
            **state.__dict__,
            "step": state.step + 1,
            "build_delay": state.build_delay + delay_inc,
            "clock_minutes": state.clock_minutes + STEP_MINUTES + delay_inc,
            "paused": action is MitigationAction.PAUSE_BUILD,
            "done": done,
        }
        if mitigated:
            cleared = {a.id for a in mitigated}
            fields["active_attacks"] = tuple(a for a in state.active_attacks
                                             if a.id not in cleared)
            fields["signals"] = tuple(s for s in state.signals if s.origin_attack not in cleared)
        if not done:
            self._enter_stage(fields, _STAGES[state.stage + 1])
        # Skip the frozen __init__'s per-field __setattr__; EnvState has no __post_init__.
        nxt = object.__new__(EnvState)
        nxt.__dict__.update(fields)
        return Transition(nxt, reward, done, outcome, mitigated)

    def pause(self, state: EnvState) -> EnvState:
        """Freeze a run in place, paying the pause delay; stage is unchanged."""
        if state.done:
            raise ContractViolation("cannot pause a finished run")
        if state.paused:
            raise ContractViolation("run is already paused")
        cost = DEFAULT_DELAYS[MitigationAction.PAUSE_BUILD.name]
        return replace(
            state,
            paused=True,
            build_delay=state.build_delay + cost,
            clock_minutes=state.clock_minutes + cost,
        )

    def resume(self, state: EnvState) -> EnvState:
        if not state.paused:
            raise ContractViolation("run is not paused")
        return replace(state, paused=False)

    # -- internals -----------------------------------------------------------

    def _enter_stage(self, fields: dict, stage: PipelineStage) -> None:
        """Enter `stage` in a state's field dict: inject its scenarios, emit its signals."""
        seed = fields["rng_seed"]
        injected = tuple(s for s in fields["pending_attacks"] if s.stage is stage)
        new_signals = [
            _STAGE_OK[stage],
            *(ObservationSignal(stage, attack_signal_kind(s.vuln_class, stage),
                                " ".join(s.payload), origin_attack=s.id)
              for s in injected),
        ]
        # Persisting semantic attacks leave one weak trace in the next stage.
        for a in fields["active_attacks"]:
            if a.semantic_detectable and stage == a.stage + 1:
                kind = attack_signal_kind(a.vuln_class, stage)
                token = DEFAULT_ECHO_TOKENS[a.vuln_class].get(kind)
                if token:
                    new_signals.append(ObservationSignal(stage, kind, token, origin_attack=a.id))
        if (not fields["attacked"] or not self.config.decoys_only_benign) \
                and unit_draw("decoy", seed, int(stage)) < self.config.decoy_probability:
            idx = int(unit_draw("decoy-pick", seed, int(stage)) * len(DEFAULT_DECOYS))
            kind, token = DEFAULT_DECOYS[min(idx, len(DEFAULT_DECOYS) - 1)]
            new_signals.append(ObservationSignal(stage, kind, token))
        fields["stage"] = stage
        fields["signals"] += tuple(new_signals)
        if injected:
            fields["active_attacks"] += injected
            fields["pending_attacks"] = tuple(s for s in fields["pending_attacks"]
                                              if s.stage is not stage)
            fields["injection_clock"] += tuple((s.id, fields["clock_minutes"])
                                               for s in injected)
