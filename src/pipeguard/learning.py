"""Mitigation-policy learning: finite MDPs, a value-iteration oracle,
tabular Q-learning and a clipped-surrogate softmax policy learner.

Both learners work over discrete state ids. The pipeline state encoder maps
(stage, fused verdict, severity bucket, prior alert count) into a 300-state
space so exact oracles stay tractable.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, fields
from typing import Optional, Protocol

import numpy as np

from .env import ConfigError, EnvState, PipelineStage, check_fields, load_json
from .agents import Assessment, VulnerabilityClass

ENCODING_VERSION = 1

N_STAGES = len(PipelineStage)
N_CLASS_OPTIONS = len(VulnerabilityClass) + 1  # benign + each class
N_SEVERITY_BUCKETS = 3
N_PRIOR_ALERTS = 4
N_STATES = N_STAGES * N_CLASS_OPTIONS * N_SEVERITY_BUCKETS * N_PRIOR_ALERTS

_CLASS_INDEX = {vc: i + 1 for i, vc in enumerate(VulnerabilityClass)}


def severity_bucket(severity: float) -> int:
    if severity < 1.0 / 3.0:
        return 0
    if severity < 2.0 / 3.0:
        return 1
    return 2


def encode_state(state: EnvState, assessment: Assessment,
                 prior_alerts: int = 0) -> int:
    """Deterministic feature-tuple index into the 300-state space."""
    class_opt = 0 if assessment.verdict is None else _CLASS_INDEX[assessment.verdict]
    bucket = severity_bucket(assessment.severity)
    prior = min(max(prior_alerts, 0), N_PRIOR_ALERTS - 1)
    return ((state.stage.value * N_CLASS_OPTIONS + class_opt)
            * N_SEVERITY_BUCKETS + bucket) * N_PRIOR_ALERTS + prior


# -- finite MDPs ---------------------------------------------------------------


@dataclass
class MDPSpec:
    """Finite MDP (states, actions, transition tensor, reward table, gamma)."""

    states: list[str]
    actions: list[str]
    transitions: np.ndarray       # [S, A, S], rows sum to 1
    rewards: np.ndarray           # [S, A]
    gamma: float
    terminal: frozenset[int] = frozenset()
    start: Optional[np.ndarray] = None  # distribution over states

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=float)
        self.rewards = np.asarray(self.rewards, dtype=float)
        if self.start is None:
            self.start = np.zeros(len(self.states))
            self.start[0] = 1.0
        else:
            self.start = np.asarray(self.start, dtype=float)
        n_s, n_a = len(self.states), len(self.actions)
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigError("gamma must be in [0, 1)")
        if self.transitions.shape != (n_s, n_a, n_s):
            raise ConfigError("transition tensor shape mismatch")
        if self.rewards.shape != (n_s, n_a):
            raise ConfigError("reward table shape mismatch")
        if (self.transitions < 0).any() or (self.start < 0).any():
            raise ConfigError("transition and start probabilities must be >= 0")
        sums = self.transitions.sum(axis=2)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ConfigError("transition rows must sum to 1")
        if not np.isclose(self.start.sum(), 1.0, atol=1e-9):
            raise ConfigError("start distribution must sum to 1")


@dataclass
class ValueIterationResult:
    values: np.ndarray
    policy: np.ndarray  # greedy action index per state


def action_values(mdp: MDPSpec, values: np.ndarray) -> np.ndarray:
    """Q(s,a) = R(s,a) + gamma * sum_s' P(s'|s,a) V(s')."""
    q = mdp.rewards + mdp.gamma * np.einsum("ijk,k->ij", mdp.transitions, values)
    if mdp.terminal:
        q[list(mdp.terminal), :] = 0.0
    return q


def value_iteration(mdp: MDPSpec, tolerance: float = 1e-9) -> ValueIterationResult:
    values = np.zeros(len(mdp.states))
    while True:
        q = action_values(mdp, values)
        new_values = q.max(axis=1)
        if np.max(np.abs(new_values - values)) < tolerance:
            values = new_values
            break
        values = new_values
    policy = action_values(mdp, values).argmax(axis=1)
    return ValueIterationResult(values, policy)


def optimal_reachable_states(mdp: MDPSpec, policy: np.ndarray) -> set[int]:
    """States reachable from the start distribution when following `policy`."""
    frontier = [int(s) for s in np.flatnonzero(mdp.start > 0)]
    seen = set(frontier)
    while frontier:
        s = frontier.pop()
        if s in mdp.terminal:
            continue
        for nxt in np.flatnonzero(mdp.transitions[s, policy[s]] > 0):
            if int(nxt) not in seen:
                seen.add(int(nxt))
                frontier.append(int(nxt))
    return seen


# -- policies ------------------------------------------------------------------

# The learners' exploration and update settings. Each start/end pair is a
# linear_schedule from the first episode to the last.
EPSILON_START, EPSILON_END = 1.0, 0.05                  # DQN's exploration rate
ENTROPY_COEFF_START, ENTROPY_COEFF_END = 0.01, 0.0      # PPO's entropy bonus
CLIP_EPSILON = 0.2                                      # PPO's ratio clip
BATCH_SIZE = 8                                          # PPO episodes per update
PPO_EPOCHS = 4                                          # PPO gradient steps per batch


@dataclass
class Policy:
    kind: str                    # "tabular-greedy" | "linear-softmax"
    params: np.ndarray           # [S, A]: Q values or logits
    actions: tuple[str, ...]
    seed: int = 0

    def greedy(self, state_id: int) -> int:
        self._check(state_id)
        row = self.params[state_id]
        return int(np.argmax(row))  # argmax takes the first maximum: fixed tie-break

    def _check(self, state_id: int) -> None:
        if not (0 <= state_id < self.params.shape[0]):
            raise ConfigError(f"state id {state_id} out of range")


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: each row of a table is normalized on its own."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def save_policy(policy: Policy, path: str) -> None:
    doc = {
        "kind": policy.kind,
        "encoding_version": ENCODING_VERSION,
        "actions": list(policy.actions),
        "seed": policy.seed,
        "epsilon": EPSILON_END,  # kept in the file format; nothing reads it back
        "params": [[float(v) for v in row] for row in policy.params],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=False)
        fh.write("\n")


_POLICY_FIELDS = {"kind": {"tabular-greedy", "linear-softmax"}, "encoding_version": int,
                  "actions": [str], "seed": int, "epsilon": float, "params": [[float]]}


def load_policy(path: str) -> Policy:
    doc = load_json(path)
    check_fields(doc, _POLICY_FIELDS, "policy", required=_POLICY_FIELDS)
    if doc["encoding_version"] != ENCODING_VERSION:
        raise ConfigError(f"policy encoding_version must be {ENCODING_VERSION}")
    if any(len(row) != len(doc["actions"]) for row in doc["params"]):
        raise ConfigError("each policy params row must hold one value per action")
    return Policy(
        kind=doc["kind"],
        params=np.array(doc["params"], dtype=float),
        actions=tuple(doc["actions"]),
        seed=doc["seed"],
    )


# -- training ------------------------------------------------------------------


@dataclass
class TrainConfig:
    algorithm: str = "DQN"            # "DQN" | "PPO"
    learning_rate: float = 0.3
    gamma: float = 0.99
    episodes: int = 3000
    seed: int = 0
    max_episode_steps: int = 200

    def __post_init__(self):
        if self.algorithm not in ("DQN", "PPO"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigError("gamma must be in [0, 1)")
        if self.episodes < 0:
            raise ConfigError("episodes must be >= 0")
        if self.seed < 0 or self.max_episode_steps < 1:
            raise ConfigError("seed must be >= 0 and max_episode_steps >= 1")
        if not 0.0 < self.learning_rate < math.inf:  # false for NaN too
            raise ConfigError("learning_rate must be > 0 and finite")

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        # Each field takes its default's kind.
        spec = {f.name: type(f.default) for f in fields(cls)}
        check_fields(obj, spec, "training config")
        return cls(**obj)


def linear_schedule(start: float, end: float, episode: int, episodes: int) -> float:
    """Linear decay from `start` at episode 0 to `end` at episode `episodes - 1`;
    DQN's epsilon and PPO's entropy coefficient both follow it."""
    if episodes <= 1:
        return start
    frac = min(max(episode / (episodes - 1), 0.0), 1.0)
    return start + frac * (end - start)


class EpisodicEnv(Protocol):
    n_states: int
    n_actions: int
    action_labels: tuple[str, ...]

    def reset(self, rng: np.random.Generator) -> int: ...
    def step(self, action: int) -> tuple[int, float, bool]: ...


def _row_cdf(p: np.ndarray) -> np.ndarray:
    """Rows cumulated and normalized by their last element: searching one with
    rng.random() draws what Generator.choice(n, p=row) draws."""
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


class MDPEnv:
    """Episodic adapter over a finite MDPSpec.

    Rewards and CDF rows are held as Python lists: bisect_right on a row is
    searchsorted(side="right"), without numpy's per-call cost on every step.
    """

    def __init__(self, mdp: MDPSpec):
        self.mdp = mdp
        self.n_states = len(mdp.states)
        self.n_actions = len(mdp.actions)
        self.action_labels = tuple(mdp.actions)
        self._start_cdf = _row_cdf(mdp.start).tolist()
        self._transition_cdf = _row_cdf(mdp.transitions).tolist()
        self._rewards = mdp.rewards.tolist()
        self._state = 0
        self._rng: Optional[np.random.Generator] = None

    def reset(self, rng: np.random.Generator) -> int:
        self._rng = rng
        self._state = bisect.bisect_right(self._start_cdf, rng.random())
        return self._state

    def step(self, action: int) -> tuple[int, float, bool]:
        s = self._state
        nxt = bisect.bisect_right(self._transition_cdf[s][action], self._rng.random())
        self._state = nxt
        return nxt, self._rewards[s][action], nxt in self.mdp.terminal


def train_dqn(env: EpisodicEnv, config: TrainConfig) -> Policy:
    """Tabular Q-learning with epsilon-greedy exploration (linear decay).
    Consumes `env`, whose episodes go on from where it stands: pass a fresh one."""
    rng = np.random.default_rng(config.seed)
    # Python float rows: the same IEEE arithmetic as an array, without numpy's
    # per-element call cost; row.index(max(row)) is np.argmax's first maximum.
    q = [[0.0] * env.n_actions for _ in range(env.n_states)]
    for ep in range(config.episodes):
        eps = linear_schedule(EPSILON_START, EPSILON_END, ep, config.episodes)
        s = env.reset(rng)
        for _ in range(config.max_episode_steps):
            row = q[s]
            if rng.random() < eps:
                a = int(rng.integers(env.n_actions))
            else:
                a = row.index(max(row))
            nxt, r, done = env.step(a)
            target = r if done else r + config.gamma * max(q[nxt])
            row[a] += config.learning_rate * (target - row[a])
            s = nxt
            if done:
                break
    return Policy(kind="tabular-greedy", params=np.array(q), actions=env.action_labels,
                  seed=config.seed)


def ppo_objective_and_grad(
    theta: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    old_logp: np.ndarray,
    clip_epsilon: float,
    entropy_weight: float,
) -> tuple[float, np.ndarray]:
    """Clipped surrogate objective plus entropy bonus, with its closed-form
    gradient for a softmax policy parameterized by a per-state logit table.

    Returns (objective, d objective / d theta); the objective is maximized.
    """
    n = len(states)
    rows = np.arange(n)
    probs = softmax(theta[states])
    with np.errstate(divide="ignore"):
        logp = np.log(probs[rows, actions])
    ratio = np.exp(logp - old_logp)
    clipped = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon)
    surrogate = np.minimum(ratio * advantages, clipped * advantages)
    # The unclipped branch is active exactly when moving the ratio further
    # in the advantage's direction is still allowed.
    unclipped_active = np.where(advantages >= 0, ratio <= 1.0 + clip_epsilon,
                                ratio >= 1.0 - clip_epsilon)
    dlogp = -probs
    dlogp[rows, actions] += 1.0
    # Entropy bonus.
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(probs > 0, np.log(probs), 0.0)
    entropy = -(probs * logs).sum(axis=1)
    sample_grad = (np.where(unclipped_active, advantages * ratio, 0.0)[:, None] * dlogp
                   + entropy_weight * (-probs * (logs + entropy[:, None])))
    grad = np.zeros_like(theta)
    np.add.at(grad, states, sample_grad)
    total = float(surrogate.sum() + entropy_weight * entropy.sum())
    return total / n, grad / n


def train_ppo(env: EpisodicEnv, config: TrainConfig) -> Policy:
    """Linear-softmax policy trained with the clipped surrogate objective.

    Advantages are per-step discounted returns minus a running per-state
    baseline; gradients are computed in closed form. Training consumes `env`,
    as in `train_dqn`.
    """
    rng = np.random.default_rng(config.seed)
    theta = np.zeros((env.n_states, env.n_actions))
    baseline = np.zeros(env.n_states)
    baseline_count = np.zeros(env.n_states)
    episodes_done = 0
    while episodes_done < config.episodes:
        batch = min(BATCH_SIZE, config.episodes - episodes_done)
        # theta is fixed while a batch is rolled out.
        probs = softmax(theta)
        cdf = _row_cdf(probs)
        states, actions, returns = [], [], []
        for _ in range(batch):
            s = env.reset(rng)
            ep_states, ep_actions, ep_rewards = [], [], []
            for _ in range(config.max_episode_steps):
                a = int(cdf[s].searchsorted(rng.random(), side="right"))
                nxt, r, done = env.step(a)
                ep_states.append(s)
                ep_actions.append(a)
                ep_rewards.append(r)
                s = nxt
                if done:
                    break
            g = 0.0
            ep_returns = [0.0] * len(ep_rewards)
            for i in range(len(ep_rewards) - 1, -1, -1):
                g = ep_rewards[i] + config.gamma * g
                ep_returns[i] = g
            states.extend(ep_states)
            actions.extend(ep_actions)
            returns.extend(ep_returns)
        states_a = np.array(states, dtype=int)
        actions_a = np.array(actions, dtype=int)
        returns_a = np.array(returns, dtype=float)
        advantages = returns_a - baseline[states_a]
        for s, g in zip(states_a, returns_a):
            baseline_count[s] += 1
            baseline[s] += (g - baseline[s]) / baseline_count[s]
        old_logp = np.log(probs[states_a, actions_a])
        coeff = linear_schedule(ENTROPY_COEFF_START, ENTROPY_COEFF_END,
                                episodes_done, config.episodes)
        for _ in range(PPO_EPOCHS):
            _, grad = ppo_objective_and_grad(
                theta, states_a, actions_a, advantages, old_logp, CLIP_EPSILON, coeff,
            )
            theta = theta + config.learning_rate * grad
        episodes_done += batch
    return Policy(kind="linear-softmax", params=theta, actions=env.action_labels,
                  seed=config.seed)


def train(env: EpisodicEnv, config: TrainConfig) -> Policy:
    """Train `config.algorithm` against `env`, which the call consumes."""
    if config.algorithm == "PPO":
        return train_ppo(env, config)
    return train_dqn(env, config)
