import hashlib
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from mdp_corpus import chain_mdp, corpus, gridworld_mdp, toy_compromise_mdp
from pipeguard.agents import BENIGN_ASSESSMENT, Assessment
from pipeguard.cli import main
from pipeguard.evaluation import train_mitigation_policy
from pipeguard.env import ConfigError, MitigationAction, PipelineEnv, VulnerabilityClass
from pipeguard.learning import (
    ENCODING_VERSION,
    ENTROPY_COEFF_END,
    ENTROPY_COEFF_START,
    EPSILON_END,
    EPSILON_START,
    MDPEnv,
    MDPSpec,
    N_STATES,
    Policy,
    TrainConfig,
    action_values,
    encode_state,
    linear_schedule,
    load_policy,
    optimal_reachable_states,
    ppo_objective_and_grad,
    save_policy,
    severity_bucket,
    softmax,
    train,
    train_dqn,
    train_ppo,
    value_iteration,
)


class TestEncoding:
    def test_space_size(self):
        assert N_STATES == 5 * 5 * 3 * 4 == 300

    def test_encoding_is_injective_over_feature_tuples(self):
        env = PipelineEnv()
        state = env.reset([], 0)
        seen = {}
        for stage_val in range(5):
            st = state
            for _ in range(stage_val):
                st = env.step(st, MitigationAction.ALLOW_CONTINUE).next_state
            for verdict in [None, *VulnerabilityClass]:
                for sev in (0.1, 0.5, 0.9):
                    for prior in range(4):
                        if verdict is None:
                            assessment = BENIGN_ASSESSMENT
                            if sev != 0.1 or prior > 3:
                                continue
                            key = (stage_val, None, severity_bucket(0.0), prior)
                        else:
                            assessment = Assessment(
                                verdict=verdict, severity=sev, rationale="r")
                            key = (stage_val, verdict, severity_bucket(sev), prior)
                        sid = encode_state(st, assessment, prior)
                        assert 0 <= sid < N_STATES
                        if key in seen:
                            assert seen[key] == sid
                        else:
                            assert sid not in set(seen.values())
                            seen[key] = sid

    def test_severity_buckets(self):
        assert severity_bucket(0.0) == 0
        assert severity_bucket(0.34) == 1
        assert severity_bucket(0.67) == 2
        assert severity_bucket(1.0) == 2

    def test_prior_alert_clamp(self):
        env = PipelineEnv()
        state = env.reset([], 0)
        assert encode_state(state, BENIGN_ASSESSMENT, 99) == \
            encode_state(state, BENIGN_ASSESSMENT, 3)


class TestMDP:
    def test_row_sum_validation(self):
        P = np.zeros((2, 1, 2))
        P[0, 0, 0] = 0.5  # does not sum to 1
        P[1, 0, 1] = 1.0
        with pytest.raises(ConfigError, match="sum to 1"):
            MDPSpec(["a", "b"], ["x"], P, np.zeros((2, 1)), gamma=0.9)

    @pytest.mark.parametrize("where", ["transitions", "start"])
    def test_negative_probabilities_rejected(self, where):
        P = np.zeros((2, 1, 2))
        P[:, 0, 1] = 1.0
        start = np.array([1.0, 0.0])
        # Each row still sums to 1.
        if where == "transitions":
            P[0, 0] = [1.5, -0.5]
        else:
            start = np.array([1.5, -0.5])
        with pytest.raises(ConfigError, match="must be >= 0"):
            MDPSpec(["a", "b"], ["x"], P, np.zeros((2, 1)), gamma=0.9, start=start)

    @pytest.mark.parametrize("name,mdp", corpus())
    def test_env_draws_equal_generator_choice(self, name, mdp):
        env = MDPEnv(mdp)
        n = len(mdp.states)
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        actions = np.random.default_rng(4)
        for _ in range(50):
            s = env.reset(ours)
            assert s == int(theirs.choice(n, p=mdp.start))
            for _ in range(40):
                a = int(actions.integers(len(mdp.actions)))
                nxt, reward, done = env.step(a)
                assert nxt == int(theirs.choice(n, p=mdp.transitions[s, a]))
                assert reward == mdp.rewards[s, a]
                assert done == (nxt in mdp.terminal)
                s = nxt
                if done:
                    break

    def test_gamma_bounds(self):
        P = np.ones((1, 1, 1))
        with pytest.raises(ConfigError):
            MDPSpec(["a"], ["x"], P, np.zeros((1, 1)), gamma=1.0)

    def test_value_iteration_toy_oracle(self):
        """Hand-solved fixed point of the 2-state toy MDP.

        V(comp) = 1 (block, terminal). V(clean) solves
        V = max(0 + g(0.7 V + 0.3 * 1), -0.5 + g V) => allow branch:
        V = 0.3 g / (1 - 0.7 g).
        """
        mdp = toy_compromise_mdp()
        g = mdp.gamma
        expected_clean = 0.3 * g / (1.0 - 0.7 * g)
        result = value_iteration(mdp, tolerance=1e-12)
        assert result.values[1] == pytest.approx(1.0, abs=1e-9)
        assert result.values[0] == pytest.approx(expected_clean, abs=1e-9)
        assert list(result.policy[:2]) == [0, 1]  # allow on clean, block on comp
        residual = action_values(mdp, result.values).max(axis=1) - result.values
        assert np.max(np.abs(residual)) < 1e-9

    def test_terminal_states_have_zero_value(self):
        mdp = toy_compromise_mdp()
        result = value_iteration(mdp)
        assert result.values[2] == 0.0

    def test_reachability(self):
        mdp = chain_mdp(4)
        result = value_iteration(mdp)
        reach = optimal_reachable_states(mdp, result.policy)
        assert reach == set(range(5))


class TestPolicy:
    def make_policy(self, kind="tabular-greedy"):
        params = np.array([[0.1, 0.9, 0.2], [0.5, 0.5, 0.1]])
        return Policy(kind=kind, params=params, actions=("a", "b", "c"))

    def test_greedy_first_max_tie_break(self):
        p = self.make_policy()
        assert p.greedy(0) == 1
        assert p.greedy(1) == 0

    def test_out_of_range_state(self):
        with pytest.raises(ConfigError):
            self.make_policy().greedy(5)

    def test_save_load_round_trip(self, tmp_path):
        p = self.make_policy()
        path = tmp_path / "policy.json"
        save_policy(p, str(path))
        loaded = load_policy(str(path))
        assert loaded.kind == p.kind
        assert loaded.actions == p.actions
        assert json.loads(path.read_text())["encoding_version"] == ENCODING_VERSION
        np.testing.assert_array_equal(loaded.params, p.params)
        # identical bytes on re-save
        path2 = tmp_path / "again.json"
        save_policy(loaded, str(path2))
        assert path.read_bytes() == path2.read_bytes()


def policy_doc(**fields):
    doc = {"kind": "tabular-greedy", "encoding_version": ENCODING_VERSION,
           "actions": ["a", "b"], "seed": 0, "epsilon": 0.05,
           "params": [[0.0, 1.0], [2.0, 3.0]]}
    doc.update(fields)
    return doc


class TestLoadPolicy:
    def test_accepts_any_action_count(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(policy_doc()))
        assert load_policy(str(path)).params.shape == (2, 2)

    @pytest.mark.parametrize("doc, message", [
        ({k: v for k, v in policy_doc().items() if k != "seed"},
         "missing policy fields: ['seed']"),
        (policy_doc(encoding_version=2), "encoding_version must be 1"),
        (policy_doc(params=[[0.0, 1.0], [2.0]]), "one value per action"),
        (policy_doc(params=[[0.0, 1.0, 2.0]] * 2), "one value per action"),
        (policy_doc(params=[[0.0, float("inf")]]), "must be a finite number"),
        (policy_doc(kind="lookup"), "policy field kind must be one of"),
    ])
    def test_rejects(self, tmp_path, doc, message):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_policy(str(path))


class TestTrainConfig:
    @pytest.mark.parametrize("algorithm", ["DQN", "PPO"])
    def test_train_command_defaults_to_train_config(self, suite, tmp_path, algorithm):
        out = tmp_path / "policy.json"
        result = CliRunner().invoke(main, ["train", "--algorithm", algorithm, "--episodes",
                                           "40", "--seed", "5", "--out", str(out)])
        assert result.exit_code == 0, result.output
        expected = train_mitigation_policy(
            suite, TrainConfig(algorithm=algorithm, episodes=40, seed=5))
        assert load_policy(str(out)).params.tolist() == expected.params.tolist()

    def test_train_flags_default_to_train_config(self):
        flags = {p.name: p.default for p in main.commands["train"].params}
        for name in ("algorithm", "episodes", "learning_rate", "seed"):
            assert flags[name] == getattr(TrainConfig(), name)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            TrainConfig(algorithm="SAC")

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"algorithm": "DQN", "optimizer": "adam"})

    def test_every_field_can_be_set_from_a_dict(self):
        doc = {name: getattr(TrainConfig(), name)
               for name in TrainConfig.__dataclass_fields__}
        assert TrainConfig.from_dict(doc) == TrainConfig()

    @pytest.mark.parametrize("doc", [
        {"episodes": True}, {"learning_rate": "0.1"}, {"learning_rate": None},
        {"gamma": 1}, {"seed": 1.0}, {"seed": -1}, {"batch_size": 0},
        {"max_episode_steps": 0}, {"learning_rate": 0}, {"learning_rate": -0.1},
        {"clip_epsilon": 0}, {"clip_epsilon": 1.0}, {"epsilon_start": -0.1},
        {"epsilon_end": 2}, {"ppo_epochs": 0}, {"entropy_coeff_start": -1e-3},
        {"entropy_coeff_end": -1},
    ])
    def test_from_dict_rejects(self, doc):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict(doc)

    def test_linear_schedule_endpoints(self):
        # PPO's entropy coefficient and DQN's epsilon share one schedule.
        for start, end in ((ENTROPY_COEFF_START, ENTROPY_COEFF_END),
                           (EPSILON_START, EPSILON_END)):
            assert linear_schedule(start, end, 0, 100) == pytest.approx(start)
            assert linear_schedule(start, end, 99, 100) == pytest.approx(end)
            for episodes in (0, 1):
                assert linear_schedule(start, end, 0, episodes) == start


class TestTraining:
    def test_dqn_learns_toy_mdp(self):
        mdp = toy_compromise_mdp()
        cfg = TrainConfig(algorithm="DQN", learning_rate=0.2, episodes=800,
                          gamma=mdp.gamma, seed=3, max_episode_steps=50)
        policy = train_dqn(MDPEnv(mdp), cfg)
        assert policy.greedy(0) == 0
        assert policy.greedy(1) == 1

    def test_ppo_learns_toy_mdp(self):
        mdp = toy_compromise_mdp()
        cfg = TrainConfig(algorithm="PPO", learning_rate=0.5, episodes=800,
                          gamma=mdp.gamma, seed=3, max_episode_steps=50)
        policy = train_ppo(MDPEnv(mdp), cfg)
        assert policy.kind == "linear-softmax"
        assert policy.greedy(0) == 0
        assert policy.greedy(1) == 1

    def test_training_is_deterministic(self):
        mdp = toy_compromise_mdp()
        cfg = TrainConfig(algorithm="DQN", learning_rate=0.2, episodes=100,
                          gamma=mdp.gamma, seed=3)
        p1 = train(MDPEnv(mdp), cfg)
        p2 = train(MDPEnv(mdp), cfg)
        np.testing.assert_array_equal(p1.params, p2.params)

    # sha256 of the params each learner returns on one corpus MDP, which
    # checks the learners' arithmetic and tie-breaks bit for bit apart from
    # the pipeline env.
    PARAMS_SHA256 = {
        "DQN": "4c7ff0b50a3d6dcb1af4b98eaa29ab3661fe51a3abe6397804b044ff3dbda677",
        "PPO": "41cff7b3ac00e087a2fef7c9e27cccbb2459458e41f7d4b7c74e63a96842def0",
    }

    @pytest.mark.parametrize("algorithm", sorted(PARAMS_SHA256))
    def test_learned_params_are_pinned(self, algorithm):
        mdp = gridworld_mdp(3)
        cfg = TrainConfig(algorithm=algorithm, learning_rate=0.3, episodes=300,
                          gamma=mdp.gamma, seed=7, max_episode_steps=50)
        params = train(MDPEnv(mdp), cfg).params
        assert params.dtype == np.float64 and params.shape == (9, 4)
        assert hashlib.sha256(params.tobytes()).hexdigest() == self.PARAMS_SHA256[algorithm]

    def test_zero_episodes_yields_neutral_policy(self):
        mdp = toy_compromise_mdp()
        cfg = TrainConfig(algorithm="DQN", episodes=0, gamma=mdp.gamma)
        policy = train(MDPEnv(mdp), cfg)
        assert np.all(policy.params == 0.0)
        assert policy.greedy(0) == 0


def ppo_objective_and_grad_loop(theta, states, actions, advantages, old_logp,
                                clip_epsilon, entropy_coeff):
    """Per-sample reference for ppo_objective_and_grad."""
    n = len(states)
    grad = np.zeros_like(theta)
    total = 0.0
    for t in range(n):
        s, a = int(states[t]), int(actions[t])
        adv = float(advantages[t])
        probs = softmax(theta[s])
        with np.errstate(divide="ignore"):
            logp = float(np.log(probs[a]))
        ratio = float(np.exp(logp - old_logp[t]))
        clipped = min(max(ratio, 1.0 - clip_epsilon), 1.0 + clip_epsilon)
        total += min(ratio * adv, clipped * adv)
        unclipped_active = (ratio <= 1.0 + clip_epsilon) if adv >= 0 \
            else (ratio >= 1.0 - clip_epsilon)
        if unclipped_active:
            dlogp = -probs
            dlogp[a] += 1.0
            grad[s] += adv * ratio * dlogp
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(probs > 0, np.log(probs), 0.0)
        entropy = float(-(probs * logs).sum())
        total += entropy_coeff * entropy
        grad[s] += entropy_coeff * (-probs * (logs + entropy))
    return total / n, grad / n


class TestPPOGradient:
    def _random_batch(self, rng, n_states=4, n_actions=3, n=6):
        theta = rng.normal(size=(n_states, n_actions))
        states = rng.integers(n_states, size=n)
        actions = rng.integers(n_actions, size=n)
        advantages = rng.normal(size=n)
        logp = np.array([
            np.log(softmax(theta[s])[a]) for s, a in zip(states, actions)
        ])
        old_logp = logp + rng.normal(scale=0.05, size=n)
        return theta, states, actions, advantages, old_logp

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-5
        theta, states, actions, adv, old_logp = self._random_batch(rng)
        obj, grad = ppo_objective_and_grad(theta, states, actions, adv,
                                           old_logp, 0.2, 0.01)
        fd = np.zeros_like(theta)
        for i in range(theta.shape[0]):
            for j in range(theta.shape[1]):
                up, down = theta.copy(), theta.copy()
                up[i, j] += h
                down[i, j] -= h
                o_up, _ = ppo_objective_and_grad(up, states, actions, adv,
                                                 old_logp, 0.2, 0.01)
                o_dn, _ = ppo_objective_and_grad(down, states, actions, adv,
                                                 old_logp, 0.2, 0.01)
                fd[i, j] = (o_up - o_dn) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    def test_clipped_ratio_contributes_no_gradient(self):
        # One sample whose ratio is far above 1 + eps with positive advantage:
        # the surrogate is clipped, so the policy-gradient term vanishes.
        theta = np.zeros((1, 2))
        states = np.array([0])
        actions = np.array([0])
        adv = np.array([1.0])
        old_logp = np.array([np.log(0.5) - 1.0])  # ratio = e > 1.2
        _, grad = ppo_objective_and_grad(theta, states, actions, adv,
                                         old_logp, 0.2, 0.0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_objective_value_hand_computed(self):
        theta = np.zeros((1, 2))  # uniform policy, probs 0.5
        states, actions = np.array([0]), np.array([0])
        adv = np.array([2.0])
        old_logp = np.array([np.log(0.5)])
        obj, _ = ppo_objective_and_grad(theta, states, actions, adv,
                                        old_logp, 0.2, 0.0)
        assert obj == pytest.approx(2.0)  # ratio 1, unclipped


    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_per_sample_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_states, n_actions, n = 5, 4, 40
        theta = rng.normal(scale=2.0, size=(n_states, n_actions))
        # Row 0's last action has probability exactly 0.
        theta[0, -1] = -1e4
        states = rng.integers(n_states, size=n)  # repeats every state
        actions = rng.integers(n_actions - 1, size=n)
        advantages = rng.normal(size=n)  # both signs
        logp = np.log(softmax(theta)[states, actions])
        # Ratios spread across both sides of [1 - eps, 1 + eps].
        old_logp = logp + rng.normal(scale=0.4, size=n)
        ratios = np.exp(logp - old_logp)
        assert (advantages > 0).any() and (advantages < 0).any()
        assert (ratios > 1.2).any() and (ratios < 0.8).any()
        assert ((ratios > 0.8) & (ratios < 1.2)).any()
        got = ppo_objective_and_grad(theta, states, actions, advantages,
                                     old_logp, 0.2, 0.05)
        want = ppo_objective_and_grad_loop(theta, states, actions, advantages,
                                           old_logp, 0.2, 0.05)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12)


class TestPPORollout:
    def test_row_cdf_draws_equal_generator_choice(self):
        theta = np.random.default_rng(5).normal(scale=3.0, size=(30, 8))
        theta[3, 2] = -1e4  # a zero-probability action
        probs = softmax(theta)
        cdf = probs.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        for s in list(range(30)) * 40:
            a = int(cdf[s].searchsorted(ours.random(), side="right"))
            assert a == int(theirs.choice(8, p=probs[s]))

    def test_table_rows_equal_row_softmax(self):
        theta = np.random.default_rng(6).normal(scale=3.0, size=(300, 8))
        rows = softmax(theta)
        for s in range(300):
            np.testing.assert_array_equal(rows[s], softmax(theta[s]))


class TestOracleCorpus:
    @pytest.mark.parametrize("name,mdp", corpus())
    def test_residual_zero_at_fixed_point(self, name, mdp):
        result = value_iteration(mdp, tolerance=1e-12)
        residual = action_values(mdp, result.values).max(axis=1) - result.values
        assert np.max(np.abs(residual)) < 1e-9
