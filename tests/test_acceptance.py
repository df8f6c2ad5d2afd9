"""Acceptance suite: twelve numbered criteria, one printed pass/fail line each.

Run order matters only for readability; every criterion is independent and
uses its own seeds.
"""

import hashlib
import itertools
import time

import numpy as np
import pytest
from click.testing import CliRunner

from mdp_corpus import corpus
from pipeguard import evaluation, ledger as ledger_mod, learning
from pipeguard.cli import main as cli_main
from pipeguard.env import OutcomeFlags, RewardParams, compute_reward
from pipeguard.evaluation import BaselineKind, ExperimentOptions, run_experiment
from pipeguard.learning import (
    MDPEnv,
    TrainConfig,
    optimal_reachable_states,
    ppo_objective_and_grad,
    softmax,
    train,
    value_iteration,
)
from pipeguard.protocol import decode_message, encode_message, route_request
from test_protocol import GOLDEN_FRAMES, fresh_connector


@pytest.fixture()
def announce(capsys):
    def _announce(number: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"ACCEPTANCE {number:2d}: {status} - {detail}")
        assert ok, f"criterion {number}: {detail}"
    return _announce


def test_criterion_01_reward_formula(announce):
    params = RewardParams()  # alpha 1.0, beta 0.5, delta 0.01, eta 0.25
    start = time.time()
    worst = 0.0
    for flags in itertools.product([False, True], repeat=4):
        mitigated, false_pos, accepted, _spare = flags
        for dt in (0.0, 7.5, 120.0):
            expected = (params.alpha * mitigated
                        - params.beta * false_pos
                        - params.delta * dt
                        + params.eta * accepted)
            got = compute_reward(
                OutcomeFlags(mitigated, false_pos, accepted, dt), params)
            worst = max(worst, abs(got - expected))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    announce(1, ok, f"16 flag combos x 3 delays, max error {worst:.1e}, "
                    f"{elapsed:.2f}s")


def test_criterion_02_rl_oracle_equivalence(announce):
    start = time.time()
    results = []
    for name, mdp in corpus():
        vi = value_iteration(mdp)
        reach = sorted(optimal_reachable_states(mdp, vi.policy)
                       - set(mdp.terminal))
        for algorithm, lr in (("DQN", 0.05), ("PPO", 0.5)):
            for seed in range(5):
                config = TrainConfig(algorithm=algorithm, learning_rate=lr,
                                     episodes=3000, gamma=mdp.gamma, seed=seed,
                                     max_episode_steps=100)
                policy = train(MDPEnv(mdp), config)
                match = float(np.mean(
                    [policy.greedy(s) == vi.policy[s] for s in reach]))
                results.append((name, algorithm, seed, match))
    elapsed = time.time() - start
    worst = min(r[3] for r in results)
    ok = worst >= 0.95 and elapsed < 120.0
    announce(2, ok, f"{len(results)} runs over {len(corpus())} MDPs, "
                    f"min match {worst:.2f}, {elapsed:.1f}s")


def test_criterion_03_ppo_gradient_check(announce):
    start = time.time()
    rng = np.random.default_rng(77)
    h = 1e-5
    n_states, n_actions, n = 4, 3, 6
    max_rel = 0.0
    checked = 0
    while checked < 100:
        theta = rng.normal(size=(n_states, n_actions))
        states = rng.integers(n_states, size=n)
        actions = rng.integers(n_actions, size=n)
        advantages = rng.normal(size=n)
        logp = np.array([np.log(softmax(theta[s])[a])
                         for s, a in zip(states, actions)])
        old_logp = logp + rng.normal(scale=0.05, size=n)
        # Skip points sitting on the clip or advantage-sign kinks, where the
        # objective is not differentiable.
        ratios = np.exp(logp - old_logp)
        if np.any(np.abs(ratios - 1.2) < 1e-3) or \
                np.any(np.abs(ratios - 0.8) < 1e-3) or \
                np.any(np.abs(advantages) < 1e-3):
            continue
        checked += 1
        _, grad = ppo_objective_and_grad(theta, states, actions, advantages,
                                         old_logp, 0.2, 0.01)
        for i in range(n_states):
            for j in range(n_actions):
                up, down = theta.copy(), theta.copy()
                up[i, j] += h
                down[i, j] -= h
                o_up, _ = ppo_objective_and_grad(
                    up, states, actions, advantages, old_logp, 0.2, 0.01)
                o_dn, _ = ppo_objective_and_grad(
                    down, states, actions, advantages, old_logp, 0.2, 0.01)
                fd = (o_up - o_dn) / (2 * h)
                scale = max(abs(fd), 1e-6)
                max_rel = max(max_rel, abs(grad[i, j] - fd) / scale)
    elapsed = time.time() - start
    ok = max_rel < 1e-4 and elapsed < 30.0
    announce(3, ok, f"100 points, max relative error {max_rel:.2e}, "
                    f"{elapsed:.1f}s")


def test_criterion_04_ledger_tamper_evidence(announce, tmp_path):
    start = time.time()
    validators, keys = ledger_mod.generate_validators(4, seed=21)
    acl = ledger_mod.default_acl()
    chain = [ledger_mod.make_genesis(validators, keys, acl)]
    for i in range(3):
        entries = [ledger_mod.LedgerEntry(
            agent_id="mitigation-controller",
            role=ledger_mod.AgentRole.CICD_MONITORING,
            signals_digest=hashlib.sha256(bytes([i, j])).digest(),
            reasoning_summary=f"entry {i}.{j}",
            action=ledger_mod.MitigationAction.BLOCK_BUILD,
            outcome=OutcomeFlags(True, False, True, 2.0),
            timestamp=i * 10 + j,
        ) for j in range(3)]
        ledger_mod.append_block(chain, entries, validators.ids()[0],
                                validators, keys, acl, timestamp=i + 1)
    framed = []  # (start_offset, end_offset) per block within the file bytes
    offset = 0
    blob = bytearray()
    for block in chain:
        raw = block.serialize()
        framed.append((offset, offset + 4 + len(raw)))
        blob += len(raw).to_bytes(4, "big") + raw
        offset += 4 + len(raw)
    path = tmp_path / "chain.bin"
    rng = np.random.default_rng(500)
    detected = 0
    bound_ok = 0
    trials = 1000
    for _ in range(trials):
        block_idx = int(rng.integers(len(chain)))
        lo, hi = framed[block_idx]
        bit = int(rng.integers(lo * 8, hi * 8))
        corrupted = bytearray(blob)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(corrupted))
        verdict = ledger_mod.verify_chain_file(str(path), validators, acl)
        if isinstance(verdict, ledger_mod.ChainInvalid):
            detected += 1
            if verdict.first_bad_index <= block_idx:
                bound_ok += 1
    elapsed = time.time() - start
    ok = detected == trials and bound_ok == trials and elapsed < 60.0
    announce(4, ok, f"{detected}/{trials} corruptions detected, "
                    f"{bound_ok}/{trials} within index bound, {elapsed:.1f}s")


def test_criterion_05_bft_thresholds(announce):
    behaviors_menu = [ledger_mod.HONEST, ledger_mod.SILENT,
                      ledger_mod.REJECT, ledger_mod.EQUIVOCATE]
    liveness_fail = safety_fail = 0
    total = 0

    def check(n, mixes):
        nonlocal liveness_fail, safety_fail, total
        validators, keys = ledger_mod.generate_validators(n, seed=n)
        acl = ledger_mod.default_acl()
        genesis = ledger_mod.make_genesis(validators, keys, acl)
        block = ledger_mod.Block(1, genesis.hash(),
                                 ledger_mod.entries_root(()), (),
                                 validators.ids()[0], (), 1)
        ids = validators.ids()
        for mix in mixes:
            total += 1
            assignment = dict(zip(ids, mix))
            faulty = sum(b != ledger_mod.HONEST for b in mix)
            result = ledger_mod.bft_commit(validators, keys, block,
                                           assignment, genesis.hash(), acl)
            if faulty <= validators.f and not isinstance(
                    result, ledger_mod.Committed):
                liveness_fail += 1
            if isinstance(result, ledger_mod.Committed):
                signers = {vid for vid, _ in result.signatures}
                honest = {vid for vid in ids
                          if assignment[vid] == ledger_mod.HONEST}
                if not (signers <= honest
                        and len(signers) >= validators.f + 1):
                    safety_fail += 1

    check(4, itertools.product(behaviors_menu, repeat=4))
    rng = np.random.default_rng(7)
    random_mixes = [tuple(behaviors_menu[i] for i in rng.integers(4, size=7))
                    for _ in range(500)]
    check(7, random_mixes)
    ok = liveness_fail == 0 and safety_fail == 0
    announce(5, ok, f"{total} behavior mixes (256 exhaustive N=4, 500 random "
                    f"N=7), liveness failures {liveness_fail}, "
                    f"safety failures {safety_fail}")


def test_criterion_06_merkle_properties(announce):
    rng = np.random.default_rng(13)
    failures = 0
    for size in range(1, 258):
        leaves = [rng.bytes(16) for _ in range(size)]
        root = ledger_mod.merkle_root(leaves)
        for index in range(size):
            proof = ledger_mod.merkle_proof(leaves, index)
            if not ledger_mod.verify_proof(root, leaves[index], index, proof):
                failures += 1
    # Independent 4-leaf computation, byte for byte.
    leaves = [b"a", b"b", b"c", b"d"]
    h = lambda raw: hashlib.sha256(raw).digest()
    expected = h(b"\x01" + h(b"\x01" + h(b"\x00a") + h(b"\x00b"))
                 + h(b"\x01" + h(b"\x00c") + h(b"\x00d")))
    four_ok = ledger_mod.merkle_root(leaves) == expected
    ok = failures == 0 and four_ok
    announce(6, ok, f"proof round-trips sizes 1-257 ({failures} failures), "
                    f"4-leaf independent root match: {four_ok}")


def test_criterion_07_protocol_fixtures(announce):
    rng = np.random.default_rng(23)
    round_trip_fail = 0
    kinds = ["request", "response", "event"]
    from pipeguard.protocol import Envelope
    for i in range(500):
        kind = kinds[int(rng.integers(3))]
        payload = {f"k{j}": int(rng.integers(1000))
                   for j in range(int(rng.integers(4)))}
        if kind == "response":
            env = Envelope(id=int(rng.integers(1, 1 << 30)), kind=kind,
                           result=payload)
        else:
            env = Envelope(
                id=int(rng.integers(1, 1 << 30)) if kind == "request" else None,
                kind=kind, method=f"m{int(rng.integers(100))}", params=payload)
        if decode_message(encode_message(env)) != env:
            round_trip_fail += 1
    connector = fresh_connector()
    registry = connector.registry()
    golden_fail = 0
    for env, req_bytes, resp_bytes in GOLDEN_FRAMES:
        if encode_message(env) != req_bytes:
            golden_fail += 1
        if encode_message(route_request(registry, env)) != resp_bytes:
            golden_fail += 1
    ok = round_trip_fail == 0 and golden_fail == 0
    announce(7, ok, f"500 round-trips ({round_trip_fail} failures), "
                    f"golden fixtures for 4 methods ({golden_fail} mismatches)")


def test_criterion_08_mttm_ordering(announce, suite, proposed_policy,
                                    detector_only_policy):
    start = time.time()
    options = ExperimentOptions(episodes=200)
    mttm = {}
    for arm, policy in ((BaselineKind.RULE_BASED, None),
                        (BaselineKind.PROVENANCE_ONLY, None),
                        (BaselineKind.RL_ONLY, detector_only_policy),
                        (BaselineKind.PROPOSED, proposed_policy)):
        report, _, _ = run_experiment(arm, suite, 17, policy, options)
        mttm[arm.value] = report.mttm_minutes
    elapsed = time.time() - start
    margin = 2.0
    ordered = (mttm["Proposed"] + margin <= mttm["RLOnly"]
               and mttm["RLOnly"] + margin <= mttm["RuleBased"]
               and mttm["RuleBased"] + margin <= mttm["ProvenanceOnly"])
    ok = ordered and elapsed < 300.0
    announce(8, ok, "MTTM minutes "
             + ", ".join(f"{k} {v:.1f}" for k, v in mttm.items())
             + f"; margins >= {margin}, {elapsed:.1f}s")


def test_criterion_09_f1_gap(announce, suite, proposed_policy):
    options = ExperimentOptions(episodes=200)
    worst_gap = 1.0
    for seed in (101, 102, 103, 104, 105):
        proposed, _, _ = run_experiment(BaselineKind.PROPOSED, suite, seed,
                                        proposed_policy, options)
        rule_based, _, _ = run_experiment(BaselineKind.RULE_BASED, suite,
                                          seed, options=options)
        for cls, stats in proposed.per_class.items():
            gap = stats["f1"] - rule_based.per_class[cls]["f1"]
            worst_gap = min(worst_gap, gap)
    ok = worst_gap >= 0.10
    announce(9, ok, f"Proposed F1 - RuleBased F1 >= 0.10 per class over "
                    f"5 seeds, smallest gap {worst_gap:.3f}")


def test_criterion_10_ablation_directions(announce, suite, proposed_policy):
    options = ExperimentOptions(episodes=160)
    no_reasoner = evaluation.ablation(suite, 31, proposed_policy,
                                      {"reasoner"}, options)
    deltas = no_reasoner["per_class_deltas"]
    deser = -deltas["InsecureDeserialization"]["recall_delta"]
    access = -deltas["BrokenAccessControl"]["recall_delta"]
    no_ledger = evaluation.ablation(suite, 31, proposed_policy,
                                    {"ledger"}, options)
    ok = deser >= 0.10 and access >= 0.10 and no_ledger["confusion_identical"]
    announce(10, ok, f"reasoner-off recall drop: deserialization {deser:.2f}, "
                     f"access control {access:.2f}; ledger-off confusion "
                     f"identical: {no_ledger['confusion_identical']}")


def test_criterion_11_autonomy_rate(announce, suite, proposed_policy):
    options = ExperimentOptions(episodes=200)
    report, _, _ = run_experiment(BaselineKind.PROPOSED, suite, 17,
                                  proposed_policy, options)
    ok = report.autonomy_rate >= 0.90
    announce(11, ok, f"autonomy rate {report.autonomy_rate:.3f} on the "
                     f"default config (>= 0.90 required)")


def test_criterion_12_end_to_end_determinism(announce, tmp_path,
                                             proposed_policy):
    policy_path = tmp_path / "policy.json"
    learning.save_policy(proposed_policy, str(policy_path))
    runner = CliRunner()
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        result = runner.invoke(cli_main, [
            "evaluate", "--arm", "Proposed", "--policy", str(policy_path),
            "--episodes", "40", "--seed", "9", "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append({
            name: (out / name).read_bytes()
            for name in ("report.json", "records.json", "ledger.bin")
        })
    mismatched = [name for name in outputs[0]
                  if outputs[0][name] != outputs[1][name]]
    ok = not mismatched
    announce(12, ok, "two identical cmd_evaluate runs, byte-identical "
                     "report/records/ledger"
             + (f"; mismatches: {mismatched}" if mismatched else ""))
