import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from pipeguard import learning, ledger
from pipeguard.cli import _EVALUATE_FIELDS, main
from pipeguard.env import (
    AgentRole,
    AttackScenario,
    ConfigError,
    EnvConfig,
    MitigationAction,
    OutcomeFlags,
    PipelineStage,
    RewardParams,
    VulnerabilityClass,
    _ENV_CONFIG_FIELDS,
)
from pipeguard.evaluation import ExperimentOptions
from pipeguard.learning import TrainConfig
from pipeguard.protocol import Envelope, FrameError


@pytest.fixture()
def runner():
    return CliRunner()


def all_output(result) -> str:
    try:
        return result.output + result.stderr
    except ValueError:  # stderr not captured separately on this click version
        return result.output


@pytest.fixture(scope="module")
def policy_file(tmp_path_factory, proposed_policy):
    path = tmp_path_factory.mktemp("policy") / "policy.json"
    learning.save_policy(proposed_policy, str(path))
    return str(path)


class TestSimulate:
    def test_benign_trace(self, runner, tmp_path):
        out = tmp_path / "trace.json"
        result = runner.invoke(main, ["simulate", "--index", "-1",
                                      "--seed", "4", "--out", str(out)])
        assert result.exit_code == 0, result.output
        trace = json.loads(out.read_text())
        assert trace["scenario"] is None
        assert len(trace["steps"]) == 5
        assert trace["build_delay"] == 0.0

    def test_attack_trace_with_policy(self, runner, policy_file):
        result = runner.invoke(main, ["simulate", "--index", "0",
                                      "--policy", policy_file, "--seed", "4"])
        assert result.exit_code == 0, result.output
        trace = json.loads(result.output)
        assert any(step["mitigated"] for step in trace["steps"])

    @pytest.mark.parametrize("index, with_policy, digest", [
        ("-1", False,
         "9f6c030dadf12943b720f924865da0567064ac38bd6d7d5be908dca400775b6e"),
        ("0", True,
         "9edf9146763d667e042f99e59e8de1670aaf1f42ecd913bf2266a68f98b563a3"),
    ], ids=["benign", "policy"])
    def test_trace_output_is_pinned(self, runner, policy_file, index,
                                    with_policy, digest):
        args = ["simulate", "--index", index, "--seed", "4"]
        if with_policy:
            args += ["--policy", policy_file]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest

    def test_out_of_range_index_is_config_error(self, runner):
        result = runner.invoke(main, ["simulate", "--index", "999"])
        assert result.exit_code == 2

    def test_bad_config_file_is_config_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"env": {"warp_speed": true}}')
        result = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "warp_speed" in all_output(result)


class TestTrain:
    def test_train_writes_policy(self, runner, tmp_path):
        out = tmp_path / "p.json"
        result = runner.invoke(main, [
            "train", "--episodes", "50", "--seed", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        policy = learning.load_policy(str(out))
        assert policy.params.shape == (300, 8)

    # The golden seed-0 policies of the three training set-ups.
    @pytest.mark.parametrize("args, digest", [
        ([], "76fb25f03d325a389b3f898a62bde6687b2873815f2fb41b0e69dadf359efd64"),
        (["--no-correlation"],
         "53a9d3548439c26561a92c9dab2ab7e05287739e9512374e94243e8df076f9e8"),
        (["--algorithm", "PPO"],
         "00f7db7ccf50c266fa830479cbd78b2712563f71393d5b483cb266bc82fcd467"),
    ], ids=["dqn", "dqn-no-correlation", "ppo"])
    def test_policy_is_pinned(self, runner, tmp_path, args, digest):
        out = tmp_path / "policy.json"
        result = runner.invoke(main, ["train", *args, "--episodes", "3000",
                                      "--learning-rate", "0.3", "--seed", "0",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_train_rejects_unknown_config_field(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"train": {"algorithm": "DQN", "optimizer": "adam"}}')
        result = runner.invoke(main, [
            "train", "--config", str(cfg), "--out", str(tmp_path / "p.json")])
        assert result.exit_code == 2


class TestEvaluate:
    def test_rule_based_arm(self, runner, tmp_path):
        out = tmp_path / "rb"
        result = runner.invoke(main, [
            "evaluate", "--arm", "RuleBased", "--episodes", "20",
            "--seed", "2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert report["arm"] == "RuleBased"
        assert report["episodes"] == 20
        assert (out / "records.json").exists()
        assert not (out / "ledger.bin").exists()

    def test_proposed_arm_writes_verifiable_ledger(self, runner, tmp_path,
                                                   policy_file):
        out = tmp_path / "prop"
        result = runner.invoke(main, [
            "evaluate", "--arm", "Proposed", "--policy", policy_file,
            "--episodes", "15", "--seed", "2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "ledger.bin").exists()
        verify = runner.invoke(main, [
            "ledger", "verify", "--chain", str(out / "ledger.bin"),
            "--seed", "2"])
        assert verify.exit_code == 0
        assert "VALID" in verify.output

    def test_proposed_without_policy_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "evaluate", "--arm", "Proposed", "--episodes", "5",
            "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_disable_flag_runs_ablation(self, runner, tmp_path, policy_file):
        out = tmp_path / "abl"
        result = runner.invoke(main, [
            "evaluate", "--arm", "Proposed", "--policy", policy_file,
            "--episodes", "20", "--seed", "2", "--disable", "ledger",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "ablation.json").read_text())
        assert doc["disabled"] == ["ledger"]
        assert doc["confusion_identical"] is True

    # Every arm that detects: the golden Proposed and RuleBased outputs, the
    # policy stack without cross-stage correlation, the playbook stack, the
    # reasoner with correlation switched off, the playbook without it, and
    # the full stack with its ledger off.
    @pytest.mark.parametrize("args, digests", [
        (["--arm", "Proposed"], {
            "report.json": "e1f8dd48297a6dc2eb439aae352c6c56e3ae74983a7c9dc332214304d7b33fe4",
            "records.json": "fe22eb57621cb99545af9ffb4ba928b1c4c2ae416654af3cddaa9f2d2f5c26ab",
            "ledger.bin": "e237eb403b592d7139463634c001f43af61083c8db787d7e96ba81e444c398c3"}),
        (["--arm", "RuleBased"], {
            "report.json": "ab8b561ec3a4547525189485138e2992e023dd0e4848fd142af6af5359fb6bd9",
            "records.json": "04fc916fcaf93626a4948b2c3f0035f5e4a9cac80152d34e2d93e10203bd8485"}),
        (["--arm", "RLOnly"], {
            "report.json": "5a26a81909284135062206541dadba9faa51fa6faa5ce3bf7d7a73e7bde68306",
            "records.json": "791f4d8d226990d2393313c7b8a3997de1311e8dc88c97dcc62e7b4c8762bf18"}),
        (["--arm", "Proposed", "--disable", "rl"], {
            "ablation.json": "8b24fb3ae2dae59dc58a792c6ac26f989146da2a3e6f03064ce4745f59e2040c"}),
        (["--arm", "Proposed", "--disable", "reasoner"], {
            "ablation.json": "3bdb7c500f8cf489ffb7ae3efdc6efe5da60a1d9c874c7c99559acc122368a60"}),
        (["--arm", "Proposed", "--disable", "reasoner,rl"], {
            "ablation.json": "3d0f425580a17a5185958011da6f5e5d5ce3e7d6216d780a2c07194b8de04196"}),
        (["--arm", "Proposed", "--disable", "ledger"], {
            "ablation.json": "5967a03fa965dfc5144af68922dd895726773ff226aa62a14373ba298cbc5ca7"}),
    ], ids=["proposed", "rule-based", "rl-only", "no-rl", "no-reasoner",
            "no-reasoner-no-rl", "no-ledger"])
    def test_output_is_pinned(self, runner, tmp_path, policy_file, args, digests):
        out = tmp_path / "out"
        policy = [] if args[1] == "RuleBased" else ["--policy", policy_file]
        result = runner.invoke(main, ["evaluate", *args, *policy,
                                      "--episodes", "200", "--seed", "7", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in digests} == digests

    @pytest.mark.parametrize("args", [
        ["--arm", "RuleBased", "--disable", "rl"],
        ["--arm", "Proposed", "--disable", "bogus"],
        ["--arm", "Proposed"],
    ], ids=["disable-on-baseline", "unknown-target", "no-policy"])
    def test_config_error_leaves_no_out_directory(self, runner, tmp_path, args):
        out = tmp_path / "o1"
        assert_error_line(runner.invoke(main, ["evaluate", *args, "--out", str(out)]))
        assert not out.exists()

    def test_disable_on_baseline_arm_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "evaluate", "--arm", "RuleBased", "--disable", "rl",
            "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    # An ablation of nothing would compare Proposed with itself.
    @pytest.mark.parametrize("targets", [",", ""])
    def test_disable_without_target_rejected(self, runner, tmp_path, policy_file,
                                             targets):
        out = tmp_path / "x"
        result = runner.invoke(main, [
            "evaluate", "--arm", "Proposed", "--policy", policy_file,
            "--episodes", "5", "--disable", targets, "--out", str(out)])
        assert "ablation needs at least one target" in assert_error_line(result)
        assert not (out / "ablation.json").exists()


class TestLedgerCommands:
    def test_verify_rejects_tampered_file(self, runner, tmp_path, policy_file):
        out = tmp_path / "prop"
        runner.invoke(main, [
            "evaluate", "--arm", "Proposed", "--policy", policy_file,
            "--episodes", "5", "--seed", "2", "--out", str(out)])
        chain = out / "ledger.bin"
        raw = bytearray(chain.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        chain.write_bytes(bytes(raw))
        result = runner.invoke(main, [
            "ledger", "verify", "--chain", str(chain), "--seed", "2"])
        assert result.exit_code == 1
        assert "INVALID" in result.output

    def test_show_lists_blocks(self, runner, tmp_path, policy_file):
        out = tmp_path / "prop"
        runner.invoke(main, [
            "evaluate", "--arm", "Proposed", "--policy", policy_file,
            "--episodes", "3", "--seed", "2", "--out", str(out)])
        result = runner.invoke(main, [
            "ledger", "show", "--chain", str(out / "ledger.bin")])
        assert result.exit_code == 0
        assert result.output.startswith("block 0:")
        assert len(result.output.strip().splitlines()) == 4

    def test_verify_rejects_empty_file(self, runner, tmp_path):
        chain = tmp_path / "empty.bin"
        chain.write_bytes(b"")
        result = runner.invoke(main, ["ledger", "verify", "--chain", str(chain)])
        assert result.exit_code == 1
        assert result.output == "INVALID at block 0: hash_link\n"

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_verify_needs_a_validator(self, runner, tmp_path, n):
        # Two blocks that link and root correctly but carry no signatures.
        root = ledger.entries_root(())
        genesis = ledger.Block(0, ledger.ZERO_HASH, root, (), "validator-0", (), 0)
        block = ledger.Block(1, genesis.hash(), root, (), "validator-0", (), 1)
        chain = tmp_path / "forged.bin"
        ledger.write_chain([genesis, block], str(chain))
        result = runner.invoke(main, ["ledger", "verify", "--validators", n,
                                      "--chain", str(chain)])
        assert "at least one validator" in assert_error_line(result)


class TestCompareCommand:
    def test_compare_two_arms(self, runner, tmp_path, policy_file):
        rb, prop, cmp_dir = tmp_path / "rb", tmp_path / "prop", tmp_path / "cmp"
        for args in (["evaluate", "--arm", "RuleBased", "--episodes", "20",
                      "--seed", "2", "--out", str(rb)],
                     ["evaluate", "--arm", "Proposed", "--policy", policy_file,
                      "--episodes", "20", "--seed", "2", "--out", str(prop)]):
            assert runner.invoke(main, args).exit_code == 0
        result = runner.invoke(main, [
            "compare", str(rb / "report.json"), str(prop / "report.json"),
            "--out", str(cmp_dir)])
        assert result.exit_code == 0, result.output
        tables = json.loads((cmp_dir / "tables.json").read_text())
        assert {"f1", "mttm", "overhead"} <= set(tables)
        assert (cmp_dir / "f1.csv").read_text().startswith("class,")

    def test_compare_single_report_rejected(self, runner, tmp_path, policy_file):
        rb = tmp_path / "rb"
        runner.invoke(main, ["evaluate", "--arm", "RuleBased",
                             "--episodes", "10", "--seed", "2",
                             "--out", str(rb)])
        result = runner.invoke(main, [
            "compare", str(rb / "report.json"), "--out", str(tmp_path / "c")])
        assert result.exit_code == 2


class TestProtocolCommand:
    def test_replay_demo_alias(self, runner, tmp_path):
        frames = tmp_path / "frames.jsonl"
        frames.write_bytes(
            b'{"version":"1.0","id":1,"kind":"request","method":"fetch_logs",'
            b'"params":{"run_id":"demo"}}\n')
        result = runner.invoke(main, [
            "protocol", "replay", "--frames", str(frames), "--seed", "1"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["kind"] == "response"
        assert "logs" in doc["result"]


    @pytest.mark.parametrize("frame, message", [
        ({"params": [1]}, "params, result and error must be objects"),
        ({"method": ["x"]}, "method must be a string"),
        ({"id": True}, "id must be a positive integer"),
    ], ids=["params", "method", "id"])
    def test_ill_typed_frame_is_one_line_error(self, runner, tmp_path, frame, message):
        frames = tmp_path / "frames.jsonl"
        frames.write_text(json.dumps({"version": "1.0", "id": 1, "kind": "request",
                                      "method": "fetch_logs", **frame}))
        result = runner.invoke(main, ["protocol", "replay", "--frames", str(frames)])
        assert message in assert_error_line(result, exit_code=1)

    def test_non_string_run_id_is_in_band_error(self, runner, tmp_path):
        frames = tmp_path / "frames.jsonl"
        frames.write_bytes(b'{"version":"1.0","id":1,"kind":"request",'
                           b'"method":"fetch_logs","params":{"run_id":["x"]}}\n')
        result = runner.invoke(main, ["protocol", "replay", "--frames", str(frames)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["error"] == {
            "code": -32600, "message": "run_id must be a string"}

    @pytest.mark.parametrize("method, params, answer", [
        ("fetch_logs", '{"run_id":"\\ud800"}',
         '"error":{"code":-32001,"message":"unknown run: \\ud800"}'),
        ("fetch_artifact", '{"run_id":"demo","name":"\\ud800"}',
         '"artifact":{"name":"\\ud800",'),
    ], ids=["fetch_logs", "fetch_artifact"])
    def test_lone_surrogate_gets_in_band_answer(self, runner, tmp_path, method, params,
                                                answer):
        frames = tmp_path / "frames.jsonl"
        frames.write_text('{"version":"1.0","id":1,"kind":"request",'
                          f'"method":"{method}","params":{params}}}\n')
        result = runner.invoke(main, ["protocol", "replay", "--frames", str(frames)])
        assert result.exit_code == 0, result.output
        assert answer in result.output


class TestSuiteCommand:
    def test_suite_dump(self, runner, tmp_path):
        out = tmp_path / "suite.json"
        result = runner.invoke(main, ["suite", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 40


# -- malformed inputs ------------------------------------------------------------

# Placeholders the test turns into paths: a directory, and a fresh output path.
DIRECTORY = object()
OUT = object()

# JSON that Python's parser rejects: an integer past its 4300-digit limit,
# and nesting past the recursion limit.
HUGE_INT = b"1" * 5000
DEEP_LIST = b"[" * 100000 + b"]" * 100000

SCENARIO = {"id": "s", "class": "Injection", "stage": "SourceManagement",
            "payload": ["exec_untrusted_input"], "syntactic_detectable": True,
            "semantic_detectable": False, "severity": 0.5}


def policy_doc(rows, cols, value=0.0, **fields):
    return {"kind": "tabular-greedy", "encoding_version": 1,
            "actions": [f"A{i}" for i in range(cols)], "seed": 0, "epsilon": 0.05,
            "params": [[value] * cols for _ in range(rows)], **fields}


def simulate_config(doc):
    return ["simulate", "--config", doc]


def proposed_env(env):
    """A one-episode Proposed evaluate whose policy always blocks the build,
    so that the ledger's timestamps hold the block's step and delay."""
    policy = policy_doc(300, 8, actions=[a.name for a in MitigationAction],
                        params=[[0.0, 1.0] + [0.0] * 6] * 300)
    return ["evaluate", "--arm", "Proposed", "--policy", policy, "--episodes", "1",
            "--config", {"env": env}, "--out", OUT]


def train_config(**train):
    return ["train", "--config", {"train": train}, "--out", OUT]


def report_doc(f1=0.5):
    per_class = {name: {"tp": 1, "fp": 0, "fn": 0, "tn": 1, "precision": 1.0,
                        "recall": 1.0, "f1": f1}
                 for name in ("Injection", "InsecureDeserialization",
                              "BrokenAccessControl", "Misconfiguration")}
    return {"arm": "Proposed", "episodes": 10, "seed": 0, "suite": "s",
            "per_class": per_class, "mttm_minutes": 6.0, "overhead_percent": 1.0,
            "autonomy_rate": 1.0, "rollback_success_rate": 1.0,
            "false_positive_actions": 0}


MALFORMED = [
    ("env-reward-key", simulate_config({"env": {"reward": {"gamma": 1}}}),
     "unknown reward fields: ['gamma']"),
    ("train-episodes-str", ["train", "--config", {"train": {"episodes": "10"}},
                            "--out", OUT], "episodes must be an integer"),
    ("train-episodes-float", ["train", "--config", {"train": {"episodes": 1.5}},
                              "--out", OUT], "episodes must be an integer"),
    ("env-max-steps-str", simulate_config({"env": {"max_steps_per_stage": "2"}}),
     "max_steps_per_stage must be an integer"),
    ("evaluate-episodes-str", ["evaluate", "--arm", "RuleBased", "--config",
                               {"evaluate": {"episodes": "x"}}, "--out", OUT],
     "episodes must be an integer"),
    ("evaluate-ledger-str", ["evaluate", "--arm", "RuleBased", "--config",
                             {"evaluate": {"ledger_enabled": "false"}}, "--out", OUT],
     "ledger_enabled must be true or false"),
    ("env-delays-name", simulate_config({"env": {"delays": {"BLOK_BUILD": 1}}}),
     "unknown delays fields: ['BLOK_BUILD']"),
    ("env-decoy-probability", simulate_config({"env": {"decoy_probability": 7}}),
     "decoy_probability must be in [0, 1]"),
    ("env-step-minutes-1e20", proposed_env({"step_minutes": 1e20}),
     "step_minutes must be >= 0 and <= 1000000"),
    ("env-step-minutes-1e308", proposed_env({"step_minutes": 1e308}),
     "step_minutes must be >= 0 and <= 1000000"),
    ("env-delays-1e308", proposed_env({"delays": {"BLOCK_BUILD": 1e308}}),
     "delays BLOCK_BUILD must be >= 0 and <= 1000000"),
    ("env-acceptance", simulate_config({"env": {"acceptance": {"REQUEST_REVIEW": 3}}}),
     "acceptance REQUEST_REVIEW must be in [0, 1]"),
    ("scenario-payload-str", ["simulate", "--scenarios", [
        {**SCENARIO, "payload": "abc", "syntactic_detectable": "no"}]],
     "payload must be a list"),
    ("scenario-class", ["simulate", "--scenarios", [{**SCENARIO, "class": "Nope"}]],
     "class must be one of"),
    ("scenario-not-object", ["simulate", "--scenarios", [1]],
     "scenario must be a JSON object"),
    ("policy-nan", ["simulate", "--policy", policy_doc(
        300, 8, math.nan, encoding_version=9)], "must be a finite number, got NaN"),
    ("policy-shape", ["simulate", "--policy", policy_doc(3, 2)], "(3, 2)"),
    ("policy-no-params", ["simulate", "--policy", {
        k: v for k, v in policy_doc(300, 8).items() if k != "params"}],
     "missing policy fields: ['params']"),
    ("evaluate-playbook-latency", ["evaluate", "--arm", "Proposed", "--config",
                                   {"evaluate": {"playbook_latency": -50}}, "--out", OUT],
     "unknown evaluate config fields: ['playbook_latency']"),
    ("train-learning-rate", train_config(learning_rate=0), "learning_rate must be > 0"),
    ("train-clip-epsilon", train_config(clip_epsilon=1),
     "unknown training config fields: ['clip_epsilon']"),
    ("train-epsilon-start", train_config(epsilon_start=1.5),
     "unknown training config fields: ['epsilon_start']"),
    ("train-epsilon-end", train_config(epsilon_end=-0.1),
     "unknown training config fields: ['epsilon_end']"),
    ("train-ppo-epochs", train_config(ppo_epochs=0),
     "unknown training config fields: ['ppo_epochs']"),
    ("train-entropy-coeff", train_config(entropy_coeff_start=-0.01),
     "unknown training config fields: ['entropy_coeff_start']"),
    ("compare-empty-report", ["compare", {}, report_doc(), "--out", OUT],
     "missing report fields: ['arm', "),
    ("compare-f1-str", ["compare", report_doc(), report_doc("x"), "--out", OUT],
     "report per_class Injection field f1 must be a finite number"),
    ("config-directory", simulate_config(DIRECTORY), "Is a directory"),
    ("config-not-utf8", simulate_config(b"\xff\xfe{}"), "can't decode"),
    ("config-huge-int", simulate_config(b'{"env": {"max_steps_per_stage": ' + HUGE_INT + b"}}"),
     "Exceeds the limit (4300 digits)"),
    ("scenarios-deep-list", ["simulate", "--scenarios", DEEP_LIST],
     "maximum recursion depth exceeded"),
    ("policy-huge-int", ["simulate", "--policy", HUGE_INT], "Exceeds the limit (4300 digits)"),
    ("compare-deep-list", ["compare", DEEP_LIST, report_doc(), "--out", OUT],
     "maximum recursion depth exceeded"),
    ("env-removed-fields", simulate_config({"env": {"require_attacks": True,
                                                    "allow_multiple_attacks": False}}),
     "unknown environment config fields: ['allow_multiple_attacks', 'require_attacks']"),
    ("scenario-lone-surrogate", ["simulate", "--scenarios", [{**SCENARIO, "id": "\ud800"}]],
     'scenario field id is not valid UTF-8, got "\\ud800"'),
    ("suite-lone-surrogate", ["train", "--suite", [{**SCENARIO, "payload": ["\udfff"]}],
                              "--out", OUT], "scenario field payload[0] is not valid UTF-8"),
    ("train-empty-suite", ["train", "--suite", [], "--out", OUT],
     "scenario suite must be non-empty"),
    ("compare-same-arm", ["compare", report_doc(), report_doc(), "--out", OUT],
     "two reports of arm Proposed"),
    ("evaluate-policy-RuleBased", ["evaluate", "--arm", "RuleBased", "--policy",
                                   policy_doc(300, 8), "--out", OUT],
     "--policy applies to the RLOnly and Proposed arms only"),
    ("evaluate-policy-ProvenanceOnly", ["evaluate", "--arm", "ProvenanceOnly", "--policy",
                                        policy_doc(300, 8), "--out", OUT],
     "--policy applies to the RLOnly and Proposed arms only"),
]


def materialize(args, tmp_path):
    """Write each non-string argument to a file and pass its path."""
    out = []
    for n, arg in enumerate(args):
        path = tmp_path / f"arg{n}"
        if isinstance(arg, str):
            out.append(arg)
            continue
        if arg is DIRECTORY:
            path.mkdir()
        elif isinstance(arg, bytes):
            path.write_bytes(arg)
        elif arg is not OUT:
            path.write_text(json.dumps(arg))
        out.append(str(path))
    return out


def assert_error_line(result, exit_code=2):
    assert result.exit_code == exit_code, result.output
    lines = result.output.splitlines()  # stdout and stderr
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


@pytest.mark.parametrize("args, message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_is_one_line_config_error(runner, tmp_path, args, message):
    result = runner.invoke(main, materialize(args, tmp_path))
    assert message in assert_error_line(result)


# The same checks hold for a value built in code, without a file.
@pytest.mark.parametrize("build, error, message", [
    (lambda: TrainConfig(learning_rate=math.nan), ConfigError, "learning_rate must be > 0"),
    (lambda: TrainConfig(learning_rate=math.inf), ConfigError, "learning_rate must be > 0"),
    (lambda: EnvConfig(decoy_probability=7.0), ConfigError,
     "decoy_probability must be in [0, 1]"),
    (lambda: EnvConfig(delays={"BLOCK_BUILD": -1}), ConfigError,
     "delays BLOCK_BUILD must be >= 0 and <= 1000000"),
    (lambda: EnvConfig(delays={"BLOK_BUILD": 9.0}), ConfigError,
     "unknown delays fields: ['BLOK_BUILD']"),
    (lambda: EnvConfig(acceptance={"request_review": 0.0}), ConfigError,
     "unknown acceptance fields: ['request_review']"),
    (lambda: ExperimentOptions(benign_fraction=1.0), ConfigError,
     "benign_fraction must be in [0, 1)"),
    (lambda: ExperimentOptions(episodes=0), ConfigError, "episodes must be >= 1"),
    (lambda: RewardParams(beta=-1), ConfigError,
     "reward parameter beta must be finite and >= 0"),
    (lambda: AttackScenario("s1", VulnerabilityClass.INJECTION,
                            PipelineStage.SOURCE_MANAGEMENT, (), True, False, 0.5),
     ConfigError, "scenario s1: payload must be non-empty"),
    (lambda: Envelope(kind="bogus"), FrameError, "unknown kind 'bogus'"),
], ids=["train-learning-rate-nan", "train-learning-rate-inf", "env-decoy-probability",
        "env-delays", "env-delays-name", "env-acceptance-name", "options-benign-fraction",
        "options-episodes", "reward-beta", "scenario-payload", "envelope-kind"])
def test_values_built_in_code_are_checked(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert message in str(exc.value)


def test_readme_configuration_table_names_every_config_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = [key for line in section.splitlines() if line.startswith("| `")
                  for key in re.findall(r"`(\w+\.\w+)`", line.split("|")[1])]
    accepted = ([f"env.{key}" for key in _ENV_CONFIG_FIELDS]
                + [f"train.{key}" for key in TrainConfig.__dataclass_fields__]
                + [f"evaluate.{key}" for key in _EVALUATE_FIELDS])
    assert sorted(documented) == sorted(accepted)


@pytest.mark.parametrize("command", [["simulate"], ["protocol", "replay", "--frames"]])
def test_index_below_minus_one_is_config_error(runner, tmp_path, command):
    frames = tmp_path / "frames.jsonl"
    frames.write_bytes(b"")
    args = command + ([str(frames)] if command[0] == "protocol" else [])
    result = runner.invoke(main, args + ["--index", "-2"])
    assert "index -2 out of range" in assert_error_line(result)


_SCALARS = (st.none() | st.booleans() | st.integers(-2, 4)
            | st.floats(-2.0, 4.0) | st.sampled_from([math.nan, math.inf])
            | st.text(max_size=3))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                       max_leaves=6)
# Integers stay small so that no run is long: max_steps_per_stage sets its length.
_NUMBERS = st.integers(-1, 3) | st.floats(-0.5, 1.5) | st.sampled_from([math.nan])
_ACTION_MAP = st.dictionaries(st.sampled_from(["BLOCK_BUILD", "REQUEST_REVIEW",
                                               "BLOK_BUILD"]), _NUMBERS, max_size=2)
_ENV_VALUES = {
    "reward": st.dictionaries(st.sampled_from(["alpha", "beta", "delta", "eta",
                                               "gamma"]), _NUMBERS, max_size=2),
    "max_steps_per_stage": st.integers(-1, 3),
    "step_minutes": _NUMBERS,
    "decoy_probability": _NUMBERS,
    "decoys_only_benign": st.booleans(),
    "delays": _ACTION_MAP,
    "acceptance": _ACTION_MAP,
}


@st.composite
def env_sections(draw):
    """Mostly fields of the right kind, one in five of any JSON value."""
    section = {}
    for key in draw(st.lists(st.sampled_from(sorted(_ENV_VALUES)), max_size=4,
                             unique=True)):
        section[key] = draw(_ENV_VALUES[key] if draw(st.integers(0, 4)) < 4
                            else _VALUES)
    return section


_CONFIGS = st.fixed_dictionaries({"env": env_sections()}) | _VALUES


@settings(max_examples=150, deadline=None)
@given(doc=_CONFIGS)
def test_any_json_config_exits_0_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["simulate", "--config", str(path)])
    assert result.exit_code in (0, 2), (doc, result.exception)
    if result.exit_code == 2:
        assert_error_line(result)


# A fuzzed frame is a well-formed request with up to two fields dropped or
# replaced, by a value of their kind or by any JSON value; one time in ten it
# is any JSON value.
_PARAM_VALUES = {
    "stage": st.sampled_from(["Build", "Compile"]),
    "name": st.just("app.tar"),
    "action": st.sampled_from(["pause", "resume", "rerun", "restart"]),
    "mitigation": st.sampled_from(["BLOCK_BUILD", "ALLOW_CONTINUE", "SELF_DESTRUCT"]),
}
_FRAME_VALUES = {
    "version": st.just("1.0"),
    "id": st.integers(-1, 3),
    "kind": st.sampled_from(["request", "response", "event"]),
    "method": st.sampled_from(["fetch_logs", "fetch_artifact", "trigger_action",
                               "issue_mitigation", "reboot"]),
    "params": st.fixed_dictionaries({"run_id": st.one_of(
        st.just("demo"), st.just("demo"), st.just("run-0"), _VALUES)}, optional={
        key: strategy | _VALUES for key, strategy in _PARAM_VALUES.items()}),
    "result": st.dictionaries(st.text(max_size=3), _VALUES, max_size=2),
    "error": st.dictionaries(st.text(max_size=3), _VALUES, max_size=2),
}
_DROP = object()


@st.composite
def frames(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(_VALUES)
    frame = {"version": "1.0", "id": draw(st.integers(1, 3)), "kind": "request",
             "method": draw(_FRAME_VALUES["method"]), "params": draw(_FRAME_VALUES["params"])}
    for key in draw(st.lists(st.sampled_from(sorted(_FRAME_VALUES)), max_size=2,
                             unique=True)):
        value = draw(_FRAME_VALUES[key] | _VALUES | st.just(_DROP))
        if value is _DROP:
            frame.pop(key, None)
        else:
            frame[key] = value
    return frame


def assert_exits_0_or_1(result):
    """A verification command ends in 0 or 1, with at most one error line."""
    assert result.exit_code in (0, 1), result.exception
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.output.splitlines()
    assert sum(line.startswith("error: ") for line in lines) <= 1, lines
    if result.exit_code == 1:
        assert len(lines) == 1, lines


@settings(max_examples=100, deadline=None)
@given(docs=st.lists(frames(), min_size=1, max_size=4))
def test_any_json_frames_exit_0_or_1(docs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "frames.jsonl"
        path.write_text("\n".join(json.dumps(doc) for doc in docs) + "\n")
        result = CliRunner().invoke(main, ["protocol", "replay", "--frames", str(path)])
    assert_exits_0_or_1(result)


@pytest.fixture(scope="module")
def chain_bytes(tmp_path_factory):
    """A real three-block chain under the default validator set of seed 0."""
    validators, keys = ledger.generate_validators(4, 0)
    acl = ledger.default_acl()
    chain = [ledger.make_genesis(validators, keys, acl)]
    for t in (1, 2):
        entry = ledger.LedgerEntry(
            "mitigation-controller", AgentRole.CICD_MONITORING, bytes(32),
            "benign", MitigationAction.ALLOW_CONTINUE,
            OutcomeFlags(False, False, True, 0.0), t)
        ledger.append_block(chain, [entry], validators.ids()[0], validators, keys, acl)
    path = tmp_path_factory.mktemp("chain") / "chain.bin"
    ledger.write_chain(chain, str(path))
    return path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(flips=st.lists(st.integers(min_value=0), max_size=3),
       cut=st.integers(min_value=0) | st.none(), noise=st.binary(max_size=200) | st.none())
def test_any_chain_file_exits_0_or_1(chain_bytes, flips, cut, noise):
    """Bit-flipped or truncated copies of a real chain, or arbitrary bytes."""
    if noise is not None:
        data = noise
    else:
        raw = bytearray(chain_bytes)
        for bit in flips:
            raw[bit // 8 % len(raw)] ^= 1 << bit % 8
        data = bytes(raw[:cut])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.bin"
        path.write_bytes(data)
        for command in ("verify", "show"):
            assert_exits_0_or_1(CliRunner().invoke(main, ["ledger", command,
                                                          "--chain", str(path)]))
