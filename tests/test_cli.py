import hashlib
import json

import pytest
from click.testing import CliRunner

from pipeguard import learning
from pipeguard.cli import main


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

    def test_disable_on_baseline_arm_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "evaluate", "--arm", "RuleBased", "--disable", "rl",
            "--out", str(tmp_path / "x")])
        assert result.exit_code == 2


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


class TestSuiteCommand:
    def test_suite_dump(self, runner, tmp_path):
        out = tmp_path / "suite.json"
        result = runner.invoke(main, ["suite", "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 40
