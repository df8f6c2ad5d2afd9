"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 contract violation. All randomness flows from the --seed flag (or the
config file), so rerunning a command with the same inputs produces
byte-identical output files.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import evaluation, learning, ledger as ledger_mod, protocol
from .env import (
    ConfigError,
    ContractViolation,
    PipelineEnv,
    check_fields,
    env_config_from_dict,
    load_json,
    load_scenarios,
    scenario_to_dict,
    stage_name,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_CONTRACT = 3

# The keys of a config file's evaluate section: ExperimentOptions fields.
_EVALUATE_FIELDS = {"episodes": int, "benign_fraction": float, "ledger_enabled": bool}


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, OSError) as exc:
            _fail(EXIT_CONFIG, str(exc))
        except ContractViolation as exc:
            _fail(EXIT_CONTRACT, str(exc))
        except (ledger_mod.LedgerError, protocol.ProtocolError,
                protocol.FrameError) as exc:
            _fail(EXIT_VERIFY, str(exc))
    return wrapper


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = load_json(path)
    check_fields(doc, dict.fromkeys(("env", "train", "evaluate"), dict), "config file")
    return doc


def _load_suite(path: str | None):
    if path is None:
        return evaluation.calibration_suite()
    return load_scenarios(path)


def _run_scenarios(suite: list, index: int) -> list:
    """The scenarios of the run --index selects: one, or none for -1."""
    if not -1 <= index < len(suite):
        raise ConfigError(f"scenario index {index} out of range "
                          f"(suite has {len(suite)}; -1 runs benign)")
    return [] if index == -1 else [suite[index]]


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@click.group()
def main():
    """Simulated CI/CD supply-chain defense loop."""


@main.command()
@click.option("--scenarios", "scenarios_path", type=click.Path(exists=True),
              default=None, help="Scenario suite JSON (default: shipped suite).")
@click.option("--index", type=int, default=0, show_default=True,
              help="Scenario index within the suite; -1 for a benign run.")
@click.option("--policy", "policy_path", type=click.Path(exists=True),
              default=None, help="Drive actions from a trained policy.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the run trace as JSON.")
@handles_errors
def simulate(scenarios_path, index, policy_path, config_path, seed, out_path):
    """Run one pipeline episode and print its trace."""
    doc = _load_config(config_path)
    scenarios = _run_scenarios(_load_suite(scenarios_path), index)
    pipeline = PipelineEnv(env_config_from_dict(doc.get("env", {})))
    if policy_path is not None:
        decide = evaluation.PolicyStack(learning.load_policy(policy_path)).decide
    else:
        def decide(state, prior_alerts):
            return evaluation.ALLOW
    steps = list(evaluation.episode_steps(decide, pipeline, scenarios, seed))
    state = steps[-1].transition.next_state
    trace = {
        "run_id": state.run_id,
        "seed": seed,
        "scenario": scenario_to_dict(scenarios[0]) if scenarios else None,
        "steps": [
            {
                "stage": stage_name(pre.stage),
                "action": decision.action.name,
                "verdict": (decision.verdict.value
                            if decision.verdict is not None else None),
                "reward": transition.reward,
                "mitigated": [a.id for a in transition.mitigated],
                "signals": [
                    {"stage": stage_name(s.stage), "kind": s.kind.value,
                     "content": s.content}
                    for s in pre.signals
                ],
            }
            for pre, decision, transition in steps
        ],
        "build_delay": state.build_delay,
        "clock_minutes": state.clock_minutes,
    }
    if out_path:
        _write_json(Path(out_path), trace)
    click.echo(json.dumps(trace, indent=2, sort_keys=True))


@main.command()
@click.option("--suite", "suite_path", type=click.Path(exists=True), default=None)
@click.option("--algorithm", type=click.Choice(["DQN", "PPO"]),
              default=learning.TrainConfig.algorithm, show_default=True)
@click.option("--episodes", type=int, default=learning.TrainConfig.episodes, show_default=True)
@click.option("--learning-rate", type=float, default=learning.TrainConfig.learning_rate,
              show_default=True)
@click.option("--no-correlation", is_flag=True,
              help="Train without cross-stage correlation (detector-only arm).")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=learning.TrainConfig.seed, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@handles_errors
def train(suite_path, algorithm, episodes, learning_rate, no_correlation,
          config_path, seed, out_path):
    """Train a mitigation policy against the simulated pipeline."""
    doc = _load_config(config_path)
    suite = _load_suite(suite_path)
    # A key in the config file wins over the flag named beside it.
    config = learning.TrainConfig.from_dict({"algorithm": algorithm, "episodes": episodes,
                                             "learning_rate": learning_rate, "seed": seed,
                                             **doc.get("train", {})})
    policy = evaluation.train_mitigation_policy(
        suite, config, env_config=env_config_from_dict(doc.get("env", {})),
        correlation=not no_correlation,
    )
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    learning.save_policy(policy, out_path)
    click.echo(f"trained {config.algorithm} policy over {config.episodes} episodes "
               f"-> {out_path}")


@main.command()
@click.option("--arm", type=click.Choice([a.value for a in evaluation.ARM_ORDER]),
              required=True)
@click.option("--suite", "suite_path", type=click.Path(exists=True), default=None)
@click.option("--policy", "policy_path", type=click.Path(exists=True), default=None,
              help="Trained policy (required for RLOnly and Proposed).")
@click.option("--episodes", type=int, default=None)
@click.option("--disable", "disable_csv", default=None,
              help="Comma-separated components to ablate: reasoner,rl,ledger.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@handles_errors
def evaluate(arm, suite_path, policy_path, episodes, disable_csv, config_path,
             seed, out_dir):
    """Run one evaluation arm over the scenario suite and write reports."""
    doc = _load_config(config_path)
    suite = _load_suite(suite_path)
    section = doc.get("evaluate", {})
    check_fields(section, _EVALUATE_FIELDS, "evaluate config")
    if episodes is not None:
        section = {**section, "episodes": episodes}
    options = evaluation.ExperimentOptions(
        env_config=env_config_from_dict(doc.get("env", {})), **section)
    kind = evaluation.BaselineKind(arm)
    if policy_path and kind not in (evaluation.BaselineKind.RL_ONLY,
                                    evaluation.BaselineKind.PROPOSED):
        raise ConfigError("--policy applies to the RLOnly and Proposed arms only")
    policy = learning.load_policy(policy_path) if policy_path else None
    out = Path(out_dir)
    if disable_csv is not None:
        if kind is not evaluation.BaselineKind.PROPOSED:
            raise ConfigError("--disable applies to the Proposed arm only")
        disable = {part.strip() for part in disable_csv.split(",") if part.strip()}
        result = evaluation.ablation(suite, seed, policy, disable, options)
        _write_json(out / "ablation.json", result)
        click.echo(f"ablation ({', '.join(sorted(disable))} disabled) -> "
                   f"{out / 'ablation.json'}")
        return
    report, records, artifacts = evaluation.run_experiment(
        kind, suite, seed, policy, options)
    _write_json(out / "report.json", report.to_dict())
    _write_json(out / "records.json", [r.to_dict() for r in records])
    if artifacts is not None:
        ledger_mod.write_chain(artifacts.chain, str(out / "ledger.bin"))
        verdict = ledger_mod.verify_chain(
            artifacts.chain, artifacts.validators, artifacts.acl)
        if isinstance(verdict, ledger_mod.ChainInvalid):
            _fail(EXIT_VERIFY,
                  f"ledger verification failed: block {verdict.first_bad_index} "
                  f"({verdict.reason})")
    click.echo(f"{arm}: {report.episodes} episodes, "
               f"MTTM {report.mttm_minutes:.2f} min, "
               f"autonomy {report.autonomy_rate:.3f} -> {out / 'report.json'}")


@main.command()
@click.argument("reports", nargs=-1, type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), required=True)
@handles_errors
def compare(reports, out_dir):
    """Build per-class F1, MTTM and overhead tables from report files."""
    loaded = [evaluation.MetricsReport.from_dict(load_json(path)) for path in reports]
    tables = evaluation.compare(loaded)
    out = Path(out_dir)
    _write_json(out / "tables.json", tables)
    for name, text in evaluation.comparison_csv(tables).items():
        (out / f"{name}.csv").write_text(text, encoding="utf-8")
    click.echo(f"wrote {out / 'tables.json'} and CSV tables for "
               f"{', '.join(sorted(tables))}")


@main.group()
def ledger():
    """Audit-chain operations."""


@ledger.command("verify")
@click.option("--chain", "chain_path", type=click.Path(exists=True), required=True)
@click.option("--validators", "n_validators", type=int,
              default=ledger_mod.DEFAULT_VALIDATORS, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed the validator set was generated from.")
@handles_errors
def ledger_verify(chain_path, n_validators, seed):
    """Re-verify every link, root, signature, quorum and ACL in a chain file."""
    validators, _keys = ledger_mod.generate_validators(n_validators, seed)
    verdict = ledger_mod.verify_chain_file(
        chain_path, validators, ledger_mod.default_acl())
    if isinstance(verdict, ledger_mod.ChainInvalid):
        click.echo(f"INVALID at block {verdict.first_bad_index}: {verdict.reason}")
        sys.exit(EXIT_VERIFY)
    click.echo("VALID")


@ledger.command("show")
@click.option("--chain", "chain_path", type=click.Path(exists=True), required=True)
@handles_errors
def ledger_show(chain_path):
    """Print a one-line summary per block."""
    for block in ledger_mod.read_chain(chain_path):
        click.echo(
            f"block {block.index}: {len(block.entries)} entries, "
            f"{len(block.signatures)} signatures, t={block.timestamp}, "
            f"hash {block.hash().hex()[:16]}"
        )


@main.group(name="protocol")
def protocol_group():
    """Message-layer utilities."""


@protocol_group.command("replay")
@click.option("--frames", "frames_path", type=click.Path(exists=True), required=True,
              help="Newline-delimited request frames.")
@click.option("--scenarios", "scenarios_path", type=click.Path(exists=True),
              default=None)
@click.option("--index", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@handles_errors
def protocol_replay(frames_path, scenarios_path, index, seed, out_path):
    """Replay request frames against a fresh simulated run.

    The run is registered under the alias "demo" as well as its own id.
    """
    scenarios = _run_scenarios(_load_suite(scenarios_path), index)
    env = PipelineEnv()
    state = env.reset(scenarios, seed)
    connector = protocol.SimulatedConnector()
    connector.register(state.run_id, env, state)
    connector.runs["demo"] = connector.runs[state.run_id]
    frames = Path(frames_path).read_bytes().split(b"\n")
    responses = protocol.replay([f + b"\n" for f in frames if f],
                                connector.registry())
    payload = b"".join(responses)
    if out_path:
        Path(out_path).write_bytes(payload)
    click.echo(payload.decode("utf-8"), nl=False)


@main.command()
@click.option("--out", "out_path", type=click.Path(), required=True)
@handles_errors
def suite(out_path):
    """Write the shipped calibration scenario suite as JSON."""
    doc = [scenario_to_dict(s) for s in evaluation.calibration_suite()]
    _write_json(Path(out_path), doc)
    click.echo(f"wrote {len(doc)} scenarios -> {out_path}")


if __name__ == "__main__":
    main()
