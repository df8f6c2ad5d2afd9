"""Golden-output gate: the CLI's output bytes must match the recorded digests.

Runs ``pipeguard.cli.main`` in-process through the baseline sequence
(train a DQN policy, then evaluate the Proposed and RuleBased arms) and
compares the sha256 of each output file with the digest recorded in
ROADMAP.md. A speed-up that changes behaviour fails here.
"""

from __future__ import annotations

import hashlib
import os

from click.testing import CliRunner

from pipeguard.cli import main

EXPECTED = {
    "policy.json": "76fb25f03d325a389b3f898a62bde6687b2873815f2fb41b0e69dadf359efd64",
    "proposed/report.json": "e1f8dd48297a6dc2eb439aae352c6c56e3ae74983a7c9dc332214304d7b33fe4",
    "proposed/records.json": "fe22eb57621cb99545af9ffb4ba928b1c4c2ae416654af3cddaa9f2d2f5c26ab",
    "proposed/ledger.bin": "e237eb403b592d7139463634c001f43af61083c8db787d7e96ba81e444c398c3",
    "rulebased/report.json": "ab8b561ec3a4547525189485138e2992e023dd0e4848fd142af6af5359fb6bd9",
    "rulebased/records.json": "04fc916fcaf93626a4948b2c3f0035f5e4a9cac80152d34e2d93e10203bd8485",
}


def run_gate(workdir: str) -> tuple[dict[str, str | None], list[str]]:
    """Run the baseline CLI sequence in ``workdir``.

    Returns, per output file, None when its digest matches or else what went
    wrong, plus one line for each command that exited non-zero.
    """
    policy = os.path.join(workdir, "policy.json")
    commands = [
        ["train", "--algorithm", "DQN", "--episodes", "3000",
         "--learning-rate", "0.3", "--seed", "0", "--out", policy],
        ["evaluate", "--arm", "Proposed", "--policy", policy, "--episodes", "200",
         "--seed", "7", "--out", os.path.join(workdir, "proposed")],
        ["evaluate", "--arm", "RuleBased", "--episodes", "200", "--seed", "7",
         "--out", os.path.join(workdir, "rulebased")],
    ]
    runner = CliRunner()
    errors = []
    for args in commands:
        result = runner.invoke(main, args)
        if result.exit_code != 0:
            errors.append(f"pipeguard {' '.join(args[:3])} exited "
                          f"{result.exit_code}: {result.output.strip()}")
    verdicts: dict[str, str | None] = {}
    for name, want in EXPECTED.items():
        path = os.path.join(workdir, name)
        if not os.path.exists(path):
            verdicts[name] = "missing"
            continue
        with open(path, "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        verdicts[name] = None if got == want else f"sha256 {got}, expected {want}"
    return verdicts, errors
