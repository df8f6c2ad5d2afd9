#!/usr/bin/env python3
"""pipeguard benchmark.

    python3 bench/run.py --workload {train,evaluate,audit} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a pipeguard checkout; pipeguard is imported from
./src. One run:

1. runs the golden-output gate (untimed): the CLI's baseline outputs must
   match their recorded sha256 digests;
2. sets the workload up from --seed, several times, and reports the median
   as ``setup_s``;
3. runs one untimed warm-up pass, then timed passes for --seconds. Each pass
   calls every phase of the workload once, closed loop, in one process and
   one thread. Every call checks its own output.

With ``--trace 1`` half the time is measured untraced, a quarter with spans
recorded around each layer boundary (see tracing.py) and a quarter with only
the outer spans whose latency percentiles are reported, so that those
exclude the wrappers of nested spans. The per-layer metrics come from the
traced passes, and the spans are written to
bench/out/trace-<workload>-seed<seed>.npz.

Lines starting with ``#`` are the human-readable report. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 only when every checked output was correct.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

# One thread: pin the BLAS and OpenMP pools before numpy is first imported
# (pipeguard, and with it numpy, is imported only inside main()).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "pipeguard"
OUT = BENCH / "out"
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
SETUP_MAX = 1000
REWRITES = 3


class Tally:
    """Counts checked operations; a digest check passes when it repeats the
    first digest seen under the same key."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._refs: dict[str, bytes] = {}

    def record(self, key: str, outcome, detail: str = "") -> None:
        self.attempted += 1
        if isinstance(outcome, bytes):
            ok = self._refs.setdefault(key, outcome) == outcome
        else:
            ok = bool(outcome)
        if not ok:
            self.failed += 1
            print(f"# FAILED {key} {detail}".rstrip())


def run_pass(phases, tally: Tally) -> dict[str, float]:
    """One call of every op, in order; returns the timed seconds per phase."""
    times = {}
    for phase in phases:
        total = 0.0
        for op in phase.ops:
            gc.collect()
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a crashing op is a failed op; keep going
                total += time.perf_counter() - start
                tally.record(op.name, False, f"{type(exc).__name__}: {exc}")
                continue
            total += time.perf_counter() - start
            tally.record(op.name, op.check(result))
        times[phase.name] = total
    return times


def measure(phases, seconds: float, tally: Tally) -> list[dict[str, float]]:
    """Repeat passes until ``seconds`` have gone by (at least one pass)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(phases, tally))
    return passes


def more_setups(times: list[float], trace: bool) -> bool:
    """Set up at least SETUP_REPEATS times, and repeat a cheap set-up until
    it has taken SETUP_MIN_S in all, so that its median is steady. A traced
    run reports no ``setup_s`` and sets up once."""
    if not times:
        return True
    if trace or len(times) >= SETUP_MAX:
        return False
    return len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S


def traced_write_path(tracer, make, seed: int, tmpdir: str):
    """Set the workload up once with only the ledger write path traced, then
    rewrite its chain file over the existing file REWRITES times.

    Returns the set-up and the reduced spans of each part; the second part is
    empty for a workload that writes no file.
    """
    import tracing
    tracer.install(tracing.WRITE_PATH)
    try:
        before = tracer.mark()
        setup = make(seed, tmpdir)
        written = tracer.mark()
        for _ in range(REWRITES if setup.rewrite else 0):
            setup.rewrite()
        return (setup, tracer.reduce(before, written)[0],
                tracer.reduce(written, tracer.mark())[0])
    finally:
        tracer.uninstall()


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path``, from /proc/self/mounts."""
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            mounts = [line.split()[1:3] for line in fh]
    except OSError:
        return "unknown"
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    for point, kind in mounts:
        inside = real == point or real.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, fstype = point, kind
    return fstype


def machine(tmpdir: str) -> str:
    versions = " ".join(f"{pkg}={metadata.version(pkg)}"
                        for pkg in ("numpy", "cryptography", "click"))
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"nproc={os.cpu_count()} python={platform.python_version()} {versions} "
            f"{threads} tmp_fs={filesystem_type(tmpdir)}")


def run(args, tmpdir: str) -> int:
    import golden
    import tracing
    import workloads
    from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer, phase_medians
    from pipeguard.evaluation import DEFAULT_ANALYSIS_COST

    tally = Tally()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# machine: {machine(tmpdir)}")

    verdicts, errors = golden.run_gate(os.path.join(tmpdir, "golden"))
    for line in errors:
        print(f"# golden: {line}")
    for name, problem in verdicts.items():
        tally.record(f"golden.{name}", problem is None, problem or "")
    print(f"# golden gate: {sum(p is None for p in verdicts.values())}/{len(verdicts)} "
          f"digests match")

    make = workloads.WORKLOADS[args.workload]
    setup_times = []
    # One collection before the repeats, not one per repeat: a collection
    # evicts the caches, which slows a set-up of microseconds (train's) by
    # 10-30%, by a different amount in each process.
    gc.collect()
    while more_setups(setup_times, args.trace):
        start = time.perf_counter()
        setup = make(args.seed, tmpdir)
        setup_times.append(time.perf_counter() - start)
        tally.record("setup", setup.digest())
    for key, value in setup.info().items():
        print(f"# input {key}: {value}")

    run_pass(setup.phases, tally)  # warm-up: fills caches, sets digest references
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(setup.phases, budget, tally)
    report = untraced
    if args.trace:
        tracer = tracing.Tracer()
        traced_setup, write_stats, rewrite_stats = traced_write_path(tracer, make, args.seed,
                                                                     tmpdir)
        tally.record("setup", traced_setup.digest())
        tracer.install()
        try:
            before = tracer.mark()
            traced = measure(traced_setup.phases, budget / 2, tally)
            stats, counters = tracer.reduce(before, tracer.mark())
        finally:
            tracer.uninstall()
        latency = {}
        for spans in tracing.LATENCY_SPANS:
            tracer.install(spans)
            try:
                before = tracer.mark()
                measure(traced_setup.phases, budget / 2 / len(tracing.LATENCY_SPANS), tally)
                latency.update(tracer.reduce(before, tracer.mark())[0])
            finally:
                tracer.uninstall()
        cost = {arm.value: minutes for arm, minutes in DEFAULT_ANALYSIS_COST.items()}
        metrics = per_layer(stats, counters, latency, write_stats, rewrite_stats,
                            untraced, traced, cost)
        units = PER_LAYER
        report = traced
        for arm, minutes in cost.items():
            measured = metrics[f"evaluation.decide.{arm}.p50_us"]
            if measured:
                print(f"# decide {arm}: measured p50 {measured:.2f} us/step "
                      f"(outer spans only), simulated analysis cost {minutes} min/step")
        if traced_setup.rewrite:
            print(f"# file I/O on {filesystem_type(tmpdir)}: write_chain to a new file "
                  f"{metrics['ledger.write_chain.self_s']:.6f} s, over an existing one "
                  f"{metrics['ledger.write_chain_existing.self_s']:.6f} s, "
                  f"read_chain {metrics['ledger.read_chain.self_s']:.6f} s")
    else:
        metrics = end_to_end(untraced, setup_times)
        units = END_TO_END

    phases = {p.name: p for p in setup.phases}
    for name, median in phase_medians(report).items():
        phase = phases[name]
        times = [p[name] for p in report]
        print(f"# {phase.metric} {phase.size / median:.6g} {phase.unit}/s "
              f"(phase {name}: median {median:.4f} s, min {min(times):.4f} s, "
              f"max {max(times):.4f} s, {len(times)} passes"
              f"{', traced' if args.trace else ''})")
    print(f"# setup_s over {len(setup_times)} set-ups: min {min(setup_times):.6f} s, "
          f"max {max(setup_times):.6f} s")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# failed_ops/attempted_ops = {tally.failed}/{tally.attempted}")
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(str(path))
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "evaluate", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run the benchmark "
              "from a pipeguard checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import pipeguard
    if Path(pipeguard.__file__).resolve().parent != PACKAGE:
        print(f"error: imported pipeguard from {pipeguard.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        return run(args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
