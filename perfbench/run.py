"""End-to-end benchmark of the neurodissip command line.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Runs whole rounds of one workload's CLI commands, in-process through
``neurodissip.cli.main``, until ``--seconds`` have passed; then checks the
outputs against independent numpy/LAPACK/scipy computations and prints one
JSON line: correct, attempted, failed and the metrics.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-module ones from a
traced pass (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


def measure_setup() -> float:
    """Median start-up of a fresh interpreter importing the CLI.

    Every command a user types pays this once; the in-process rounds do not,
    so it is reported on its own.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import neurodissip.cli as c; c.build_parser()"],
                       env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_round(cli, workload) -> tuple:
    """Run every command of one round; (per-command seconds, exit codes)."""
    sink = io.StringIO()
    durations, codes = [], []
    for op in workload.ops:
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            codes.append(cli.main(op.argv))
        durations.append(time.perf_counter() - start)
    return durations, codes


def run_for(cli, workload, seconds: float, on_round=None) -> list:
    """Whole rounds until `seconds` have passed (at least one).

    A further round starts only if, lasting as long as the last one, it
    would end within 1.5 x `seconds`: a run of long rounds on a slow host
    then stops early instead of running up to twice its time.
    """
    rounds = []
    start = time.perf_counter()
    last = 0.0
    while not rounds or (time.perf_counter() - start < seconds
                         and time.perf_counter() - start + last <= 1.5 * seconds):
        begin = time.perf_counter()
        result = run_round(cli, workload)
        last = time.perf_counter() - begin
        rounds.append(result)
        if on_round is not None:
            on_round()
    return rounds


def round_seconds(rounds: list) -> list:
    """Each command's median duration over the rounds, in round order.

    Medians per command keep a burst of host contention during one round
    from moving the figures when a run holds several rounds.
    """
    return [statistics.median(r[0][i] for r in rounds) for i in range(len(rounds[0][0]))]


def bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def unit_of(per_layer_name: str) -> str:
    if per_layer_name.endswith("_s"):
        return "s"
    return "bytes" if per_layer_name == "cli.bytes_written" else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "neurodissip" / "cli.py").is_file():
        print(f"error: no neurodissip sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the program's own pool
    # already uses every core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("NEURODISSIP_THREADS", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = measure_setup()
    from neurodissip import cli

    out_root = OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, str(out_root))

    # A traced run splits its time between untraced and traced rounds, so it
    # costs about as much as an untraced one.
    timed = args.seconds / 2 if args.trace else args.seconds
    rounds = run_for(cli, workload, timed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    commands = round_seconds(rounds)
    wall_s = sum(commands)

    per_layer = None
    if args.trace:
        from tracing import PER_LAYER, Tracer

        tracer = Tracer()
        tracer.install()
        for name in tracer.missing:
            print(f"trace: {name} not found, reported as 0 calls", file=sys.stderr)
        samples = []
        traced = run_for(cli, workload, timed,
                         on_round=lambda: samples.append(tracer.end_round()))
        samples[-1]["cli.bytes_written"] = bytes_under(out_root)
        with open(out_root / "trace.json", "w") as fh:
            json.dump(tracer.dump(), fh)
        samples[-1]["trace.overhead_s"] = sum(round_seconds(traced)) - wall_s
        per_layer = {}
        for name in PER_LAYER:
            key = "cli.write.self_s" if name == "cli.write_s" else name
            values = [s[key] for s in samples if key in s]
            per_layer[name] = statistics.median(values) if values else 0

    # Commands are deterministic, so the last round's outcome is every round's.
    failed_ops = set()
    configs = failed = 0
    for op, rc in zip(workload.ops, rounds[-1][1]):
        lost = workload.failures(op, rc)
        configs += op.configs
        failed += lost * len(rounds)
        if lost:
            failed_ops.add(id(op))
    attempted = configs * len(rounds)

    try:
        problems = workload.check(cli, failed_ops)
    except Exception as exc:  # an output the checks cannot read is wrong output
        traceback.print_exc()
        problems = [f"checks stopped: {exc!r}"]
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)

    if per_layer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "configs_per_s": (configs / wall_s, "1/s"),
            "cmd_p50_s": (statistics.median(commands), "s"),
        }
    else:
        metrics = {name: (value, unit_of(name)) for name, value in per_layer.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
