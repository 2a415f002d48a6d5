"""qdspin benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload evolve_short --seed 1 --seconds 10 --trace 0

Workloads, metrics and the layer each metric should move are described in
perfbench/README.md and BENCHMARK.json.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it are a readable report with quartiles, sample counts
and the recorded environment.

--trace 0 measures set-up time in fresh interpreters, then runs the
workload in a child process for --seconds and reports the end-to-end
metrics.  --trace 1 runs the workload's fixed trace set in a child
process, untraced and then traced, and reports the per-layer metrics;
the spans go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("evolve_short", "sweep_shared", "sweep_longtime", "measures_states")
SETUP_RUNS = 5
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "QDSPIN_WORKERS": "1"}

# time to import the command line and parse arguments in a fresh interpreter
SETUP_PROBE = """\
import contextlib, io, time
start = time.perf_counter()
import qdspin.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        qdspin.cli.main(["--version"])
    except SystemExit:
        pass
print(repr(time.perf_counter() - start))
"""


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **PINNED, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def remaining(start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 0:
        raise BenchmarkError(f"no time left within the {DEADLINE_S:g} s deadline")
    return left


def run_child(argv: list[str], start: float) -> str:
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=remaining(start))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{argv[1]} exceeded the {DEADLINE_S:g} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{' '.join(argv[1:3])} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return lines[-1]


def measure_setup(start: float) -> list[float]:
    return [float(run_child([sys.executable, "-c", SETUP_PROBE], start)) for _ in range(SETUP_RUNS)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(workload: str, result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics; op times are scaled by the run's machine-speed scale."""
    scale = result["speed_scale"]
    ops = [{**r, "seconds": r["seconds"] * scale} for r in result["ops"]]
    busy = sum(r["seconds"] for r in ops)
    states = sum(r["states"] for r in ops)
    fields = sum(r["fields"] for r in ops)
    # Each position of the cycle (an evolve state, a swept state) has its own cost,
    # so a median over all ops would jump between positions.  op_s averages the
    # positions' median times; states_per_s is one cycle's states over their sum,
    # so a slower op of any kind in the cycle shows in both.
    cycle = result["cycle"]
    position_s = [statistics.median(r["seconds"] for r in ops[k::cycle]) for k in range(cycle)]
    position_states = [statistics.median(r["states"] for r in ops[k::cycle]) for k in range(cycle)]
    op_s = sum(position_s) / cycle
    states_per_s = sum(position_states) / sum(position_s)
    cycles = [ops[k:k + cycle] for k in range(0, len(ops), cycle)]
    per_cycle = [sum(r["states"] for r in c) / sum(r["seconds"] for r in c) for c in cycles]
    s_q, op_q, st_q = quartiles(setup), quartiles([r["seconds"] for r in ops]), quartiles(per_cycle)
    metrics = {
        "setup_s": (s_q[1], "s"),
        "op_s": (op_s, "s"),
        "states_per_s": (states_per_s, "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    failed = sum(1 for r in ops if r["failures"])
    lines = [
        f"  setup_s       {s_q[1]:.4f} s    (median of {len(setup)} fresh interpreters; q1 {s_q[0]:.4f}, q3 {s_q[2]:.4f})",
        f"  op_s          {op_s:.4f} s    (mean of {cycle} positions' medians over {len(cycles)} cycles; "
        f"all {len(ops)} ops q1 {op_q[0]:.4f}, median {op_q[1]:.4f}, q3 {op_q[2]:.4f}; speed scale {scale:.4f})",
        f"  states_per_s  {states_per_s:.1f} 1/s  (over per-position medians of {len(cycles)} cycles; "
        f"per cycle q1 {st_q[0]:.1f}, median {st_q[1]:.1f}, q3 {st_q[2]:.1f}; "
        f"{states} states in {busy:.2f} s of operations)",
        f"  peak_rss_mb   {result['peak_rss_mb']:.1f} MB",
    ]
    if workload == "evolve_short":
        lines.append("  trajectory_s = op_s")
    elif fields:
        lines.append(f"  sweep_s = op_s; sweep_fields_per_s {fields / busy:.4f} 1/s ({fields} rows)")
    lines.append(f"  failed_frac   {failed / len(ops):.4f}   ({failed} of {len(ops)} ops)")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qdspin benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (SRC / "qdspin" / "cli.py").is_file():
        print(f"qdspin sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        setup = [] if args.trace else measure_setup(start)
        child = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
        result = json.loads(run_child(child, start))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    ops = result["ops"]
    failed = sum(1 for r in ops if r["failures"])
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"ops={len(ops)} failed={failed}")
    if args.trace:
        metrics = {k: tuple(v) for k, v in result["per_layer"].items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value!r} {unit}")
        if result["missing_targets"]:
            print(f"WARNING: trace targets not found: {', '.join(result['missing_targets'])}")
        print(f"spans: {result['spans_file']}")
    else:
        metrics, lines = end_to_end(args.workload, result, setup)
        print("\n".join(lines))
    for r in ops:
        for failure in r["failures"]:
            print(f"FAILED op {r['index']}: {failure}")
    if not result["env"]["blas_pinned"]:
        print("WARNING: BLAS threads are not pinned to 1; timings are not comparable")
    print(f"env: {json.dumps(result['env'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
