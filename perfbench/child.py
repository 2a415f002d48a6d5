"""Runs one workload of the qdspin benchmark in this process; prints one JSON line.

run.py starts it in a fresh interpreter with single-threaded BLAS and
QDSPIN_WORKERS=1.  One client issues the operations one after another
(a closed loop).  Untraced, it runs as many whole cycles of the workload
as fill about --seconds on the reference machine and reports each
operation's wall time and the run's machine-speed scale.  Traced
(--trace 1), it runs the workload's fixed trace set twice, first untraced
and then with spans, so that work counts repeat exactly for a seed and
the tracing overhead is measured on the same operations.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, REFERENCE_ATOL, WORKLOADS, warm_up

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Machine-speed probe.  On the shared cores the same operation runs up to
# ~40% faster or slower in phases lasting from tens of seconds to minutes,
# set by other tenants, more than a run's median can absorb.  The probe, a
# fixed mix of small numpy calls and pure-Python arithmetic from a Python
# loop and trig over 8x16448 arrays, independent of qdspin,
# runs Workload.probes times after every operation, outside the timed
# intervals; run.py multiplies operation times by the scale
# (PROBE_REF_S / median probe time of the run) ** Workload.probe_weight.
# The weight is a control-variate coefficient: the slope of log operation
# time on log probe time over runs.  It was measured at 0.4-0.6 for the
# channel-bound workloads, whose operations swing about half as much as the
# probe, and 0.9-1.2 for measures_states, whose small interpreter-bound
# calls swing like it.  With those weights the standard deviation of log
# time over run-length windows of 4-minute loops fell by a third to two
# thirds.  The probe does not depend on qdspin, so the
# scale has the same distribution on any two commits and cannot favour
# either.
PROBE_REF_S = 0.0150      # nominal probe time; 10-20 ms on 2 shared Intel Xeon cores
PROBE_EDGE = 5            # probes before the first and after the last operation
_PROBE_SMALL = [np.random.default_rng(i).normal(size=(3, 3)) for i in range(20)]
_PROBE_TRIG = np.linspace(0.0, 100.0, 8 * 16448).reshape(8, 16448)


def speed_probe() -> float:
    start = time.perf_counter()
    for m in _PROBE_SMALL:
        np.linalg.eigvalsh(m @ m.T)
        np.outer(m[0], m[1]).trace()
    for _ in range(2):
        np.sum(np.cos(_PROBE_TRIG) * np.sin(_PROBE_TRIG))
    acc = 0.0
    for k in range(60000):
        acc += k * 0.5
    return time.perf_counter() - start


def openblas_threads() -> int | None:
    """Thread count OpenBLAS reports at run time, or None where it cannot be asked."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    pins = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QDSPIN_WORKERS")}
    runtime = openblas_threads()
    return {
        **pins,
        "blas_threads_runtime": runtime,
        "blas_pinned": pins["OPENBLAS_NUM_THREADS"] == "1" and pins["OMP_NUM_THREADS"] == "1"
        and runtime in (None, 1),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
    }


def reference_failures(expected: dict[str, np.ndarray], index: int, got: dict[str, np.ndarray]) -> list[str]:
    out = []
    for kind, value in got.items():
        ref = expected.get(f"op{index}.{kind}")
        if ref is None:
            out.append(f"no reference for op{index}.{kind}")
        elif ref.shape != value.shape:
            out.append(f"{kind}: shape {value.shape}, reference {ref.shape}")
        else:
            close = np.isclose(value, ref, rtol=0.0, atol=REFERENCE_ATOL, equal_nan=True)
            if not close.all():
                worst = float(np.max(np.abs(value[~close] - ref[~close])))
                out.append(f"{kind}: {int((~close).sum())} cells differ from the reference (max {worst:.3e})")
    return out


def run_op(workload, seed: int, index: int, workdir: Path, reference=None, tracer=None) -> dict:
    """Run, time and check one operation; a failing operation is counted, not raised."""
    op = workload.op(seed, index, workdir)
    record = {"index": index, "seconds": None, "failures": [], "states": 0, "fields": 0, "csv_bytes": 0}
    start = time.perf_counter()
    try:
        if tracer is None:
            op.run()
        else:
            with tracer.span("bench.op", index):
                op.run()
        record["seconds"] = time.perf_counter() - start
        record["failures"] = op.check()
        if seed == DEFAULT_SEED and index < workload.reference_ops:
            record["outputs"] = op.outputs()
            if reference is not None:
                record["failures"] += reference_failures(reference, index, record["outputs"])
    except Exception as exc:  # the benchmark boundary: record the failure and go on
        if record["seconds"] is None:
            record["seconds"] = time.perf_counter() - start
        record["failures"].append(f"{type(exc).__name__}: {exc}")
    record["states"], record["fields"] = op.states, op.fields
    for path in op.files.values():
        if path.exists():
            record["csv_bytes"] += path.stat().st_size
            path.unlink()
    return record


def load_reference(workload) -> dict[str, np.ndarray]:
    path = REFERENCE_DIR / f"{workload.name}.npz"
    if not path.exists():
        return {}
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def timed_run(workload, seed: int, seconds: float, workdir: Path) -> dict:
    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    records = []
    probes = [speed_probe() for _ in range(PROBE_EDGE)]
    for i in range(workload.ops_for(seconds)):
        records.append(_summary(run_op(workload, seed, i, workdir, reference)))
        probes += [speed_probe() for _ in range(workload.probes)]
    probes += [speed_probe() for _ in range(PROBE_EDGE - 1)]
    scale = (PROBE_REF_S / statistics.median(probes)) ** workload.probe_weight
    return {"ops": records, "cycle": workload.cycle, "speed_scale": scale}


def traced_run(workload, seed: int, workdir: Path, spans_path: Path, env: dict) -> dict:
    from tracing import Tracer, WorkCounts, per_layer_metrics

    reference = load_reference(workload) if seed == DEFAULT_SEED else None
    indices = range(workload.trace_ops)
    untraced = [run_op(workload, seed, i, workdir, reference) for i in indices]
    tracer, work = Tracer(), WorkCounts()
    tracer.install()
    try:
        traced = []
        for i in indices:
            traced.append(run_op(workload, seed, i, workdir, reference, tracer))
            work.absorb(tracer.results)
    finally:
        tracer.uninstall()
    overhead = sum(r["seconds"] for r in traced) / sum(r["seconds"] for r in untraced) - 1.0
    metrics = per_layer_metrics(tracer.spans, work, sum(r["csv_bytes"] for r in traced), overhead)
    tracer.write(spans_path, [f"workload={workload.name}", f"seed={seed}", f"env={json.dumps(env)}"])
    return {
        "ops": [_summary(r) for r in untraced + traced],
        "per_layer": metrics,
        "missing_targets": tracer.missing,
        "spans_file": str(spans_path),
    }


def _summary(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "outputs"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=args.out_dir))
    try:
        warm_up(workdir)
        if args.trace:
            spans = args.out_dir / f"spans-{workload.name}-seed{args.seed}.csv"
            result = traced_run(workload, args.seed, workdir, spans, env)
        else:
            result = timed_run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = env
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
