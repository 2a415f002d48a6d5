"""Writes perfbench/reference/<workload>.npz: the default-seed outputs the benchmark compares against.

Run from the root of a checkout, with single-threaded BLAS:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 QDSPIN_WORKERS=1 PYTHONPATH=src \\
        python3 perfbench/make_reference.py [workload ...]

Each file holds, for the first `reference_ops` operations of the default
seed, every numeric output column as an array keyed "op<i>.<output>".
Regenerate only when an output is meant to change; the benchmark accepts
differences up to 1e-12 absolute.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from child import REFERENCE_DIR, run_op
from workloads import DEFAULT_SEED, WORKLOADS, warm_up


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        workdir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=REFERENCE_DIR))
        try:
            warm_up(workdir)
            arrays = {}
            for index in range(workload.reference_ops):
                record = run_op(workload, DEFAULT_SEED, index, workdir)
                if record["failures"]:
                    print(f"{name} op {index} failed: {record['failures']}", file=sys.stderr)
                    return 1
                arrays.update({f"op{index}.{kind}": v for kind, v in record["outputs"].items()})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        np.savez_compressed(REFERENCE_DIR / f"{name}.npz", **arrays)
        print(f"wrote {name}.npz ({len(arrays)} arrays)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
