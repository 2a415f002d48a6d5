"""Self-tests of the benchmark.  Slow: they run every workload, about four minutes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# per-layer metrics that count work; they must repeat exactly for one seed
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"]
                 if m["unit"] in ("count", "B") or m["name"] == "channel.repeat_share"]


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_the_gate(workload):
    out = result(bench(workload, trace=0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(bench(workload, trace=1)), result(bench(workload, trace=1))
    for out in (first, second):
        assert out["correct"] and out["failed"] == 0
        assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: out["metrics"][k]["value"] for k in COUNT_METRICS} for out in (first, second)]
    assert counts[0] == counts[1]
    assert first["metrics"]["channel.cp_worst_margin"]["value"] >= -1e-9
    assert first["metrics"]["evolution.min_eigenvalue"]["value"] >= -1e-8


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_gate_tolerance():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from child import reference_failures

    ref = {"op0.trajectory": np.array([[0.0, 1.0, np.nan, np.inf]])}
    assert reference_failures(ref, 0, {"trajectory": ref["op0.trajectory"] + 5e-13}) == []
    assert reference_failures(ref, 0, {"trajectory": ref["op0.trajectory"] + 2e-12})
    assert reference_failures(ref, 0, {"trajectory": np.zeros((2, 4))})
    assert reference_failures(ref, 1, {"trajectory": ref["op0.trajectory"]})
