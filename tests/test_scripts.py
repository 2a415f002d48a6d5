"""The example scripts at the small arguments CI runs them with: every CSV they write carries the header rule."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdspin
from qdspin import RunConfig
from qdspin.config import COMMAND_FIELDS

SRC = str(Path(qdspin.__file__).resolve().parents[1])
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script, its arguments in CI, and the CSVs it writes there
RUNS = [
    ("field_integral_sweep.py", ["--points", "3", "--workers", "2"], 2),
    ("phase_family_curves.py", ["--tmax", "5"], 16),
    ("discord_decay_curves.py", ["--t-short", "5", "--t-long", "200"], 6),
    ("g_observable_curves.py", ["--points", "3"], 6),
]


@pytest.mark.parametrize("script,args,n_csv", RUNS, ids=[r[0] for r in RUNS])
def test_every_script_csv_has_the_version_and_config_lines(script, args, n_csv, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else ""), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / script), *args,
                           "--outdir", str(tmp_path)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == n_csv
    for csv in csvs:
        lines = csv.read_text().splitlines()
        headers = [line[2:] for line in lines if line.startswith("# ")]
        assert headers[0] == f"qdspin_version={qdspin.__version__}", csv.name
        assert headers[1].startswith("config="), csv.name
        # the echo holds the fields of the command whose CSV this is, a sweep's (B_T first) or a trajectory's
        echo = json.loads(headers[1].removeprefix("config="))
        command = "sweep" if lines[len(headers)].startswith("B_T,") else "evolve"
        assert sorted(echo) == sorted(COMMAND_FIELDS[command]), csv.name
        # and it is a configuration that runs
        RunConfig(**echo)
