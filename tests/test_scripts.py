"""The example scripts at the small arguments CI runs them with: every CSV they write carries the header rule,
and an error exits as the CLI's does."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdspin
from qdspin import RunConfig
from qdspin.config import COMMAND_FIELDS, METRIC_SETS, WINDOW_METRICS

SRC = str(Path(qdspin.__file__).resolve().parents[1])
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# script, its arguments in CI, and the CSVs it writes there
RUNS = [
    ("field_integral_sweep.py", ["--points", "3", "--workers", "2"], 2),
    ("phase_family_curves.py", ["--tmax", "5"], 16),
    ("discord_decay_curves.py", ["--t-short", "5", "--t-long", "200"], 6),
    ("g_observable_curves.py", ["--points", "3"], 6),
]


def _run_script(script, args, outdir) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else ""), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / script), *args,
                           "--outdir", str(outdir)], env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script,args,n_csv", RUNS, ids=[r[0] for r in RUNS])
def test_every_script_csv_has_the_version_and_config_lines(script, args, n_csv, tmp_path):
    proc = _run_script(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == n_csv
    for csv in csvs:
        lines = csv.read_text().splitlines()
        headers = [line[2:] for line in lines if line.startswith("# ")]
        assert headers[0] == f"qdspin_version={qdspin.__version__}", csv.name
        assert headers[1].startswith("config="), csv.name
        # the echo holds the fields of the command whose CSV this is, a sweep's (B_T first) or a trajectory's,
        # less the windows a sweep's metric does not read
        echo = json.loads(headers[1].removeprefix("config="))
        command = "sweep" if lines[len(headers)].startswith("B_T,") else "evolve"
        unread = {window for window, metric in WINDOW_METRICS.items()
                  if command == "sweep" and metric not in METRIC_SETS[echo["metric"]]}
        assert sorted(echo) == sorted(set(COMMAND_FIELDS[command]) - unread), csv.name
        # and it is a configuration that runs
        RunConfig(**echo)


# script, arguments that a qdspin check or the scripts' argument parser refuses, the message's start, and the
# CSVs written before the refusal
REFUSED = [
    ("discord_decay_curves.py", ["--t-short", "5", "--t-long", "0.4"], "trajectory has no time inside", 5),
    ("phase_family_curves.py", ["--tmax", "-1"], "t_max must be finite and positive", 0),
    ("g_observable_curves.py", ["--points", "x"], "g_observable_curves.py: argument --points: invalid int value", 0),
    ("field_integral_sweep.py", ["--p", "nope"], "field_integral_sweep.py: argument --p: invalid float value", 0),
]


@pytest.mark.parametrize("script,args,message,n_csv", REFUSED, ids=[r[0] for r in REFUSED])
def test_a_refused_script_run_exits_2_with_one_json_record(script, args, message, n_csv, tmp_path):
    proc = _run_script(script, args, tmp_path)
    assert proc.returncode == 2, proc.stderr
    record = json.loads(proc.stderr)  # one JSON record and nothing else: no traceback
    assert record["error"] == "InvalidParameterError" and record["message"].startswith(message)
    assert len(list(tmp_path.glob("*.csv"))) == n_csv  # what was written before the error stays
