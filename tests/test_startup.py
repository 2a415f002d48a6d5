"""Import graph of a fresh interpreter: no qdspin command loads scipy, and the
process pool loads only with the calls that use it.

Each test runs its code in a new interpreter, because this one already
holds scipy (the tests' independent oracle).
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import qdspin

SRC = str(Path(qdspin.__file__).resolve().parents[1])

# prints the deferred modules a fresh interpreter holds at that point
LOADED = """
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures.process")))
"""


def _fresh(code: str) -> list[list[str]]:
    """Run `code` in a new interpreter; one list of deferred modules per LOADED it runs."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]


def test_cli_import_version_and_usage_error_load_no_scipy_and_no_pool():
    snapshots = _fresh(f"""
import contextlib, io
import qdspin.cli
{LOADED}
import qdspin.acceptance
{LOADED}
with contextlib.redirect_stdout(io.StringIO()):
    try:
        qdspin.cli.main(["--version"])
    except SystemExit:
        pass
{LOADED}
with contextlib.redirect_stderr(io.StringIO()):
    assert qdspin.cli.main(["evolve", "--state", "nope", "--b", "0.1"]) == 2
{LOADED}
""")
    assert snapshots == [[], [], [], []]


def test_sweep_of_every_metric_loads_no_scipy(tmp_path):
    out, cfg = tmp_path / "s.csv", tmp_path / "run.json"
    cfg.write_text(json.dumps({"m_window": [0.0, 1.0], "longtime_window": [0.5, 1.0]}))
    (loaded,) = _fresh(f"""
import contextlib, io
from qdspin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["sweep", "--config", {str(cfg)!r}, "--metric", "all", "--state", "werner:p=0.33",
                 "--b", "0.01", "--tmax", "1", "--out", {str(out)!r}]) == 0
{LOADED}
""")
    assert loaded == []
    assert out.exists()


def test_evolve_loads_no_scipy_and_no_pool(tmp_path):
    out = tmp_path / "t.csv"
    (loaded,) = _fresh(f"""
import contextlib, io
from qdspin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["evolve", "--state", "bell:psi-", "--b", "0.1", "--tmax", "1", "--out", {str(out)!r}]) == 0
{LOADED}
""")
    assert loaded == []
    assert out.exists()


def test_verify_evolve_and_m_sweep_run_with_scipy_unimportable(tmp_path):
    # None in sys.modules makes every `import scipy...` raise ImportError
    _fresh(f"""
sys.modules["scipy"] = None
import contextlib, io
from qdspin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "--only", "1,2,7"]) == 0
    assert main(["evolve", "--state", "bell:psi-", "--b", "0.1", "--out", {str(tmp_path / "t.csv")!r}]) == 0
    assert main(["sweep", "--metric", "M", "--b", "0.01,0.02", "--out", {str(tmp_path / "m.csv")!r}]) == 0
""")
    assert (tmp_path / "t.csv").exists() and (tmp_path / "m.csv").exists()


def test_oracle_and_worker_pool_run_in_a_fresh_interpreter():
    _fresh("""
from qdspin import Bell, RunConfig, make_state, oracle_one_sided_discord, run_sweep
assert abs(oracle_one_sided_discord(make_state(Bell("psi-")), grid_resolution=8) - 0.5) < 1e-12
config = RunConfig(b_fields=[0.0, 0.01], t_max=1.0, m_window=[0.0, 1.0], metric="M", workers=2)
pooled = [r["M"] for r in run_sweep(config).rows]
assert "concurrent.futures.process" in sys.modules
config.workers = 1
assert pooled == [r["M"] for r in run_sweep(config).rows], pooled
""")
