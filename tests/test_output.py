"""The one CSV writer: byte equality with the per-cell formatters it replaced, and the atomic write."""
import dataclasses
import os
import stat

import numpy as np
import pytest

import qdspin as q
from qdspin.config import write_csv
from qdspin.constants import InvalidParameterError
from qdspin.evolution import build_time_grid
from qdspin.magnetometry import SWEEP_COLUMNS

HEADERS = ["qdspin_version=0.1.0", 'config={"t_max": 5.0}', "kink_times_ns=none"]


# ---------------------------------------------------------------------------
# oracle: the per-row, per-cell formatters the writer replaced
# ---------------------------------------------------------------------------


def _text(headers, names, rows) -> str:
    return "\n".join([*(f"# {h}" for h in headers), names, *rows]) + "\n"


def channel_oracle(chan, headers) -> str:
    rows = [f"{t:.17g},{pv:.17g},{cv.real:.17g},{cv.imag:.17g}"
            for t, pv, cv in zip(chan.times, chan.p, chan.c)]
    return _text(headers, "t_ns,p,c_re,c_im", rows)


def trajectory_oracle(tr, headers, normalize="none") -> str:
    d_lo, d_hi = tr.normalized(normalize)

    def num(v: float) -> str:
        return "" if (isinstance(v, float) and np.isnan(v)) else f"{v:.17g}"

    rows = []
    for k in range(tr.times.size):
        rows.append(",".join([
            f"{tr.times[k]:.17g}", f"{tr.p[k]:.17g}", f"{tr.c[k].real:.17g}", f"{tr.c[k].imag:.17g}",
            num(float(tr.bell_a[k])), num(float(np.real(tr.bell_b[k]))), num(float(np.imag(tr.bell_b[k]))),
            f"{tr.purity[k]:.17g}", f"{tr.ds_lower[k]:.17g}", f"{tr.ds_upper[k]:.17g}",
            f"{d_lo[k]:.17g}", f"{d_hi[k]:.17g}", f"{tr.g[k]:.17g}", f"{tr.concurrence[k]:.17g}",
            *(f"{tr.st_weights[k, j]:.17g}" for j in range(4)),
        ]))
    names = ("t_ns,p,c_re,c_im,a,b_re,b_im,purity,ds_lo,ds_hi,d_lo,d_hi,g,concurrence,"
             "wTm1,wT0,wTp1,wS0")
    return _text(headers, names, rows)


def sweep_oracle(table, headers) -> str:
    def num(v) -> str:
        return "" if v is None else f"{v:.17g}"

    rows = []
    for r in table.rows:
        rows.append(",".join([
            f"{r['B_T']:.17g}", num(r["M"]),
            num(r["g_min_t"]), num(r["g_min_val"]),
            num(r["g_max_t"]), num(r["g_max_val"]),
            r["kink_times"], num(r["esd_t"]), num(r["d_longtime"]),
        ]))
    return _text(headers, "B_T,M,g_min_t,g_min_val,g_max_t,g_max_val,kink_times,esd_t,d_longtime", rows)


def calibration_oracle(curve, headers) -> str:
    rows = [f"{b:.17g},{v:.17g}" for b, v in zip(curve.b_knots, curve.values)]
    return _text(headers, f"B_T,{curve.quantity}", rows)


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chan_100mt():
    dot = q.DotParameters(b_field=0.1)
    return q.compute_channel(q.build_quadrature(dot, 5.0), build_time_grid(5.0))


def test_channel_csv_matches_oracle(tmp_path, chan_100mt):
    path = tmp_path / "chan.csv"
    chan_100mt.to_csv(path, header_lines=HEADERS)
    assert path.read_text() == channel_oracle(chan_100mt, HEADERS)


@pytest.mark.parametrize("normalize", ["none", "half"])
def test_trajectory_csv_matches_oracle(tmp_path, chan_100mt, normalize):
    traj = q.evolve(q.make_state(q.PhaseFamily(0.75 * np.pi)), chan_100mt)
    g = traj.g.copy()
    g[::7] = np.inf
    traj = dataclasses.replace(traj, g=g)
    assert np.isnan(traj.bell_a).any() and np.isnan(traj.bell_b.real).any()
    path = tmp_path / "traj.csv"
    traj.to_csv(path, header_lines=HEADERS, normalize=normalize)
    text = path.read_text()
    assert text == trajectory_oracle(traj, HEADERS, normalize)
    assert ",inf," in text


def test_trajectory_nan_g_prints_empty(tmp_path, chan_100mt):
    traj = q.evolve(q.make_state(q.Werner(0.0)), chan_100mt)  # every g is 0/0
    assert np.isnan(traj.g).all()
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == traj.times.size
    assert all(r[12] == "" for r in rows)
    assert "nan" not in path.read_text()


def test_sweep_csv_matches_oracle(tmp_path):
    def row(**cells):
        return {**dict.fromkeys(SWEEP_COLUMNS), "kink_times": "", **cells}

    rows = [
        row(B_T=np.float64(0.0)),
        row(B_T=0.011, M=5.127690168165193, g_min_t=14.3186450231, g_min_val=0.2294690237,
            g_max_t=18.590230045, g_max_val=0.263463913958, kink_times="4.67015289;8.10965389",
            esd_t=5.55, d_longtime=3.0045e-05),
        row(B_T=0.02, M=6.4, kink_times="1e-07", d_longtime=0.0),
    ]
    table = q.SweepTable(config=q.RunConfig(), rows=rows)
    path = tmp_path / "sweep.csv"
    table.to_csv(path, header_lines=HEADERS)
    text = path.read_text()
    assert text == sweep_oracle(table, HEADERS)
    assert "4.67015289;8.10965389" in text


def test_calibration_csv_matches_oracle(tmp_path):
    curve = q.CalibrationCurve(quantity="g_max_value", b_knots=np.array([0.0, 0.005, 0.011]),
                               values=np.array([0.31, 0.2634639139582, 0.0107567713]), monotone=True)
    path = tmp_path / "cal.csv"
    curve.to_csv(path, header_lines=HEADERS)
    assert path.read_text() == calibration_oracle(curve, HEADERS)


# ---------------------------------------------------------------------------
# the atomic write
# ---------------------------------------------------------------------------


def test_failed_replace_keeps_previous_file(tmp_path, monkeypatch, chan_100mt):
    path = tmp_path / "chan.csv"
    path.write_text("previous\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        chan_100mt.to_csv(path, header_lines=HEADERS)
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chan.csv"]


def test_raising_column_keeps_previous_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("previous\n")
    with pytest.raises(ValueError):
        write_csv(path, HEADERS, {"x": [1.0, 2.0], "y": [3.0, "not a number"]})
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_output_mode_matches_plain_open(tmp_path):
    with open(tmp_path / "plain.csv", "w") as f:
        f.write("x\n")
    write_csv(tmp_path / "atomic.csv", None, {"x": [1.0]})
    assert (tmp_path / "atomic.csv").read_text() == "x\n1\n"
    mode = lambda name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)  # noqa: E731
    assert mode("atomic.csv") == mode("plain.csv")


def test_non_regular_output_is_refused(tmp_path):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    with pytest.raises(InvalidParameterError, match="not a regular file"):
        write_csv(fifo, None, {"x": [1.0]})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe.csv"]
