"""The one CSV writer: byte equality with the per-cell formatters it replaced, and the atomic write."""
import copy
import math
import os
import stat
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdspin as q
from qdspin import config
from qdspin.config import write_csv
from qdspin.constants import InvalidParameterError
from qdspin.evolution import build_time_grid
from qdspin.magnetometry import SWEEP_COLUMNS

from conftest import csv_cell_oracle

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
    traj = copy.copy(traj)
    traj.g = g
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


def test_trajectory_not_of_x_form_prints_a_and_b_empty(tmp_path, chan_100mt):
    # the phase family carries local Bloch vectors at every time: no row is of Bell-diagonal X form
    traj = q.evolve(q.make_state(q.PhaseFamily(1.0)), chan_100mt)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == traj.times.size
    assert lines[0].split(",")[4:7] == ["a", "b_re", "b_im"]
    assert all(r[4:7] == ["", "", ""] for r in rows)


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


_SPECIAL_FLOATS = (
    float("nan"), -float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -2.5e-310,
    2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16, 123456789012345678.0,
    # exact ties at 17 digits: t / 2**k for odd t is t * 5**k / 10**k, here 18 digits ending in 5;
    # k = 24 scales by 1e23, the first power of ten that is not a double
    *(sign * t / 2**20 for t in (1049, 1051, 2047, 3333, 10483, 10485) for sign in (1, -1)),
    3 / 2**24, -13 / 2**24,
    # either side of %g's switches to the exponent form and of the powers of ten the digits are scaled by
    *(float(np.nextafter(v, toward)) for v in (1e-5, 1e-4, 1e16, 1e17, 1e22) for toward in (0.0, np.inf)),
)
_NUMBERS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(allow_subnormal=True))
_STRINGS = st.one_of(st.sampled_from(("", "nan", "NaN", "inf", "-0", "%s", "%.17g", "%%", "1e-07;2.5")),
                     st.text(alphabet="0123456789.;e-+naif%s\x00", max_size=12))


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=12))
    columns = {}
    for j in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(("array", "list", "strings")))
        if kind == "strings":
            column = draw(st.lists(_STRINGS, min_size=n_rows, max_size=n_rows))
        else:
            column = draw(st.lists(st.one_of(_NUMBERS, st.none()) if kind == "list" else _NUMBERS,
                                   min_size=n_rows, max_size=n_rows))
            column = np.array(column, dtype=float) if kind == "array" else column
        columns[f"col{j}"] = column
    return columns


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_writer_matches_the_per_cell_oracle(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, HEADERS, columns)
    assert path.read_text() == csv_cell_oracle(HEADERS, columns)


def _large_columns(with_strings: bool) -> dict:
    """~50k cells over many row blocks: random bit patterns, the specials, every power of ten and its
    neighbours, NaN and None."""
    rng = np.random.default_rng(28)
    n_rows = 4000
    bits = rng.integers(0, 2**64, size=(n_rows, 9), dtype=np.uint64).view(np.float64)
    tens = np.array([10.0**k for k in range(-323, 309)])
    pool = np.concatenate([_SPECIAL_FLOATS, tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), -tens])
    columns = {f"bits{k}": bits[:, k] for k in range(9)}
    columns["special"] = rng.choice(pool, n_rows)
    columns["none"] = [None if k % 3 == 0 else float(v) for k, v in enumerate(rng.choice(pool, n_rows))]
    columns["short"] = np.round(rng.uniform(-2e4, 2e4, n_rows), rng.integers(0, 7))
    if with_strings:
        columns["text"] = [f"{k};\x00{k % 7}" for k in range(n_rows)]
    return columns


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("with_strings", [False, True], ids=["numbers", "with-strings"])
def test_large_table_matches_the_per_cell_oracle_without_warnings(tmp_path, with_strings):
    columns = _large_columns(with_strings)
    path = tmp_path / "large.csv"
    with np.errstate(all="raise"):
        write_csv(path, HEADERS, columns)
    assert path.read_text() == csv_cell_oracle(HEADERS, columns)


def _near_half_inputs(count: int) -> np.ndarray:
    """`count` cells x = +-m * 2**(s + 21) in [1e37, 1e38), m a 53-bit integer, cycled with both signs.

    x * 1e-21 = m * 2**s / 5**21 has 17 integer digits and, with
    m * 2**s = (5**21 +- 1)/2 mod 5**21, lies 1/(2 * 5**21) ~ 1.05e-15 from a half.
    """
    mod = 5**21
    values = []
    for s in range(45, 56):
        inverse = pow(2**s, -1, mod)
        for residue in ((mod - 1) // 2, (mod + 1) // 2):
            m0 = residue * inverse % mod
            for m in range(2**52 + (m0 - 2**52) % mod, 2**53, mod):
                if 10**37 <= m * 2**(s + 21) < 10**38:
                    values.append(float(m * 2**(s + 21)))
    return np.resize(np.array(values + [-v for v in values]), count)


def test_near_half_cells_take_the_tie_route(tmp_path, monkeypatch):
    # the scaled remainder r may be off by ~1e-14; moved 2e-15 across the half it lies near, the
    # rounding of r goes the wrong way, and only the tie check sends the cell to '%.17g'
    scaled = config._scaled

    def across_the_half(ax, j):
        p, r = scaled(ax, j)
        return p, r - np.copysign(2e-15, r - np.floor(r) - 0.5)

    monkeypatch.setattr(config, "_scaled", across_the_half)
    columns = {"x": _near_half_inputs(500)}
    path = tmp_path / "ties.csv"
    write_csv(path, None, columns)
    assert path.read_text() == csv_cell_oracle(None, columns)


def template_oracle(header_lines, columns) -> str:
    """The cell-by-cell route tables with strings once took: a `'%.17g'` or `'%s'` spec per cell, the specs
    joined into one template and filled by one `%`."""
    specs, cells = [], []
    for column in columns.values():
        if not isinstance(column, np.ndarray) and all(isinstance(v, str) for v in column):
            specs.append(["%s"] * len(column))
            cells.append(list(column))
        else:
            values = np.asarray(column, dtype=float).tolist()
            specs.append(["%s" if math.isnan(v) else "%.17g" for v in values])
            cells.append(["" if math.isnan(v) else v for v in values])
    text = "\n".join([*(f"# {h}" for h in header_lines or ()), ",".join(columns)]) + "\n"
    if cells[0]:
        text += "\n".join(map(",".join, zip(*specs))) % tuple(chain.from_iterable(zip(*cells))) + "\n"
    return text


def _tables_with_strings() -> dict:
    rng = np.random.default_rng(32)
    n_rows = 1000  # 9 000 cells: three row blocks of the bulk formatter
    specials = [None, float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, 3 / 2**24, -13 / 2**24]
    sweep = {name: rng.uniform(-1e3, 1e3, n_rows).tolist() for name in SWEEP_COLUMNS}
    sweep["M"] = [specials[k % len(specials)] for k in range(n_rows)]
    sweep["g_min_t"] = [None] * n_rows
    sweep["kink_times"] = ["" if k % 3 else f"{k * 0.01:.9g};{k * 0.02:.9g}" for k in range(n_rows)]
    sweep["d_longtime"] = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    return {
        "sweep": sweep,
        "strings-first-and-last": {"first": ["", "a", "%s", "-0"], "x": [None, -0.0, 5e-324, float("inf")],
                                   "y": np.array([float("nan"), 3 / 2**24, 0.1, -float("inf")]),
                                   "last": ["1e-07;2.5", "", "", "b,c"]},
        "all-none": {"x": [None, None, None], "s": ["", "", ""]},
        "one-string-column": {"s": ["", "x", ""]},
        "zero-rows": {"s": [], "x": np.array([]), "y": []},
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(_tables_with_strings()))
def test_tables_with_strings_match_the_template_oracle(tmp_path, name):
    columns = _tables_with_strings()[name]
    path = tmp_path / "t.csv"
    write_csv(path, HEADERS, columns)
    assert path.read_text() == template_oracle(HEADERS, columns)


def test_writer_keeps_string_cells_verbatim_and_blanks_only_numeric_nan(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, None, {"x": [float("nan"), None, -0.0, float("inf")], "s": ["nan", "%s", "", "a%%b"],
                           "y": np.array([5e-324, float("nan"), 1.0, -float("inf")])})
    assert path.read_text() == "x,s,y\n,nan,4.9406564584124654e-324\n,%s,\n-0,,1\ninf,a%%b,-inf\n"


# ---------------------------------------------------------------------------
# the atomic write
# ---------------------------------------------------------------------------


def test_failed_replace_keeps_previous_file(tmp_path, monkeypatch, chan_100mt):
    path = tmp_path / "chan.csv"
    path.write_text("previous\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(InvalidParameterError, match="chan.csv' cannot be written: disk full"):
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


def test_name_too_long_is_refused_and_leaves_no_file(tmp_path):
    with pytest.raises(InvalidParameterError, match="cannot be written: File name too long"):
        write_csv(tmp_path / ("x" * 296 + ".csv"), None, {"x": [1.0]})
    assert list(tmp_path.iterdir()) == []
    # a name near the file system's limit still leaves room for the temporary file beside it
    longest = tmp_path / ("y" * 251 + ".csv")
    write_csv(longest, None, {"x": [1.0]})
    assert [p.name for p in tmp_path.iterdir()] == [longest.name]
    assert longest.read_text() == "x\n1\n"
