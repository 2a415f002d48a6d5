"""Run configuration, the small spec parsers and the CSV file format.

Every CSV qdspin writes goes through `write_csv`, so `header_lines`, which
echoes the fields `COMMAND_FIELDS` says its command applies, and the cell
rules below are the whole output format. A number is written
as `'%.17g' % v`, and every number of every table gets those bytes from
`_format_numbers`, which formats a block of rows in one pass of numpy
arithmetic instead of one Python format call per cell.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .constants import DotParameters, InvalidParameterError
from .states import (
    Bell,
    BellDiagonal,
    EntFamily,
    PhaseFamily,
    StateSpec,
    Werner,
    load_raw_state,
)

NORMALIZE_MODES = ("none", "initial", "half")
DEFAULT_M_WINDOW = (0.0, 20.0)
DEFAULT_LONGTIME_WINDOW = (4000.0, 6000.0)
MAX_FIELD_POINTS = 100_000  # fields a start:stop:step range may expand to
# the metric names a sweep accepts; "all" extracts every metric
METRIC_SETS = {
    "M": ("M",),
    "g-extrema": ("g-extrema",),
    "esd": ("esd",),
    "longtime": ("longtime",),
    "all": ("M", "g-extrema", "esd", "kinks", "longtime"),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int or float inside the finite float range."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# the RunConfig fields each command applies and echoes; its file may also set `out` (and a sweep's `workers`),
# which changes no output byte
_RUN_FIELDS = ("a_total", "n_nuclei", "i_nuclear", "g_factor", "state", "b_fields", "t_max", "dt", "m_nodes", "q_nodes")
COMMAND_FIELDS = {
    "evolve": (*_RUN_FIELDS, "normalize"),
    "sweep": (*_RUN_FIELDS, "metric", "m_window", "longtime_window"),
}
# the metric that reads each window: a sweep whose metric set lacks it applies, and echoes, no such window
WINDOW_METRICS = {"m_window": "M", "longtime_window": "longtime"}


@dataclass
class RunConfig:
    """Everything a reproducible run needs; defaults reproduce the GaAs setup.

    The material defaults are `DotParameters`' own, and `build_time_grid`
    takes its default step from here, so each is written once; the long
    grid's layout is `build_time_grid`'s own constants.
    """

    a_total: float = DotParameters.a_total
    n_nuclei: float = DotParameters.n_nuclei
    i_nuclear: float = DotParameters.i_nuclear
    g_factor: float = DotParameters.g_factor
    state: str = "bell:psi-"
    b_fields: list[float] = field(default_factory=lambda: [0.0])
    t_max: float = 20.0
    dt: float = 0.02
    m_nodes: int | None = None
    q_nodes: int | None = None
    normalize: str = "none"
    m_window: list[float] = field(default_factory=lambda: list(DEFAULT_M_WINDOW))
    longtime_window: list[float] = field(default_factory=lambda: list(DEFAULT_LONGTIME_WINDOW))
    metric: str = "M"
    out: str | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        def require(ok: bool, name: str, what: str) -> None:
            if not ok:
                raise InvalidParameterError(f"{name} must be {what}, got {getattr(self, name)!r}")

        for name in ("a_total", "n_nuclei", "i_nuclear", "g_factor"):
            require(_is_real(getattr(self, name)), name, "a finite number")
        for name in ("t_max", "dt"):
            value = getattr(self, name)
            require(_is_real(value) and value > 0, name, "finite and positive")
        require(isinstance(self.b_fields, (list, tuple)) and all(map(_is_real, self.b_fields)),
                "b_fields", "a list of finite numbers")
        for name in ("m_window", "longtime_window"):
            value = getattr(self, name)
            require(isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value))
                    and 0 <= value[0] < value[1],
                    name, "a [start, stop] pair of finite numbers with 0 <= start < stop")
        for name in ("m_nodes", "q_nodes"):
            value = getattr(self, name)
            require(value is None or (_is_int(value) and value >= 3), name, "an integer of at least 3, or null")
        require(self.workers is None or (_is_int(self.workers) and self.workers >= 1),
                "workers", "a positive integer or null")
        require(isinstance(self.state, str), "state", "a state spec string")
        require(self.out is None or isinstance(self.out, str), "out", "a path string or null")
        for name, choices in (("normalize", NORMALIZE_MODES), ("metric", tuple(METRIC_SETS))):
            value = getattr(self, name)
            require(isinstance(value, str) and value in choices, name, f"one of {choices}")
        # the material parameters' own range checks, at the strongest field
        self.dot(max(self.b_fields, key=abs, default=0.0))

    def dot(self, b_field: float) -> DotParameters:
        return DotParameters(
            a_total=self.a_total,
            n_nuclei=self.n_nuclei,
            i_nuclear=self.i_nuclear,
            b_field=b_field,
            g_factor=self.g_factor,
        )


def parse_state_spec(text: str) -> StateSpec:
    """Parse CLI state specifications.

    Forms: bell:psi-|psi+|phi-|phi+, werner:p=0.33,
    belldiag:a=0.4,b=0.4, phase:gamma=1.5707963,
    entfam:a=0.25,alpha=0,beta=0, raw:<path.json|path.csv>.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()

    def kv(defaults: dict[str, float]) -> dict[str, float]:
        out = dict(defaults)
        if rest.strip():
            for item in rest.split(","):
                key, _, val = item.partition("=")
                key = key.strip()
                if key not in out:
                    raise InvalidParameterError(f"unknown parameter {key!r} in state spec {text!r}")
                try:
                    out[key] = float(val)
                except ValueError as exc:
                    raise InvalidParameterError(f"bad number {val!r} in state spec {text!r}") from exc
        return out

    if kind == "bell":
        return Bell(rest.strip().lower() or "psi-")
    if kind == "werner":
        return Werner(p=kv({"p": 1.0})["p"])
    if kind == "belldiag":
        params = kv({"a": 0.5, "b": 0.5, "b_im": 0.0})
        return BellDiagonal(a=params["a"], b=complex(params["b"], params["b_im"]))
    if kind == "phase":
        return PhaseFamily(gamma=kv({"gamma": 3.141592653589793})["gamma"])
    if kind == "entfam":
        params = kv({"a": 0.25, "alpha": 0.0, "beta": 0.0})
        return EntFamily(a=params["a"], alpha=params["alpha"], beta=params["beta"])
    if kind == "raw":
        from .states import Raw

        return Raw(load_raw_state(rest.strip()).rho)
    raise InvalidParameterError(
        f"unknown state kind {kind!r}; expected bell, werner, belldiag, phase, entfam or raw"
    )


def parse_b_values(text: str) -> list[float]:
    """Parse field lists: 'start:stop:step' (inclusive), comma list, or single value (Tesla)."""
    text = text.strip()
    if not text:
        raise InvalidParameterError("empty field specification")

    def number(part: str) -> float:
        try:
            value = float(part)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise InvalidParameterError(f"field value {part.strip()!r} in {text!r} is not a finite number")
        return value

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidParameterError(f"field range must be start:stop:step, got {text!r}")
        start, stop, step = map(number, parts)
        if step <= 0:
            raise InvalidParameterError(f"field step must be positive, got {step}")
        span = (stop - start) / step
        if not (math.isfinite(span) and round(span) < MAX_FIELD_POINTS):
            raise InvalidParameterError(
                f"field range {text!r} holds more than MAX_FIELD_POINTS = {MAX_FIELD_POINTS} fields"
            )
        n = int(round(span))
        if n < 0:
            raise InvalidParameterError(f"field range {text!r} is empty")
        values = [start + k * step for k in range(n + 1)]
        if values and values[-1] > stop + 1e-12:
            values.pop()
        return values
    return [number(p) for p in text.split(",") if p.strip() != ""]


def header_lines(config: RunConfig, command: str, extra: dict | None = None) -> list[str]:
    """Comment header: version, the echo of `COMMAND_FIELDS[command]`, the fields in both T and mT, `extra`.

    A trajectory or channel CSV echoes `evolve`'s fields and a sweep or
    calibration CSV `sweep`'s, less the windows its metric does not read
    (`WINDOW_METRICS`), so the echo is a config file that reruns it.
    """
    from . import __version__

    metrics = METRIC_SETS[config.metric]
    echo = {name: getattr(config, name) for name in COMMAND_FIELDS[command]
            if name not in WINDOW_METRICS or WINDOW_METRICS[name] in metrics}
    lines = [f"qdspin_version={__version__}", f"config={json.dumps(echo, sort_keys=True)}"]
    b_t = ",".join(f"{b:.9g}" for b in config.b_fields)
    b_mt = ",".join(f"{1e3 * b:.9g}" for b in config.b_fields)
    lines.append(f"b_tesla={b_t}")
    lines.append(f"b_mt={b_mt}")
    for key, val in (extra or {}).items():
        lines.append(f"{key}={val}")
    return lines


def _is_text(column: Sequence) -> bool:
    return not isinstance(column, np.ndarray) and all(isinstance(v, str) for v in column)


# cells per `_format_numbers` pass: its temporary arrays then stay near 1 MB, which the allocator reuses from
# one block to the next; at 8192 cells and more, each block was measured to page-fault its arrays in afresh
_BLOCK_CELLS = 1 << 12


def _words(table: np.ndarray) -> np.ndarray:
    """Rows of 8 bytes as native uint64 words, so that `|` and `&` act on them byte by byte."""
    return np.ascontiguousarray(table, np.uint8).view(np.uint64)[..., 0]


@cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """The byte words `_format_numbers` builds a cell from, and the powers of ten `_scaled` scales by.

    They are made on first use, so a process that writes no CSV neither
    builds nor holds them.
    """
    # 0..9999 as four digits at the even bytes, the odd ones free for a point; then without trailing zeros
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1)
    quads = np.zeros((2, 10_000, 8), np.uint8)
    quads[:, :, ::2] = digits.T + ord("0")
    quads[1, :, ::2] *= ~np.logical_and.accumulate(digits[::-1] == 0)[::-1].T
    # for a decimal exponent e from 0 to 16, the digits of each quad that belong to the integer part
    integer = np.where(np.arange(8) < 2 * np.clip(np.arange(17)[:, None, None] - 4 * np.arange(4)[:, None], 0, 4),
                       255, 0)
    lead = np.zeros((2, 2, 10, 8), np.uint8)  # [point after it][negative][leading digit]
    lead[:, 1, :, 0] = ord("-")
    lead[:, :, :, 6] = np.arange(10) + ord("0")
    lead[1, :, :, 7] = ord(".")
    # by decimal exponent, -330 to 330: the fixed form below 1 starts "0." and up to three zeros; the
    # exponent form ends "e", a sign and two or three digits; the fixed form from 1 to 10 and the
    # exponent form put the point after the leading digit when more digits follow
    e = np.arange(-330, 331)
    ex = np.abs(e)
    small = (e >= -4) & (e < 0)
    sci = (e < -4) | (e >= 17)
    prefix = np.zeros((e.size, 8), np.uint8)
    prefix[small, 1:3] = np.frombuffer(b"0.", np.uint8)
    prefix[:, 3:6] = np.where(small[:, None] & (np.arange(3) < -1 - e[:, None]), ord("0"), 0)
    expo = np.zeros((e.size, 8), np.uint8)
    expo[sci, 0] = ord("e")
    expo[sci, 1] = np.where(e < 0, ord("-"), ord("+"))[sci]
    expo[sci, 2] = np.where(ex >= 100, ex // 100 + ord("0"), 0)[sci]
    expo[sci, 3] = (ex // 10 % 10 + ord("0"))[sci]
    expo[sci, 4] = (ex % 10 + ord("0"))[sci]
    sep = np.zeros((2, 8), np.uint8)
    sep[:, 5] = np.frombuffer(b",\n", np.uint8)
    # 10**j for every j `_scaled` is asked for (the range test bounds it to [_J_LOW, 297]) as hi + lo, hi
    # correctly rounded and lo the remainder correctly rounded, then hi's Dekker split
    def hi_lo(n: int, d: int) -> tuple[float, float]:  # n / d; int true division rounds correctly
        a, b = (n / d).as_integer_ratio()
        return a / b, (n * b - a * d) / (b * d)

    hi, lo = np.array([hi_lo(10 ** max(j, 0), 10 ** max(-j, 0)) for j in range(_J_LOW, 298)]).T
    c = 134217729.0 * hi  # 2**27 + 1
    h_hi = c - (c - hi)
    return (_words(quads).ravel(), _words(integer), _words(lead).ravel(), _words(prefix), _words(expo),
            sci | (e == 0), np.stack([hi, lo, h_hi, hi - h_hi]), _words(sep))


_POW10 = 10 ** np.arange(17)
_J_LOW = -264  # the smallest power of ten `_scaled` scales by
_INFINITY = np.frombuffer(b"\0inf-inf", np.uint8).reshape(2, 4)


def _scaled(ax: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ax * 10**j as p + r, p = fl(ax * hi) and r within ~1e-14 of the exact remainder.

    r is Dekker's exact error of ax * hi plus ax * lo; no partial product
    underflows or overflows for ax in [1e-280, 1e280] and p near [1e16, 1e17).
    """
    hi, lo, h_hi, h_lo = _text_tables()[-2].take(j - _J_LOW, axis=1)
    p = ax * hi
    c = 134217729.0 * ax
    a_hi = c - (c - ax)
    a_lo = ax - a_hi
    r = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    return p, r + ax * lo


def _format_numbers(x: np.ndarray, sep: np.ndarray) -> bytes:
    """Rows of cells from the raveled x: `'%.17g' % v` each, NaN empty, each followed by its `sep` word.

    Each |x| in [1e-280, 1e280] is scaled by a power of ten into
    [1e16, 1e17) closely enough to decide its 17-digit integer N, unless
    the product lies within 1e-9 of a rounding tie; those cells and the
    subnormals take `'%.17g' % v` itself, and infinities print as `inf`
    or `-inf`. A cell owns 48 byte slots, six uint64 words: the sign and
    a "0.000" prefix, the 17 digits each followed by a slot for the
    point, "e", the exponent's sign and three digits, and the separator.
    The slots a cell does not print stay NUL, and the NULs are dropped
    from the joined grid.
    """
    blank = np.isnan(x)
    zero = x == 0
    ax = np.abs(x)
    decided = (ax >= 1e-280) & (ax <= 1e280)
    # NaN, inf, 0 and subnormals are worked as 2, which keeps the arithmetic below finite and away from
    # the decade boundaries; their cells are overwritten at the end
    ax = np.where(decided, ax, 2.0)
    j = 16 - np.floor(np.log10(ax)).astype(np.int64)
    p, r = _scaled(ax, j)
    # log10 can miss the decade next to a power of ten; the pair (p, r), not its rounded sum, decides.
    # A product that is a power of ten exactly may stay out by a rounding error, which N absorbs.
    near = np.flatnonzero((p < 1e16) | (p >= 1e17) | ((p == 1e16) & (r < 0)))
    if near.size:
        pn, rn = p[near], r[near]
        low = (pn < 1e16) | ((pn == 1e16) & (rn < 0))
        j[near] += low * 1 - ((pn > 1e17) | ((pn == 1e17) & (rn >= 0)))
        p[near], r[near] = _scaled(ax[near], j[near])
    rounded = np.rint(r)
    n = p.astype(np.int64) + rounded.astype(np.int64)
    slow = (~decided ^ zero ^ blank) | (np.abs(r - rounded) >= 0.5 - 1e-9)
    e = 16 - j  # the decimal exponent, 0 for the cells worked as 2
    carry = np.flatnonzero(n == 10**17)
    n[carry] = 10**16
    e[carry] += 1
    n[zero] = 0

    high8 = n // 10**8
    low8 = n - high8 * 10**8
    top = high8 // 10**8
    mid8 = high8 - top * 10**8
    q1 = mid8 // 10**4
    q2 = mid8 - q1 * 10**4
    q3 = low8 // 10**4
    q4 = low8 - q3 * 10**4
    ie = e + 330
    quads, integer, lead, prefix, expo, point_first, _, _ = _text_tables()
    grid = np.empty((x.size, 48), np.uint8)
    words = grid.view(np.uint64)
    point = point_first.take(ie) & ((mid8 | low8) != 0)
    words[:, 0] = lead.take(top + 10 * np.signbit(x) + 20 * point) | prefix.take(ie)
    # a quad followed by zeros only drops its own trailing zeros: the second half of `quads`
    zeros_after_q2 = low8 == 0
    words[:, 1] = quads.take(q1 + 10_000 * (zeros_after_q2 & (q2 == 0)))
    words[:, 2] = quads.take(q2 + 10_000 * zeros_after_q2)
    words[:, 3] = quads.take(q3 + 10_000 * (q4 == 0))
    words[:, 4] = quads[10_000:].take(q4)
    words.reshape(-1, sep.size, 6)[:, :, 5] = expo.take(ie).reshape(-1, sep.size) | sep
    # the fixed form from 10 on prints its whole integer part, and the point after it when digits follow
    rows = np.flatnonzero((e > 0) & (e < 17))
    if rows.size:
        er = e[rows]
        full = quads.take(np.stack((q1[rows], q2[rows], q3[rows], q4[rows]), axis=1))
        words[rows, 1:5] |= full & integer.take(er, axis=0)
        rows = rows[n[rows] % _POW10.take(16 - er) != 0]
        grid[rows, 7 + 2 * e[rows]] = ord(".")
    words[blank, 0] = 0  # a blank cell was scaled as 2, so only its leading digit is not NUL
    rows = np.flatnonzero(slow)
    if rows.size:
        words[rows, :5] = 0
        grid[rows, 40:45] = 0
        inf = np.isinf(x[rows])
        grid[rows[inf], :4] = _INFINITY.take(np.signbit(x[rows[inf]]) * 1, axis=0)
        rows = rows[~inf]
        text = np.array(["%.17g" % v for v in x[rows].tolist()], dtype="S24")
        grid[rows, :24] = text.view(np.uint8).reshape(rows.size, 24)
    return grid.tobytes().translate(None, b"\0")


def _row_text(columns: Mapping[str, Sequence]) -> Iterable[str]:
    """The rows of `columns` as text chunks; every cell is converted before the first chunk exists.

    A column of strings is formatted as empty cells, and its strings go
    verbatim into their slots, split out at the commas no number holds.
    """
    values = list(columns.values())
    n, n_rows = len(values), min(map(len, values), default=0)
    text = {j: column for j, column in enumerate(values) if _is_text(column)}
    arrays = [np.full(n_rows, np.nan) if j in text else np.asarray(column, dtype=float)
              for j, column in enumerate(values)]
    comma, newline = _text_tables()[-1]
    sep = np.full(n, comma)
    sep[-1:] = newline
    step = max(1, _BLOCK_CELLS // max(1, n))

    def block(k: int) -> str:
        rows = _format_numbers(np.stack([a[k:k + step] for a in arrays], axis=1).ravel(), sep).decode("ascii")
        if not text:
            return rows
        cells = rows[:-1].replace("\n", ",").split(",")
        for j, strings in text.items():
            cells[j::n] = strings[k:k + step]
        return "".join(",".join(cells[i:i + n]) + "\n" for i in range(0, len(cells), n))

    return map(block, range(0, n_rows, step))


def write_csv(path: str | Path, header_lines: Sequence[str] | None,
              columns: Mapping[str, Sequence]) -> None:
    """Write `# ` header lines, the column names and the rows of `columns`.

    A numeric cell is `'%.17g' % v`: the 17 significant digits of its
    exact binary value, rounded half-even, in exponent form below 1e-4
    and from 1e17 on, `0` or `-0` for zero and `inf` or `-inf` for
    infinity. NaN and None are empty cells. Every table's numbers are
    formatted in row blocks by `_format_numbers`; a column of strings
    stays verbatim.

    The text goes to a temporary file beside `path` that replaces it only
    once complete, so a failed write leaves any previous file untouched.
    An OS error on the path (a name too long, a directory that is not
    writable) is an InvalidParameterError that names it.
    """
    lines = [f"# {h}" for h in header_lines or ()]
    lines.append(",".join(columns))
    rows = _row_text(columns)
    target = Path(path)
    # the temporary name is cut so that any name the file system takes still leaves room for it
    tmp = target.with_name(f".{target.name[:200]}.{os.getpid()}.tmp")
    try:
        if target.exists() and not target.is_file():  # a directory, pipe or device cannot be swapped in
            raise InvalidParameterError(f"output path {str(path)!r} is not a regular file")
        try:
            with open(tmp, "w") as f:
                f.write("\n".join(lines) + "\n")
                f.writelines(rows)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise InvalidParameterError(f"output path {str(path)!r} cannot be written: {exc.strerror or exc}") from exc
