"""Field sweeps and the decoherence-based sensing indicators.

Three schemes are implemented for reading the magnetic field off the
decay of quantum correlations:
  * M(B): the rescaled discord integrated over a short window (20 ns by
    default), normalized by its initial value; monotone in B.
  * g-extrema calibration: the first local minimum and subsequent local
    maximum of g(t) at low field; the maximum's value falls monotonically
    with B while both extremum times barely move.
  * long-time level: the rescaled discord averaged over a late window
    separates very small fields.
Entanglement sudden death times are extracted for comparison, and a
monotone calibration curve can be inverted back to a field estimate.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

from .channel import build_quadrature, compute_channel
from .config import (
    DEFAULT_LONGTIME_WINDOW,
    DEFAULT_M_WINDOW,
    METRIC_SETS,
    RunConfig,
    parse_state_spec,
    write_csv,
)
from .constants import InvalidParameterError, QdspinError
from .evolution import (
    CorrelationTrajectory,
    Extremum,
    ExtremumKind,
    build_time_grid,
    evolve,
    find_extrema,
    find_g_crossings,
)
from .states import make_state

WORKERS_ENV = "QDSPIN_WORKERS"
G_EXTREMUM_PROMINENCE = 1e-4
ESD_MIN_RUN = 5          # samples the concurrence must stay dead to mark sudden death
ESD_ZERO_TOL = 1e-12     # concurrence at or below this counts as dead


class NormalizationError(QdspinError, ZeroDivisionError):
    """The normalizing initial discord vanishes."""


class MonotonicityError(QdspinError, ValueError):
    """A calibration curve is not monotone and cannot be inverted."""


def rescaled_integral(
    traj: CorrelationTrajectory, window: tuple[float, float] = DEFAULT_M_WINDOW
) -> tuple[float, float]:
    """Windowed integral of the rescaled discord, normalized by its t=0 value.

    Composite Simpson on the trajectory grid.  Computed from the lower
    bound; the upper-bound integral is returned alongside (the two
    coincide for every Bell-diagonal input).
    """
    d0 = traj.d_lower[0]
    if d0 <= 1e-15:
        raise NormalizationError("initial rescaled discord is zero; M(B) undefined")
    lo, hi = window
    mask = (traj.times >= lo - 1e-12) & (traj.times <= hi + 1e-12)
    if mask.sum() < 3:
        raise InvalidParameterError(f"window {window} contains fewer than 3 samples")
    t = traj.times[mask]
    m_lower = float(simpson(traj.d_lower[mask], x=t)) / d0
    m_upper = float(simpson(traj.d_upper[mask], x=t)) / d0
    return m_lower, m_upper


def esd_time(times: np.ndarray, conc: np.ndarray) -> float | None:
    """First time the concurrence reaches zero and stays there >= ESD_MIN_RUN samples."""
    dead = np.asarray(conc) <= ESD_ZERO_TOL
    n = dead.size
    i = 0
    while i < n:
        if not dead[i]:
            i += 1
            continue
        j = i
        while j < n and dead[j]:
            j += 1
        if (j - i) >= ESD_MIN_RUN:
            return float(times[i])
        i = j
    return None


def long_time_discord(
    traj: CorrelationTrajectory, window: tuple[float, float] = DEFAULT_LONGTIME_WINDOW
) -> float:
    """Rescaled discord (lower bound) averaged over a late time window."""
    lo, hi = window
    mask = (traj.times >= lo) & (traj.times <= hi)
    if not mask.any():
        raise InvalidParameterError(f"trajectory does not cover the window {window}")
    return float(np.mean(traj.d_lower[mask]))


def first_min_then_max(times: np.ndarray, g: np.ndarray) -> tuple[Extremum | None, Extremum | None]:
    """First local minimum of g(t) and the first local maximum after it."""
    finite = np.isfinite(g)
    events = find_extrema(times[finite], g[finite], min_prominence=G_EXTREMUM_PROMINENCE)
    g_min = next((e for e in events if e.kind is ExtremumKind.MINIMUM), None)
    if g_min is None:
        return None, None
    g_max = next(
        (e for e in events if e.kind is ExtremumKind.MAXIMUM and e.t_ns > g_min.t_ns), None
    )
    return g_min, g_max


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    b_field: float
    m_lower: float | None = None
    m_upper: float | None = None
    g_min: Extremum | None = None
    g_max: Extremum | None = None
    kink_times: list[float] = field(default_factory=list)
    esd_time_ns: float | None = None
    d_longtime: float | None = None


# the sweep CSV's columns, each read off a row; None cells print empty
SWEEP_COLUMNS = {
    "B_T": lambda r: r.b_field,
    "M": lambda r: r.m_lower,
    "g_min_t": lambda r: r.g_min.t_ns if r.g_min else None,
    "g_min_val": lambda r: r.g_min.value if r.g_min else None,
    "g_max_t": lambda r: r.g_max.t_ns if r.g_max else None,
    "g_max_val": lambda r: r.g_max.value if r.g_max else None,
    "kink_times": lambda r: ";".join(f"{t:.9g}" for t in r.kink_times),
    "esd_t": lambda r: r.esd_time_ns,
    "d_longtime": lambda r: r.d_longtime,
}


@dataclass
class SweepTable:
    rows: list[SweepRow]

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]

    def to_csv(self, path: str | Path, header_lines: list[str] | None = None) -> None:
        columns = {name: [get(r) for r in self.rows] for name, get in SWEEP_COLUMNS.items()}
        write_csv(path, header_lines, columns)


def trajectory_for_field(config: RunConfig, b_field: float) -> CorrelationTrajectory:
    """Channel + evolution for one field value of a sweep."""
    state0 = make_state(parse_state_spec(config.state))
    dot = config.dot(b_field)
    t_max = config.t_max
    if "longtime" in METRIC_SETS[config.metric]:
        t_max = max(t_max, config.longtime_window[1])
    times = build_time_grid(
        t_max, dt=config.dt, dt_long=config.dt_long, dense_prefix=config.dense_prefix
    )
    quad = build_quadrature(dot, float(times.max()), m_count=config.m_nodes, q_count=config.q_nodes)
    chan = compute_channel(dot, times, quad)
    return evolve(state0, chan, drop_zeeman_phase=config.drop_zeeman_phase, pairing=config.pairing)


def _sweep_row(args: tuple[RunConfig, float]) -> SweepRow:
    config, b = args
    metrics = METRIC_SETS[config.metric]
    traj = trajectory_for_field(config, b)
    row = SweepRow(b_field=b)
    if "M" in metrics:
        row.m_lower, row.m_upper = rescaled_integral(traj, config.m_window)
    if "g-extrema" in metrics:
        row.g_min, row.g_max = first_min_then_max(traj.times, traj.g)
    if "kinks" in metrics:
        row.kink_times = [e.t_cross_ns for e in find_g_crossings(traj.times, traj.g)]
    if "esd" in metrics:
        row.esd_time_ns = esd_time(traj.times, traj.concurrence)
    if "longtime" in metrics:
        row.d_longtime = long_time_discord(traj, config.longtime_window)
    return row


def worker_count(explicit: int | None = None) -> int:
    """Worker processes for a sweep: the explicit value, else QDSPIN_WORKERS, else 1."""
    name, value = "workers", explicit
    if explicit is None:
        name, value = WORKERS_ENV, os.environ.get(WORKERS_ENV) or "1"
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {value!r}")
    return count


def run_sweep(config: RunConfig) -> SweepTable:
    """Run `config` over its fields; rows are keyed by field order, independent of workers."""
    b_fields = config.b_fields
    if len(b_fields) == 0:
        raise InvalidParameterError("sweep needs at least one field value")
    if any(b1 >= b2 for b1, b2 in zip(b_fields, b_fields[1:])):
        raise InvalidParameterError("b_fields must be strictly increasing")
    n_workers = worker_count(config.workers)
    jobs = [(config, b) for b in b_fields]
    if n_workers == 1 or len(jobs) == 1:
        rows = [_sweep_row(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    return SweepTable(rows=rows)


# ---------------------------------------------------------------------------
# calibration curves and inversion
# ---------------------------------------------------------------------------

# calibration quantity -> the sweep column it is read from
CURVE_QUANTITIES = {"M": "M", "g_max_value": "g_max_val", "g_min_value": "g_min_val",
                    "d_longtime": "d_longtime"}


@dataclass(frozen=True)
class CalibrationCurve:
    quantity: str
    b_knots: np.ndarray
    values: np.ndarray
    monotone: bool

    def to_csv(self, path: str | Path, header_lines: list[str] | None = None) -> None:
        write_csv(path, header_lines, {"B_T": self.b_knots, self.quantity: self.values})


@dataclass(frozen=True)
class FieldEstimate:
    b_estimate: float
    bracket: tuple[float, float]


def calibration_curve(table: SweepTable, quantity: str) -> CalibrationCurve:
    if quantity not in CURVE_QUANTITIES:
        known = tuple(CURVE_QUANTITIES)
        raise InvalidParameterError(f"unknown calibration quantity {quantity!r}; known: {known}")
    value_of = SWEEP_COLUMNS[CURVE_QUANTITIES[quantity]]
    pairs = [(r.b_field, v) for r in table.rows if (v := value_of(r)) is not None]
    if len(pairs) < 2:
        raise InvalidParameterError(f"not enough knots with defined {quantity!r} for a curve")
    b = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    dv = np.diff(v)
    monotone = bool(np.all(dv > 0.0) or np.all(dv < 0.0))
    return CalibrationCurve(quantity=quantity, b_knots=b, values=v, monotone=monotone)


def invert_field(curve: CalibrationCurve, measured: float) -> FieldEstimate:
    """Monotone piecewise-linear inversion with the bracketing knots as uncertainty."""
    if not curve.monotone:
        raise MonotonicityError(
            f"curve for {curve.quantity!r} is not monotone; single-value inversion is "
            "ambiguous - use two quantities jointly (e.g. g-min value plus g-max value)"
        )
    v = curve.values
    b = curve.b_knots
    ascending = v[-1] > v[0]
    vs = v if ascending else v[::-1]
    bs = b if ascending else b[::-1]
    if not (vs[0] - 1e-12 <= measured <= vs[-1] + 1e-12):
        raise InvalidParameterError(
            f"measured value {measured:g} outside the calibrated range [{vs[0]:g}, {vs[-1]:g}]"
        )
    measured = min(max(measured, vs[0]), vs[-1])
    hits = np.nonzero(np.isclose(vs, measured, rtol=0.0, atol=1e-15))[0]
    if hits.size:
        k = int(hits[0])
        return FieldEstimate(b_estimate=float(bs[k]), bracket=(float(bs[k]), float(bs[k])))
    idx = int(np.searchsorted(vs, measured))
    idx = max(1, min(idx, vs.size - 1))
    v0, v1 = vs[idx - 1], vs[idx]
    b0, b1 = bs[idx - 1], bs[idx]
    frac = (measured - v0) / (v1 - v0)
    est = b0 + frac * (b1 - b0)
    lo, hi = (b0, b1) if b0 <= b1 else (b1, b0)
    return FieldEstimate(b_estimate=float(est), bracket=(float(lo), float(hi)))
