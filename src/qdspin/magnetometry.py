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

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.integrate import simpson

from .channel import build_quadrature, compute_channel
from .constants import DotParameters, InvalidParameterError, QdspinError
from .evolution import (
    CorrelationTrajectory,
    Extremum,
    ExtremumKind,
    build_time_grid,
    evolve,
    find_extrema,
    find_g_crossings,
)
from .measures import UpperPairing
from .states import StateSpec, make_state

WORKERS_ENV = "QDSPIN_WORKERS"
DEFAULT_M_WINDOW = (0.0, 20.0)
DEFAULT_LONGTIME_WINDOW = (4000.0, 6000.0)
G_EXTREMUM_PROMINENCE = 1e-4


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


def esd_time(times: np.ndarray, conc: np.ndarray, min_run: int = 5, zero_tol: float = 1e-12) -> float | None:
    """First time the concurrence reaches zero and stays there >= min_run samples."""
    dead = np.asarray(conc) <= zero_tol
    n = dead.size
    i = 0
    while i < n:
        if not dead[i]:
            i += 1
            continue
        j = i
        while j < n and dead[j]:
            j += 1
        if (j - i) >= min_run:
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


def first_min_then_max(
    times: np.ndarray, g: np.ndarray, min_prominence: float = G_EXTREMUM_PROMINENCE
) -> tuple[Extremum | None, Extremum | None]:
    """First local minimum of g(t) and the first local maximum after it."""
    finite = np.isfinite(g)
    events = find_extrema(times[finite], g[finite], min_prominence=min_prominence)
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


@dataclass(frozen=True)
class SweepRequest:
    """One full sweep: a state, a field list and the metrics to extract."""

    state_spec: StateSpec
    b_fields: tuple[float, ...]
    dot_template: DotParameters = field(default_factory=DotParameters)
    t_max: float = 20.0
    dt: float = 0.02
    dt_long: float = 2.0
    dense_prefix: float = 50.0
    metrics: tuple[str, ...] = ("M", "g-extrema", "esd", "kinks")
    m_window: tuple[float, float] = DEFAULT_M_WINDOW
    longtime_window: tuple[float, float] = DEFAULT_LONGTIME_WINDOW
    m_nodes: int | None = None
    q_nodes: int | None = None
    drop_zeeman_phase: bool = True
    pairing: UpperPairing = UpperPairing.PRINTED

    def __post_init__(self) -> None:
        if len(self.b_fields) == 0:
            raise InvalidParameterError("sweep needs at least one field value")
        if any(b1 >= b2 for b1, b2 in zip(self.b_fields, self.b_fields[1:])):
            raise InvalidParameterError("b_fields must be strictly increasing")
        if not self.dense_prefix >= 0.0:
            raise InvalidParameterError(f"dense_prefix must be non-negative, got {self.dense_prefix}")
        known = {"M", "g-extrema", "esd", "kinks", "longtime"}
        unknown = set(self.metrics) - known
        if unknown:
            raise InvalidParameterError(f"unknown metrics {sorted(unknown)}; known: {sorted(known)}")


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


@dataclass
class SweepTable:
    request: SweepRequest
    rows: list[SweepRow]

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]

    def to_csv(self, path: str | Path, header_lines: list[str] | None = None) -> None:
        lines = [f"# {h}" for h in (header_lines or [])]
        lines.append("B_T,M,g_min_t,g_min_val,g_max_t,g_max_val,kink_times,esd_t,d_longtime")

        def num(v) -> str:
            return "" if v is None else f"{v:.17g}"

        for r in self.rows:
            kinks = ";".join(f"{t:.9g}" for t in r.kink_times)
            lines.append(
                ",".join(
                    [
                        f"{r.b_field:.17g}",
                        num(r.m_lower),
                        num(r.g_min.t_ns if r.g_min else None),
                        num(r.g_min.value if r.g_min else None),
                        num(r.g_max.t_ns if r.g_max else None),
                        num(r.g_max.value if r.g_max else None),
                        kinks,
                        num(r.esd_time_ns),
                        num(r.d_longtime),
                    ]
                )
            )
        Path(path).write_text("\n".join(lines) + "\n")


def trajectory_for_field(request: SweepRequest, b_field: float) -> CorrelationTrajectory:
    """Channel + evolution for one field value of a sweep."""
    dot = replace(request.dot_template, b_field=b_field)
    t_max = request.t_max
    if "longtime" in request.metrics:
        t_max = max(t_max, request.longtime_window[1])
    times = build_time_grid(
        t_max, dt=request.dt, dt_long=request.dt_long, dense_prefix=request.dense_prefix
    )
    quad = build_quadrature(dot, t_max, m_count=request.m_nodes, q_count=request.q_nodes)
    chan = compute_channel(dot, times, quad)
    state0 = make_state(request.state_spec)
    return evolve(
        state0, chan, drop_zeeman_phase=request.drop_zeeman_phase, pairing=request.pairing
    )


def _sweep_row(args: tuple[SweepRequest, float]) -> SweepRow:
    request, b = args
    traj = trajectory_for_field(request, b)
    row = SweepRow(b_field=b)
    if "M" in request.metrics:
        row.m_lower, row.m_upper = rescaled_integral(traj, request.m_window)
    if "g-extrema" in request.metrics:
        row.g_min, row.g_max = first_min_then_max(traj.times, traj.g)
    if "kinks" in request.metrics:
        row.kink_times = [e.t_cross_ns for e in find_g_crossings(traj.times, traj.g)]
    if "esd" in request.metrics:
        row.esd_time_ns = esd_time(traj.times, traj.concurrence)
    if "longtime" in request.metrics:
        row.d_longtime = long_time_discord(traj, request.longtime_window)
    return row


def worker_count(explicit: int | None = None) -> int:
    """Worker processes for a sweep: the explicit value, else QDSPIN_WORKERS, else 1."""
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get(WORKERS_ENV, "")
    if not env:
        return 1
    try:
        count = int(env)
    except ValueError:
        count = None
    if count is None or count < 1:
        raise InvalidParameterError(f"{WORKERS_ENV} must be a positive integer, got {env!r}")
    return count


def run_sweep(request: SweepRequest, workers: int | None = None) -> SweepTable:
    """Execute the sweep; rows are keyed by field order, independent of workers."""
    n_workers = worker_count(workers)
    jobs = [(request, b) for b in request.b_fields]
    if n_workers == 1 or len(jobs) == 1:
        rows = [_sweep_row(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    return SweepTable(request=request, rows=rows)


# ---------------------------------------------------------------------------
# calibration curves and inversion
# ---------------------------------------------------------------------------

_CURVE_QUANTITIES = ("M", "g_max_value", "g_min_value", "d_longtime")


@dataclass(frozen=True)
class CalibrationCurve:
    quantity: str
    b_knots: np.ndarray
    values: np.ndarray
    monotone: bool

    def to_csv(self, path: str | Path, header_lines: list[str] | None = None) -> None:
        lines = [f"# {h}" for h in (header_lines or [])]
        lines.append(f"B_T,{self.quantity}")
        for b, v in zip(self.b_knots, self.values):
            lines.append(f"{b:.17g},{v:.17g}")
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class FieldEstimate:
    b_estimate: float
    bracket: tuple[float, float]


def calibration_curve(table: SweepTable, quantity: str) -> CalibrationCurve:
    if quantity not in _CURVE_QUANTITIES:
        raise InvalidParameterError(f"unknown calibration quantity {quantity!r}; known: {_CURVE_QUANTITIES}")
    pairs: list[tuple[float, float]] = []
    for r in table.rows:
        val: float | None
        if quantity == "M":
            val = r.m_lower
        elif quantity == "g_max_value":
            val = r.g_max.value if r.g_max else None
        elif quantity == "g_min_value":
            val = r.g_min.value if r.g_min else None
        else:
            val = r.d_longtime
        if val is not None:
            pairs.append((r.b_field, val))
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
