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

import functools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import ChannelTrajectory, build_quadrature, compute_channel
from .config import (
    DEFAULT_LONGTIME_WINDOW,
    DEFAULT_M_WINDOW,
    METRIC_SETS,
    RunConfig,
    parse_state_spec,
    write_csv,
)
from .constants import DotParameters, InvalidParameterError, QdspinError
from .evolution import (
    CorrelationTrajectory,
    Extremum,
    ExtremumKind,
    NormalizationError,  # M(B) raises it, so it stays importable from here
    build_time_grid,
    evolve,
    find_extrema,
    find_g_crossings,
    kink_text,
)
from .states import make_state

G_EXTREMUM_PROMINENCE = 1e-4
ESD_MIN_RUN = 5          # samples the concurrence must stay dead to mark sudden death
ESD_ZERO_TOL = 1e-12     # concurrence at or below this counts as dead
WINDOW_EDGE_TOL = 1e-12  # ns; a grid time this close outside a window's edge is inside it
REVIVAL_WINDOW = (0.5, 100.0)  # ns; open interval holding the post-decay minimum of d_lower
BOUND_SPLIT_FRACTION = 0.01    # of ds_lower(0): the bound gap that marks the separation onset
CHANNEL_MEMO_SIZE = 16         # channels a process keeps: ~70 KB each on the 20 ns grid, ~0.72 MB on 12 000 ns


class MonotonicityError(QdspinError, ValueError):
    """A calibration curve is not monotone and cannot be inverted."""


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule for samples y at strictly increasing x (at least 3).

    The non-uniform three-point rule over pairs of intervals; for an even
    count, Cartwright's correction closes the last interval.  The operations
    and their order are those of `scipy.integrate.simpson(y, x=x)`, so the
    result is the same to the bit.
    """
    n = y.size
    m = n - 1 if n % 2 else n - 2  # the last sample the pairs of intervals reach
    h = np.diff(x)
    h0, h1 = h[0:m - 1:2], h[1:m:2]
    hsum, hprod, ratio = h0 + h1, h0 * h1, h0 / h1
    total = np.sum(hsum / 6.0 * (y[0:m - 1:2] * (2.0 - 1.0 / ratio) + y[1:m:2] * (hsum * (hsum / hprod))
                                 + y[2:m + 1:2] * (2.0 - ratio)))
    if n % 2 == 0:
        # 0-d arrays, so that b**3 is numpy's power ufunc (as in scipy), not the scalar libm pow
        a, b = np.asarray(h[-2]), np.asarray(h[-1])
        total += ((2 * b**2 + 3 * a * b) / (6 * (b + a)) * y[-1] + (b**2 + 3.0 * a * b) / (6 * a) * y[-2]
                  - b**3 / (6 * a * (a + b)) * y[-3])
    return float(total)


def _in_window(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """The grid times inside `window`, each edge widened by WINDOW_EDGE_TOL."""
    return (times >= window[0] - WINDOW_EDGE_TOL) & (times <= window[1] + WINDOW_EDGE_TOL)


def rescaled_integral(
    traj: CorrelationTrajectory, window: tuple[float, float] = DEFAULT_M_WINDOW
) -> float:
    """Windowed integral of the rescaled discord (lower bound), normalized by its t=0 value.

    Composite Simpson's rule on the window's grid samples: the three-point
    rule for non-uniform spacing over pairs of intervals and, for an even
    sample count, Cartwright's correction on the last interval (`_simpson`).
    """
    d0 = traj.initial_discord()
    mask = _in_window(traj.times, window)
    if mask.sum() < 3:
        raise InvalidParameterError(f"window {window} contains fewer than 3 samples")
    return _simpson(traj.d_lower[mask], traj.times[mask]) / d0


def esd_time(times: np.ndarray, conc: np.ndarray) -> float | None:
    """First time the concurrence reaches zero and stays there >= ESD_MIN_RUN samples.

    Dead runs (concurrence <= ESD_ZERO_TOL) start and end at the edges of
    the dead mask padded with a live sample on each side.
    """
    dead = np.concatenate(([False], np.asarray(conc) <= ESD_ZERO_TOL, [False]))
    starts, ends = np.flatnonzero(dead[1:] != dead[:-1]).reshape(-1, 2).T
    long_runs = np.flatnonzero(ends - starts >= ESD_MIN_RUN)
    return float(times[starts[long_runs[0]]]) if long_runs.size else None


def long_time_discord(
    traj: CorrelationTrajectory, window: tuple[float, float] = DEFAULT_LONGTIME_WINDOW
) -> float:
    """Rescaled discord (lower bound) averaged over a late time window."""
    mask = _in_window(traj.times, window)
    if not mask.any():
        raise InvalidParameterError(f"trajectory does not cover the window {window}")
    return float(np.mean(traj.d_lower[mask]))


@dataclass(frozen=True)
class Revival:
    """The post-decay minimum of d_lower and the largest d_lower after it."""

    t_min: float
    d_min: float
    t_max: float
    d_max: float


def low_field_revival(traj: CorrelationTrajectory) -> Revival:
    """The minimum of d_lower on the times inside REVIVAL_WINDOW, and the maximum from there to the end.

    At low field the discord decays, then partly revives on the slow branch.
    A trajectory with no time inside the window is an InvalidParameterError.
    """
    times, d = traj.times, traj.d_lower
    inside = np.flatnonzero((times > REVIVAL_WINDOW[0]) & (times < REVIVAL_WINDOW[1]))
    if not inside.size:
        raise InvalidParameterError(f"trajectory has no time inside the revival window {REVIVAL_WINDOW} ns")
    i_min = int(inside[np.argmin(d[inside])])
    i_max = i_min + int(np.argmax(d[i_min:]))
    return Revival(float(times[i_min]), float(d[i_min]), float(times[i_max]), float(d[i_max]))


def bound_separation_onset(traj: CorrelationTrajectory) -> float | None:
    """First time at which ds_upper - ds_lower exceeds BOUND_SPLIT_FRACTION of ds_lower(0), or None."""
    split = np.flatnonzero(traj.ds_upper - traj.ds_lower > BOUND_SPLIT_FRACTION * traj.ds_lower[0])
    return float(traj.times[split[0]]) if split.size else None


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


# the sweep CSV's columns; each row maps every name to its cell, and None prints empty
SWEEP_COLUMNS = ("B_T", "M", "g_min_t", "g_min_val", "g_max_t", "g_max_val", "kink_times", "esd_t",
                 "d_longtime")


@dataclass
class SweepTable:
    """The rows of a sweep, in field order, and the configuration they were computed on."""

    config: RunConfig
    rows: list[dict]

    def to_csv(self, path: str | Path, header_lines: list[str] | None = None) -> None:
        write_csv(path, header_lines, {name: [r[name] for r in self.rows] for name in SWEEP_COLUMNS})


def channel_for_field(config: RunConfig, b_field: float) -> ChannelTrajectory:
    """Channel of `config`'s dot at `b_field` on its grid up to `config.t_max`.

    The channel carries its model, sized from the grid's last time, which
    can lie up to half a dense step past t_max; `evolve`, `sweep`, `verify` and the scripts
    all take this one road from a run description to a channel.  It depends
    on the dot, t_max, dt and the node counts only, never on the start
    state, so a process computes it once per key and keeps the last
    CHANNEL_MEMO_SIZE (`_channel_memo`); the shared channel's arrays are
    read-only.
    """
    return _channel_memo(config.dot(b_field), config.t_max, config.dt, config.m_nodes, config.q_nodes,
                         float(b_field).hex())


@functools.lru_cache(maxsize=CHANNEL_MEMO_SIZE)
def _channel_memo(dot: DotParameters, t_max: float, dt: float, m_nodes: int | None, q_nodes: int | None,
                  b_bits: str) -> ChannelTrajectory:
    """The channel of `channel_for_field`; the field's exact bits keep -0.0 apart from 0.0, which the dot equates."""
    times = build_time_grid(t_max, dt)
    quad = build_quadrature(dot, float(times.max()), m_count=m_nodes, q_count=q_nodes)
    chan = compute_channel(quad, times)
    for a in (chan.times, chan.p, chan.c):
        a.setflags(write=False)
    return chan


def trajectory_for_field(config: RunConfig, b_field: float) -> CorrelationTrajectory:
    """Channel + evolution for one field value of a sweep."""
    return evolve(make_state(parse_state_spec(config.state)), channel_for_field(config, b_field))


def _sweep_row(args: tuple[RunConfig, float]) -> dict:
    config, b = args
    metrics = METRIC_SETS[config.metric]
    traj = trajectory_for_field(config, b)
    row = dict.fromkeys(SWEEP_COLUMNS)
    row.update(B_T=b, kink_times="")
    if "M" in metrics:
        row["M"] = rescaled_integral(traj, config.m_window)
    if "g-extrema" in metrics:
        g_min, g_max = first_min_then_max(traj.times, traj.g)
        if g_min is not None:
            row.update(g_min_t=g_min.t_ns, g_min_val=g_min.value)
        if g_max is not None:
            row.update(g_max_t=g_max.t_ns, g_max_val=g_max.value)
    if "kinks" in metrics:
        row["kink_times"] = kink_text(find_g_crossings(traj.times, traj.g, traj.g_on))
    if "esd" in metrics:
        row["esd_t"] = esd_time(traj.times, traj.concurrence)
    if "longtime" in metrics:
        row["d_longtime"] = long_time_discord(traj, config.longtime_window)
    return row


def run_sweep(config: RunConfig) -> SweepTable:
    """Run `config` over its fields; rows are in field order, independent of workers.

    A long-time metric runs the grid to the end of its window, and M's
    window ends at the grid's last time at most; the table's config, which
    the CSV header echoes, carries the t_max and m_window applied.
    """
    metrics = METRIC_SETS[config.metric]
    if "longtime" in metrics:
        config = replace(config, t_max=float(max(config.t_max, config.longtime_window[1])))
    try:  # a longtime refusal names the window, whose end may be the t_max it reads
        grid_end = float(build_time_grid(config.t_max, config.dt)[-1])
    except InvalidParameterError as exc:
        if "longtime" not in metrics:
            raise
        raise InvalidParameterError(f"a longtime sweep runs to the later of t_max and the end of "
                                    f"longtime_window={config.longtime_window}: {exc}") from None
    start, stop = config.m_window
    if "M" in metrics and start >= grid_end:
        raise InvalidParameterError(f"m_window={config.m_window} starts at or past the time grid's end at "
                                    f"{grid_end:g} ns")
    if "M" in metrics and stop > grid_end:
        config = replace(config, m_window=[start, grid_end])
    b_fields = config.b_fields
    if len(b_fields) == 0:
        raise InvalidParameterError("sweep needs at least one field value")
    if any(b1 >= b2 for b1, b2 in zip(b_fields, b_fields[1:])):
        raise InvalidParameterError("b_fields must be strictly increasing")
    n_workers = config.workers or 1
    jobs = [(config, b) for b in b_fields]
    if n_workers == 1 or len(jobs) == 1:
        rows = [_sweep_row(j) for j in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    return SweepTable(config=config, rows=rows)


# ---------------------------------------------------------------------------
# calibration curves and inversion
# ---------------------------------------------------------------------------

# calibration quantity -> the metric that computes it and the sweep column it is read from
CURVE_QUANTITIES = {"M": ("M", "M"), "g_max_value": ("g-extrema", "g_max_val"),
                    "g_min_value": ("g-extrema", "g_min_val"), "d_longtime": ("longtime", "d_longtime")}


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
    column = CURVE_QUANTITIES[quantity][1]
    pairs = [(r["B_T"], r[column]) for r in table.rows if r[column] is not None]
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
        dv = np.diff(curve.values)
        turn = int(np.argmax(dv * dv[0] <= 0.0))  # the first knot whose step does not go the first step's way
        change = "is flat" if dv[0] == 0.0 else f"stops {'rising' if dv[0] > 0.0 else 'falling'}"
        raise MonotonicityError(
            f"curve for {curve.quantity!r} {change} at B = {curve.b_knots[turn]:g} T, so one value "
            "may map to two fields; only a monotone stretch of the sweep can be inverted"
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
