"""Two-qubit evolution under the product channel and trajectory analysis.

Both dots are identical and uncorrelated, so the two-qubit map is the
tensor product of two copies of the single-dot channel.  The engine
applies the channel on a time grid as one audited stack of evolved
density matrices; each correlation measure is evaluated on the whole
stack when a trajectory's column is first read, so a caller pays only
for the measures it reads.  The feature scanners detect the decay-regime
crossings (g through unity), extrema and entanglement-sudden-death
features used downstream.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .channel import BathQuadrature, ChannelTrajectory, compute_channel, verify_channel_cp
from .config import RunConfig, write_csv
from .constants import HBAR_UEV_NS, DotParameters, InvalidParameterError
from .measures import (
    KEigh,
    _k_eigh,
    _lower_bound,
    _upper_bound,
    concurrence,
    g_under_channel,
    rescaled_discord,
)
from .states import (
    TRACE_TOL,
    TwoQubitState,
    bell_diagonal_params,
    bloch_decompose,
    purity,
    singlet_triplet_weights,
)

EVOLVED_PSD_TOL = 1e-8  # audit tolerance for evolved states (construction is 1e-10)
CP_TOL = 1e-9           # how far |c| may exceed 1 - p in a channel that is applied
_P_RANGE_TOL = 1e-15    # round-off allowed on p outside [0, 1]
G_BAND = 1e-6           # |g - 1| at or below this counts as on the g = 1 boundary
KINK_T_TOL = 1e-6       # ns; bisection stops once the crossing is bracketed this tightly
LONG_GRID_THRESHOLD_NS = 100.0  # t_max above this gets a dense prefix plus a coarse tail
MAX_GRID_POINTS = 1_000_000     # times a grid may hold; the default 12 000 ns grid has 8476


class ChannelError(InvalidParameterError):
    """Channel parameters violate complete positivity."""


def _applied_coherence(traj: ChannelTrajectory) -> np.ndarray:
    """The coherence multipliers the product channel applies: co-rotated, and CP-audited with p.

    The pairs (p, c) must be completely positive: 0 <= p <= 1 and
    |c| <= 1 - p, up to CP_TOL.
    """
    c_eff = effective_coherence(traj)
    verify_channel_cp(replace(traj, c=c_eff)).require(CP_TOL, _P_RANGE_TOL, ChannelError)
    return c_eff


def _evolved_rho(rho0: np.ndarray, chan: ChannelTrajectory) -> np.ndarray:
    """(n, 4, 4) stack of the product channel applied to rho0 at every time of chan.

    Per qubit, (u, d) -> ((1-p)u + pd, pu + (1-p)d) and the off-diagonal
    element picks up c (c* for its conjugate).
    """
    n = chan.times.size
    # transfer tensor L[n, out_row, out_col, in_row, in_col] of the dot channel
    l_map = np.zeros((n, 2, 2, 2, 2), dtype=complex)
    l_map[:, 0, 0, 0, 0] = l_map[:, 1, 1, 1, 1] = 1.0 - chan.p
    l_map[:, 0, 0, 1, 1] = l_map[:, 1, 1, 0, 0] = chan.p
    l_map[:, 0, 1, 0, 1] = chan.c
    l_map[:, 1, 0, 1, 0] = np.conj(chan.c)
    r = rho0.reshape(2, 2, 2, 2)  # indices (a, b | a', b'), A the left qubit
    out = np.einsum("nacuw,nbdvx,uvwx->nabcd", l_map, l_map, r).reshape(n, 4, 4)
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def _audit_evolved(rho: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Unit trace and positivity (to EVOLVED_PSD_TOL) of every state; returns the minimum eigenvalues."""
    min_eig = np.linalg.eigvalsh(rho)[:, 0].copy()  # a copy: a view would keep all n x 4 eigenvalues alive
    trace = np.trace(rho, axis1=-2, axis2=-1)
    bad_trace = ~(np.abs(trace - 1.0) <= TRACE_TOL)
    bad = bad_trace | ~(min_eig >= -EVOLVED_PSD_TOL)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        what = (f"trace must be 1, got {trace[k]:.15g}" if bad_trace[k]
                else f"matrix not positive semidefinite: min eigenvalue {min_eig[k]:.3e}")
        raise InvalidParameterError(f"evolved state at time index {k} (t={times[k]:g} ns): {what}")
    return min_eig


@dataclass
class CorrelationTrajectory:
    """Correlation report along a channel trajectory, with the channel's model.

    `evolve` fills the fields: the channel pair actually applied, the
    audited (n, 4, 4) stack of evolved states and its minimum eigenvalues.
    Every measure column is computed from the stack when it is first read
    and kept from then on, except g, which `measures.g_under_channel`
    reads off the start state's correlation matrix and the applied (p, c).
    Both discord bounds share one eigendecomposition of the K matrices
    (`measures.KEigh`, kept without the Bloch data, which the upper bound
    recomputes), and the upper bound's corrections run only when
    `ds_upper` or `d_upper` is read.
    """

    times: np.ndarray
    p: np.ndarray
    c: np.ndarray                      # coherence multiplier actually applied
    rho: np.ndarray = field(repr=False)
    min_eigenvalue: np.ndarray
    state0: TwoQubitState
    dot: DotParameters
    model: BathQuadrature | None = field(default=None, repr=False)

    @cached_property
    def _k_eigen(self) -> KEigh:
        return _k_eigh(bloch_decompose(self.rho))

    @cached_property
    def ds_lower(self) -> np.ndarray:
        return _lower_bound(self._k_eigen)

    @cached_property
    def ds_upper(self) -> np.ndarray:
        return _upper_bound(bloch_decompose(self.rho), self._k_eigen, self.ds_lower)

    @cached_property
    def d_lower(self) -> np.ndarray:
        return rescaled_discord(self.ds_lower, self.purity)

    @cached_property
    def d_upper(self) -> np.ndarray:
        return rescaled_discord(self.ds_upper, self.purity)

    @cached_property
    def purity(self) -> np.ndarray:
        return purity(self.rho)

    @cached_property
    def _t_corr0(self) -> np.ndarray:
        return bloch_decompose(self.state0).t_corr

    @cached_property
    def g(self) -> np.ndarray:
        return g_under_channel(self._t_corr0, self.p, self.c)

    @cached_property
    def concurrence(self) -> np.ndarray:
        return concurrence(self.rho)

    @cached_property
    def st_weights(self) -> np.ndarray:
        """(n, 4): w_Tm1, w_T0, w_Tp1, w_S0."""
        return singlet_triplet_weights(self.rho)

    @cached_property
    def _bell_params(self) -> tuple[np.ndarray, np.ndarray]:
        return bell_diagonal_params(self.rho, self.state0.ordering)

    @cached_property
    def bell_a(self) -> np.ndarray:
        """nan where not of Bell-diagonal form."""
        return self._bell_params[0]

    @cached_property
    def bell_b(self) -> np.ndarray:
        """Complex; nan where not of Bell-diagonal form."""
        return self._bell_params[1]

    def g_at(self, t: float) -> float:
        """g alone at time t, from the model's channel at t, co-rotated and CP-audited as in `evolve`."""
        if self.model is None:
            raise InvalidParameterError("a trajectory on a hand-built channel has no model to evaluate g on")
        chan = compute_channel(self.model, np.array([t]))
        return float(g_under_channel(self._t_corr0, chan.p, _applied_coherence(chan))[0])

    def normalized(self, mode: str = "none") -> tuple[np.ndarray, np.ndarray]:
        """Rescaled-discord bounds under an output normalization.

        'none' returns raw values, 'initial' divides by d_lower(0), 'half'
        scales so the trajectory starts at 1/2.  Normalization never
        changes where extrema or crossings sit.
        """
        if mode == "none":
            return self.d_lower.copy(), self.d_upper.copy()
        d0 = self.d_lower[0]
        if d0 <= 1e-15:
            raise InvalidParameterError("cannot normalize: initial rescaled discord is zero")
        scale = {"initial": 1.0 / d0, "half": 0.5 / d0}.get(mode)
        if scale is None:
            raise InvalidParameterError(f"unknown normalization mode {mode!r}")
        return self.d_lower * scale, self.d_upper * scale

    def to_csv(self, path: str | Path, header_lines: list[str] | None = None,
               normalize: str = "none") -> None:
        d_lo, d_hi = self.normalized(normalize)
        w = self.st_weights
        write_csv(path, header_lines, {
            "t_ns": self.times, "p": self.p, "c_re": self.c.real, "c_im": self.c.imag,
            "a": self.bell_a, "b_re": self.bell_b.real, "b_im": self.bell_b.imag,
            "purity": self.purity, "ds_lo": self.ds_lower, "ds_hi": self.ds_upper,
            "d_lo": d_lo, "d_hi": d_hi, "g": self.g, "concurrence": self.concurrence,
            "wTm1": w[:, 0], "wT0": w[:, 1], "wTp1": w[:, 2], "wS0": w[:, 3],
        })


def effective_coherence(traj: ChannelTrajectory) -> np.ndarray:
    """Coherence multipliers with the deterministic Zeeman rotation removed.

    Removing e^{i Omega t / hbar} is a local z rotation (co-rotating
    frame); it changes no correlation measure and keeps Phi-type
    coherences slowly varying.
    """
    return traj.c * np.exp(-1j * traj.dot.zeeman_energy * traj.times / HBAR_UEV_NS)


def evolve(state0: TwoQubitState, traj: ChannelTrajectory) -> CorrelationTrajectory:
    """Apply the product channel along the trajectory.

    The channel acts in the co-rotating frame (`effective_coherence`).  The
    evolved states form one (n, 4, 4) stack, audited for unit trace and
    positivity here; the measures are evaluated on the whole stack when
    the returned trajectory's columns are first read.
    """
    c_eff = _applied_coherence(traj)
    rho = _evolved_rho(state0.rho, replace(traj, c=c_eff))
    return CorrelationTrajectory(
        times=traj.times.copy(),
        p=traj.p.copy(),
        c=c_eff,
        rho=rho,
        min_eigenvalue=_audit_evolved(rho, traj.times),
        state0=state0,
        dot=traj.dot,
        model=traj.model,
    )


# ---------------------------------------------------------------------------
# feature detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KinkEvent:
    """g(t) crossing unity: the discord decay switches branch here."""

    t_cross_ns: float
    direction: str            # 'down' = above -> below, 'up' = below -> above


class ExtremumKind(enum.Enum):
    MINIMUM = "min"
    MAXIMUM = "max"


@dataclass(frozen=True)
class Extremum:
    t_ns: float
    value: float
    kind: ExtremumKind


def find_g_crossings(
    times: np.ndarray,
    g: np.ndarray,
    g_at: Callable[[float], float],
) -> list[KinkEvent]:
    """Sign-change crossings of g(t) - 1, each bisected on the evaluator g_at.

    Samples with |g - 1| <= G_BAND, and non-finite ones, count as on the
    boundary (side 0); a crossing is a pair of neighbouring off-boundary
    samples on opposite sides, so tangential touches and boundary noise
    are excluded.  Each bracketing pair of grid times is bisected with
    g_at (t -> g(t)) to KINK_T_TOL or an exact root; g_at is never called
    if g does not cross.
    """
    times = np.asarray(times, dtype=float)
    g = np.asarray(g, dtype=float)
    side = np.where(np.isfinite(g), (g > 1.0 + G_BAND).astype(int) - (g < 1.0 - G_BAND), 0)
    off = np.flatnonzero(side)
    flips = np.flatnonzero(side[off[1:]] != side[off[:-1]])

    events: list[KinkEvent] = []
    for lo, hi in zip(off[flips], off[flips + 1]):
        t_lo, t_hi = times[lo], times[hi]
        f_lo = g_at(t_lo) - 1.0
        for _ in range(200):
            if t_hi - t_lo <= KINK_T_TOL:
                break
            t_mid = 0.5 * (t_lo + t_hi)
            f_mid = g_at(t_mid) - 1.0
            if f_mid == 0.0:  # an exact root ends the bisection there
                t_lo = t_hi = t_mid
            elif (f_mid > 0.0) == (f_lo > 0.0):
                t_lo, f_lo = t_mid, f_mid
            else:
                t_hi = t_mid
        events.append(KinkEvent(t_cross_ns=float(0.5 * (t_lo + t_hi)), direction="down" if side[lo] > 0 else "up"))
    return events


def find_extrema(
    times: np.ndarray,
    values: np.ndarray,
    min_prominence: float = 0.0,
) -> list[Extremum]:
    """Interior local extrema by discrete comparison with parabolic refinement.

    Runs of exactly equal neighbouring samples collapse to one event at
    the run's center (infinities never form a run).  A run is an extremum
    if it lies strictly above (or below) both neighbouring runs and all
    three are finite.  min_prominence filters noise: a peak must rise at
    least that far above the lower of the valleys separating it from
    higher terrain on each side (symmetrically for minima).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 3:
        return []

    # collapse plateaus to the center index of each run
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan: a run of its own
        starts = np.flatnonzero(np.concatenate(([True], np.diff(values) != 0.0)))
    centers = (starts + np.append(starts[1:] - 1, times.size - 1)) // 2
    rt = times[centers]
    rv = values[centers]

    mid, prev_v, next_v = rv[1:-1], rv[:-2], rv[2:]
    finite = np.isfinite(rv)
    ok = finite[:-2] & finite[1:-1] & finite[2:]
    is_max = ok & (mid > prev_v) & (mid > next_v)
    is_min = ok & (mid < prev_v) & (mid < next_v)
    events: list[Extremum] = []
    for j in np.flatnonzero(is_max | is_min) + 1:
        kind = ExtremumKind.MAXIMUM if is_max[j - 1] else ExtremumKind.MINIMUM
        if min_prominence > 0.0 and _prominence(rv, j, kind) < min_prominence:
            continue
        t_ref, v_ref = _parabolic_refine(rt, rv, j)
        events.append(Extremum(t_ns=t_ref, value=v_ref, kind=kind))
    return events


def _prominence(values: np.ndarray, j: int, kind: ExtremumKind) -> float:
    """Topographic prominence of the extremum at index j in the sample series.

    Each side's base is the lowest sample (nan ignored) between the peak
    and the first strictly higher sample on that side, or the series' end.
    """
    v = values if kind is ExtremumKind.MAXIMUM else -values
    peak = v[j]

    def side_base(side: np.ndarray) -> float:
        higher = np.flatnonzero(side > peak)
        return np.fmin.reduce(side[:higher[0] if higher.size else side.size], initial=peak)

    return peak - max(side_base(v[j - 1::-1]), side_base(v[j + 1:]))


def _parabolic_refine(times: np.ndarray, values: np.ndarray, j: int) -> tuple[float, float]:
    t0, t1, t2 = times[j - 1 : j + 2]
    v0, v1, v2 = values[j - 1 : j + 2]
    denom = v0 - 2.0 * v1 + v2
    if abs(denom) < 1e-300:
        return float(t1), float(v1)
    # uniform-step parabola through the three points
    h = 0.5 * (t2 - t0)
    shift = 0.5 * (v0 - v2) / denom
    shift = max(-1.0, min(1.0, shift))
    t_ref = t1 + shift * h
    v_ref = v1 - 0.25 * (v0 - v2) * shift
    return float(t_ref), float(v_ref)


def build_time_grid(
    t_max: float,
    dt: float = RunConfig.dt,
    dt_long: float = RunConfig.dt_long,
    dense_prefix: float = RunConfig.dense_prefix,
) -> np.ndarray:
    """Default grids: uniform dt up to LONG_GRID_THRESHOLD_NS, else a dense prefix plus coarse tail.

    A dense prefix longer than t_max is cut at t_max.  A grid of more than
    MAX_GRID_POINTS times is refused before it is allocated.
    """
    for name, value in (("t_max", t_max), ("dt", dt), ("dt_long", dt_long)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidParameterError(f"{name} must be finite and positive, got {value}")
    if not dense_prefix >= 0.0:
        raise InvalidParameterError(f"dense_prefix must be non-negative, got {dense_prefix}")
    prefix = t_max if t_max <= LONG_GRID_THRESHOLD_NS else min(dense_prefix, t_max)
    n_dense, n_coarse = np.rint(prefix / dt), np.ceil((t_max - prefix) / dt_long)
    # counted before anything is allocated; an overflowing or NaN count fails too
    if not n_dense + n_coarse + 1.0 <= MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"a time grid to t_max={t_max:g} ns at dt={dt:g} ns, dt_long={dt_long:g} ns holds "
            f"more than MAX_GRID_POINTS = {MAX_GRID_POINTS} times"
        )
    dense = np.linspace(0.0, n_dense * dt, int(n_dense) + 1)
    coarse = prefix + dt_long * np.arange(1, int(n_coarse) + 1)
    return np.concatenate([dense, coarse[coarse <= t_max + 1e-9]])
