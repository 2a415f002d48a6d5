"""Two-qubit evolution under the product channel and trajectory analysis.

Both dots are identical and uncorrelated, so the two-qubit map is the
tensor product of two copies of the single-dot channel.  The engine
applies the channel on a time grid as one stack of evolved density
matrices, evaluates every correlation measure on the whole stack, and
detects the decay-regime crossings (g through unity),
extrema and entanglement-sudden-death features used downstream.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .channel import BathQuadrature, ChannelTrajectory, compute_channel, verify_channel_cp
from .config import write_csv
from .constants import InvalidParameterError
from .measures import UpperPairing, concurrence, discord_bounds, g_ratio
from .states import (
    TRACE_TOL,
    TwoQubitState,
    bell_diagonal_params,
    purity,
    singlet_triplet_weights,
)

EVOLVED_PSD_TOL = 1e-8  # audit tolerance for evolved states (construction is 1e-10)
CP_TOL = 1e-9           # how far |c| may exceed 1 - p in a channel that is applied
_P_RANGE_TOL = 1e-15    # round-off allowed on p outside [0, 1]
G_BAND = 1e-6           # |g - 1| at or below this counts as on the g = 1 boundary
PLATEAU_TOL = 0.0       # neighbouring samples this close form one plateau of find_extrema
LONG_GRID_THRESHOLD_NS = 100.0  # t_max above this gets a dense prefix plus a coarse tail


class ChannelError(InvalidParameterError):
    """Channel parameters violate complete positivity."""


def _evolved_rho(rho0: np.ndarray, chan: ChannelTrajectory) -> np.ndarray:
    """(n, 4, 4) stack of the product channel applied to rho0 at every time of chan.

    Per qubit, (u, d) -> ((1-p)u + pd, pu + (1-p)d) and the off-diagonal
    element picks up c (c* for its conjugate).  The pairs (p, c) must be
    completely positive: 0 <= p <= 1 and |c| <= 1 - p, up to CP_TOL.
    """
    verify_channel_cp(chan).require(CP_TOL, _P_RANGE_TOL, ChannelError)
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


def apply_channel(state: TwoQubitState, p: float, c: complex) -> TwoQubitState:
    """Apply the product channel for one (p, c) pair: populations mix by p, coherences scale by c.

    The same batched action as `evolve`, on a one-time trajectory.
    """
    chan = ChannelTrajectory(times=np.zeros(1), p=np.array([p], dtype=float),
                             c=np.array([c], dtype=complex), dot=None)
    return TwoQubitState(_evolved_rho(state.rho, chan)[0], state.ordering, psd_tol=EVOLVED_PSD_TOL)


def _audit_evolved(rho: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Unit trace and positivity (to EVOLVED_PSD_TOL) of every state; returns the minimum eigenvalues."""
    min_eig = np.linalg.eigvalsh(rho)[:, 0]
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
    """Per-time correlation report along a channel trajectory."""

    times: np.ndarray
    p: np.ndarray
    c: np.ndarray                      # coherence multiplier actually applied
    ds_lower: np.ndarray
    ds_upper: np.ndarray
    d_lower: np.ndarray
    d_upper: np.ndarray
    purity: np.ndarray
    g: np.ndarray
    concurrence: np.ndarray
    st_weights: np.ndarray             # (n, 4): w_Tm1, w_T0, w_Tp1, w_S0
    bell_a: np.ndarray                 # nan where not of Bell-diagonal form
    bell_b: np.ndarray                 # complex; nan where not of form
    min_eigenvalue: np.ndarray
    state0: TwoQubitState
    dot: object = None

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


def effective_coherence(traj: ChannelTrajectory, drop_zeeman_phase: bool = True) -> np.ndarray:
    """Coherence multipliers with the deterministic Zeeman rotation removed.

    Removing e^{i Omega t / hbar} is a local z rotation (co-rotating
    frame); it changes no correlation measure and keeps Phi-type
    coherences slowly varying.
    """
    if not drop_zeeman_phase:
        return traj.c.copy()
    omega_z = traj.dot.zeeman_energy
    hbar = traj.dot.constants.hbar
    return traj.c * np.exp(-1j * omega_z * traj.times / hbar)


def evolve(
    state0: TwoQubitState,
    traj: ChannelTrajectory,
    drop_zeeman_phase: bool = True,
    pairing: UpperPairing = UpperPairing.PRINTED,
) -> CorrelationTrajectory:
    """Apply the product channel along the trajectory and measure everything.

    The evolved states form one (n, 4, 4) stack; every measure is
    evaluated on the whole stack at once.
    """
    c_eff = effective_coherence(traj, drop_zeeman_phase)
    rho = _evolved_rho(state0.rho, replace(traj, c=c_eff))
    min_eig = _audit_evolved(rho, traj.times)
    bounds = discord_bounds(rho, pairing)
    bell_a, bell_b = bell_diagonal_params(rho, state0.ordering)
    return CorrelationTrajectory(
        times=traj.times.copy(),
        p=traj.p.copy(),
        c=c_eff,
        ds_lower=bounds.ds_lower,
        ds_upper=bounds.ds_upper,
        d_lower=bounds.rescaled_lower,
        d_upper=bounds.rescaled_upper,
        purity=purity(rho),
        g=g_ratio(rho),
        concurrence=concurrence(rho),
        st_weights=singlet_triplet_weights(rho),
        bell_a=bell_a,
        bell_b=bell_b,
        min_eigenvalue=min_eig,
        state0=state0,
        dot=traj.dot,
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
    refine: Callable[[float], float] | None = None,
    t_tol: float = 1e-6,
) -> list[KinkEvent]:
    """Sign-change crossings of g(t) - 1, refined by bisection.

    Samples with |g - 1| <= G_BAND count as on the boundary; a crossing
    requires passing from strictly above to strictly below (or vice
    versa), so tangential touches and boundary noise are excluded.  When
    `refine` is given (an exact evaluator t -> g(t)), roots are bisected
    to t_tol; otherwise linear interpolation on the grid is used.
    """
    times = np.asarray(times, dtype=float)
    g = np.asarray(g, dtype=float)
    finite = np.isfinite(g)
    side = np.zeros(times.size, dtype=int)
    side[finite & (g > 1.0 + G_BAND)] = 1
    side[finite & (g < 1.0 - G_BAND)] = -1

    events: list[KinkEvent] = []
    last_side = 0
    last_idx = -1
    for i in range(times.size):
        s = side[i]
        if s == 0:
            continue
        if last_side != 0 and s != last_side:
            t_lo, t_hi = times[last_idx], times[i]
            if refine is not None:
                f_lo = refine(t_lo) - 1.0
                for _ in range(200):
                    if t_hi - t_lo <= t_tol:
                        break
                    t_mid = 0.5 * (t_lo + t_hi)
                    f_mid = refine(t_mid) - 1.0
                    if (f_mid > 0.0) == (f_lo > 0.0):
                        t_lo, f_lo = t_mid, f_mid
                    else:
                        t_hi = t_mid
                t_cross = 0.5 * (t_lo + t_hi)
            else:
                g_lo, g_hi = g[last_idx], g[i]
                frac = (1.0 - g_lo) / (g_hi - g_lo) if g_hi != g_lo else 0.5
                t_cross = t_lo + frac * (t_hi - t_lo)
            events.append(KinkEvent(t_cross_ns=float(t_cross), direction="down" if last_side > 0 else "up"))
        last_side = s
        last_idx = i
    return events


def refined_g_crossings(
    traj: CorrelationTrajectory,
    quad: BathQuadrature,
    drop_zeeman_phase: bool = True,
) -> list[KinkEvent]:
    """g = 1 crossings of `traj`, each bisected on exact single-time evolutions.

    Every bisection step evaluates the channel model `quad` of the
    trajectory's dot at one time, reusing its node data, and evolves the
    trajectory's start state with it.  g does not depend on the discord
    bounds' pairing, so the steps evolve on the default one.
    """
    def g_exact(t: float) -> float:
        single = compute_channel(traj.dot, np.array([t]), quad)
        evolved = evolve(traj.state0, single, drop_zeeman_phase=drop_zeeman_phase)
        return float(evolved.g[0])

    return find_g_crossings(traj.times, traj.g, refine=g_exact)


def find_extrema(
    times: np.ndarray,
    values: np.ndarray,
    min_prominence: float = 0.0,
) -> list[Extremum]:
    """Interior local extrema by discrete comparison with parabolic refinement.

    Runs of samples equal to within PLATEAU_TOL collapse to one event at
    the plateau center.  min_prominence filters noise: a peak must rise at
    least that far above the lower of the valleys separating it from
    higher terrain on each side (symmetrically for minima).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 3:
        return []

    # collapse plateaus to representative samples (center index of each run)
    reps = [0]
    for i in range(1, times.size):
        if abs(values[i] - values[reps[-1]]) <= PLATEAU_TOL:
            continue
        reps.append(i)
    run_centers: list[int] = []
    for r in range(len(reps)):
        lo = reps[r]
        hi = reps[r + 1] - 1 if r + 1 < len(reps) else times.size - 1
        run_centers.append((lo + hi) // 2)
    rt = times[run_centers]
    rv = values[run_centers]

    events: list[Extremum] = []
    for j in range(1, len(run_centers) - 1):
        prev_v, this_v, next_v = rv[j - 1], rv[j], rv[j + 1]
        if not (np.isfinite(prev_v) and np.isfinite(this_v) and np.isfinite(next_v)):
            continue
        if this_v > prev_v and this_v > next_v:
            kind = ExtremumKind.MAXIMUM
        elif this_v < prev_v and this_v < next_v:
            kind = ExtremumKind.MINIMUM
        else:
            continue
        if min_prominence > 0.0 and _prominence(rv, j, kind) < min_prominence:
            continue
        t_ref, v_ref = _parabolic_refine(rt, rv, j)
        events.append(Extremum(t_ns=t_ref, value=v_ref, kind=kind))
    return events


def _prominence(values: np.ndarray, j: int, kind: ExtremumKind) -> float:
    """Topographic prominence of the extremum at index j in the sample series."""
    v = values if kind is ExtremumKind.MAXIMUM else -values
    peak = v[j]
    def side_base(indices) -> float:
        base = peak
        lowest = peak
        for i in indices:
            if v[i] > peak:
                return lowest
            lowest = min(lowest, v[i])
        return lowest
    left = side_base(range(j - 1, -1, -1))
    right = side_base(range(j + 1, len(v)))
    return peak - max(left, right)


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
    dt: float = 0.02,
    dt_long: float = 2.0,
    dense_prefix: float = 50.0,
) -> np.ndarray:
    """Default grids: uniform dt up to LONG_GRID_THRESHOLD_NS, else a dense prefix plus coarse tail.

    A dense prefix longer than t_max is cut at t_max.
    """
    for name, value in (("t_max", t_max), ("dt", dt), ("dt_long", dt_long)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidParameterError(f"{name} must be finite and positive, got {value}")
    if not dense_prefix >= 0.0:
        raise InvalidParameterError(f"dense_prefix must be non-negative, got {dense_prefix}")
    if t_max <= LONG_GRID_THRESHOLD_NS:
        n = int(round(t_max / dt))
        return np.linspace(0.0, n * dt, n + 1)
    dense_prefix = min(dense_prefix, t_max)
    n_dense = int(round(dense_prefix / dt))
    dense = np.linspace(0.0, n_dense * dt, n_dense + 1)
    n_coarse = int(math.ceil((t_max - dense_prefix) / dt_long))
    coarse = dense_prefix + dt_long * np.arange(1, n_coarse + 1)
    coarse = coarse[coarse <= t_max + 1e-9]
    return np.concatenate([dense, coarse])
