"""Two-qubit evolution under the product channel and trajectory analysis.

Both dots are identical and uncorrelated, so the two-qubit map is the
tensor product of two copies of the single-dot channel.  The engine maps
the start state's Bloch form along the channel's time arrays, which is
all that g, purity and both discord bounds read, and builds the stack of
evolved density matrices, entry by entry from elementwise products of
the channel's time arrays with fixed entries of the start state, only
for the columns that read it; a time gets the same bits alone as inside
a stack.  The inputs are certified, not the outputs: a validated start
and a CP-audited channel make every evolved state a density matrix to
EVOLVED_PSD_TOL (Choi's theorem, see there), so no evolved state is
audited.  A measure is computed when its column is first read.
The feature scanners detect the decay-regime crossings (g through
unity), extrema and entanglement-sudden-death features used downstream;
crossings are refined in batched rounds through `evolve` itself.
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
    _g_of,
    _k_eigh,
    _lower_bound,
    _upper_bound,
    concurrence,
    rescaled_discord,
)
from .states import (
    BlochForm,
    TwoQubitState,
    bell_diagonal_params,
    bell_ordering,
    bloch_decompose,
    singlet_triplet_weights,
)

# Every evolved eigenvalue is at least -EVOLVED_PSD_TOL, a proof obligation on the inputs that
# `qdspin verify` (check 14) and the tests read back through `min_eigenvalue`.  A start passes
# `validate_density_matrix`: its Hermitian part H, the only part `_evolved_rho` maps (it
# symmetrizes), has trace 1 within TRACE_TOL and H + e I >= 0 for e = PSD_TOL_CONSTRUCTION.  Each
# dot's pair passes `CpReport.require`, so its Choi eigenvalues p, p and 1 - p +- |c| are at least
# -d, d = CP_MARGIN_TOL, with p in [0, 1] to P_RANGE_TOL (Choi, Linear Algebra Appl. 10, 285
# (1975)).  Split each dot's map as F = F' + D: F' keeps p and cuts |c| to 1 - p, so it is CP and
# unital, and D moves the coherence alone, by d at most.  With S = H + e I >= 0,
# (F x F)(H) = (F' x F')(S) + (D x F' + F' x D + D x D)(S) - e I; the first term is >= 0, and
# D x F' acts on (1 x F')(S) >= 0, so its term has norm <= d Tr S / 2 (likewise F' x D), and
# D x D's is O(d^2).  So the bound is -(CP_MARGIN_TOL + PSD_TOL_CONSTRUCTION) ~ -1.1e-9 plus
# round-off; measured at every tolerance edge: -1.000e-9.  The channel preserves the trace, so
# Tr rho(t) stays within TRACE_TOL of 1 up to round-off.
EVOLVED_PSD_TOL = 1e-8
G_BAND = 1e-6           # |g - 1| at or below this counts as on the g = 1 boundary
KINK_T_TOL = 1e-6       # ns; the refinement stops once every crossing is bracketed this tightly
KINK_SECTIONS = 32      # sub-intervals per bracket and round: 2**5, five bisection steps per round
GRID_END_TOL = 1e-9     # ns; how far a time grid's last time may fall short of t_max
LONG_GRID_THRESHOLD_NS = 100.0  # t_max above this gets a dense prefix plus a coarse tail
DENSE_PREFIX_NS = 50.0          # the dense prefix of a long grid, at the run's dt
DT_LONG_NS = 2.0                # the coarse tail's step
MAX_GRID_POINTS = 1_000_000     # times a grid may hold; the default 12 000 ns grid has 8476


class ChannelError(InvalidParameterError):
    """Channel parameters violate complete positivity."""


class NormalizationError(InvalidParameterError, ZeroDivisionError):
    """The normalizing initial discord vanishes: the state has none to normalize by (exit 2)."""


def effective_coherence(traj: ChannelTrajectory) -> np.ndarray:
    """The coherence multipliers the product channel applies: co-rotated, and CP-audited with p.

    Removing e^{i Omega t / hbar} is a local z rotation (co-rotating
    frame); it changes no correlation measure and keeps Phi-type
    coherences slowly varying.  The pairs (p, c) must be completely
    positive within the one bound of `CpReport.require`.
    """
    with np.errstate(invalid="ignore"):  # an infinite c times 1 + 0j has a nan part, which the audit refuses
        c_eff = traj.c * np.exp(-1j * traj.dot.zeeman_energy * traj.times / HBAR_UEV_NS)
    verify_channel_cp(replace(traj, c=c_eff)).require(ChannelError)
    return c_eff


def _evolved_rho(rho0: np.ndarray, p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(n, 4, 4) stack of the product channel (p, c) applied to rho0 at each of n times.

    Per qubit, entry (a, a') is kept times k_aa' (k = [[1-p, c], [c*, 1-p]])
    and each diagonal entry also gains p times the other population.  So
    each entry of rho(t) is a sum of at most four terms, keep x keep,
    keep x flip, flip x keep and flip x flip in that order, each a product
    of time arrays times a fixed entry of rho0.  The work is laid out with
    time as the contiguous last axis, and every operation is elementwise
    along it: no sum runs over time, so a state gets the same bits alone
    as inside a stack.
    """
    n = p.size
    keep = np.array([[1.0 - p, c], [np.conj(c), 1.0 - p]])  # k_aa' along time
    r = rho0.reshape(2, 2, 2, 2)[..., None]  # (a, b, a', b', 1), A the left qubit
    out = keep[:, None, :, None] * keep[None, :, None, :] * r
    kept_flipped = keep * p  # one dot kept, the other's populations swapped
    for s in (0, 1):  # B flipped: (a, s | a', s) gains from (a, 1-s | a', 1-s)
        out[:, s, :, s] += kept_flipped * r[:, 1 - s, :, 1 - s]
    for s in (0, 1):  # A flipped
        out[s, :, s, :] += kept_flipped * r[1 - s, :, 1 - s, :]
    out = out.reshape(4, 4, n)
    both_flipped = p * p
    for i in range(4):  # a population gains the opposite population of both dots
        out[i, i] += both_flipped * rho0[3 - i, 3 - i]
    out = 0.5 * (out + out.conj().swapaxes(0, 1))
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def _evolved_bloch(form0: BlochForm, p: np.ndarray, c: np.ndarray) -> BlochForm:
    """Bloch form of the product channel (p, c) applied to the start form0 at each of n times.

    Per qubit the channel maps Bloch vectors by Lambda = [[Re c, Im c, 0],
    [-Im c, Re c, 0], [0, 0, q]], q = 1 - 2p: v_x + i v_y is multiplied by
    conj(c) and v_z by q.  So T' = Lambda T Lambda^T multiplies T's
    transverse column T_xz + i T_yz and row T_zx + i T_zy by q conj(c), T_zz
    by q^2, the part of its transverse block no rotation moves,
    s = ((T_xx + T_yy) + i (T_yx - T_xy)) / 2, by |c|^2, and the part that
    turns twice, r = ((T_xx - T_yy) + i (T_yx + T_xy)) / 2, by conj(c)^2.
    Each entry is one such product, so a zero of form0 stays exact, and no
    sum runs along time: a time gets the same bits alone as inside a stack.
    """
    q, turn = 1.0 - 2.0 * p, np.conj(c)
    x, y, t = form0.x, form0.y, form0.t_corr
    s = 0.5 * complex(t[0, 0] + t[1, 1], t[1, 0] - t[0, 1]) * (c.real * c.real + c.imag * c.imag)
    r = 0.5 * complex(t[0, 0] - t[1, 1], t[1, 0] + t[0, 1]) * (turn * turn)
    x_tr, y_tr = turn * complex(x[0], x[1]), turn * complex(y[0], y[1])
    col, row = q * turn * complex(t[0, 2], t[1, 2]), q * turn * complex(t[2, 0], t[2, 1])
    t_out = np.stack([s.real + r.real, r.imag - s.imag, col.real,
                      s.imag + r.imag, s.real - r.real, col.imag,
                      row.real, row.imag, q * q * t[2, 2]], axis=-1)
    return BlochForm(np.stack([x_tr.real, x_tr.imag, q * x[2]], axis=-1),
                     np.stack([y_tr.real, y_tr.imag, q * y[2]], axis=-1), t_out.reshape(-1, 3, 3))


@dataclass
class CorrelationTrajectory:
    """Correlation report along a channel trajectory, with the channel's model.

    `evolve` fills the fields: copies of the channel pair actually applied.
    The model is the channel's own, shared with every trajectory on that
    channel (a channel from `channel_for_field` is shared within the
    process) and read-only.  Every column, `rho` and `min_eigenvalue`
    included, is computed when it is first read and kept from then on.
    g, purity, (1 + |x|^2 + |y|^2 + ||T||^2)/4, and both discord bounds read
    the Bloch form that `_evolved_bloch` maps from the start state along
    (p, c); the concurrence, the weights, the Bell fit and `min_eigenvalue`
    read the (n, 4, 4) stack `rho` that `_evolved_rho` builds on their
    first read.  So a row that reads only M, `d_longtime`, g-extrema or
    kinks builds no stack, whatever its start.  The bounds share one
    eigendecomposition of the K matrices (`measures.KEigh`), made when
    either is first read.  A start whose only coherence is the real rho_12
    (Bell psi, Werner, Bell-diagonal) keeps T diagonal and x, y along z
    exactly, so every K is read off its diagonal (x_z, y_z, T_ii) with the
    unit vectors as its eigenvectors, and no `eigh` runs.  The upper
    bound's corrections run only when `ds_upper` or `d_upper` is read.
    """

    times: np.ndarray
    p: np.ndarray
    c: np.ndarray                      # coherence multiplier actually applied
    state0: TwoQubitState
    dot: DotParameters
    model: BathQuadrature | None = field(default=None, repr=False)

    @cached_property
    def rho(self) -> np.ndarray:
        """(n, 4, 4) stack of the evolved states."""
        return _evolved_rho(self.state0.rho, self.p, self.c)

    @cached_property
    def min_eigenvalue(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.rho)[:, 0].copy()  # a copy: a view would keep all n x 4 eigenvalues alive

    @cached_property
    def _bloch(self) -> BlochForm:
        return _evolved_bloch(bloch_decompose(self.state0), self.p, self.c)

    @cached_property
    def _k_eigen(self) -> KEigh:
        return _k_eigh(self._bloch)

    @cached_property
    def ds_lower(self) -> np.ndarray:
        return _lower_bound(self._k_eigen.a)

    @cached_property
    def ds_upper(self) -> np.ndarray:
        return _upper_bound(self._k_eigen, self.ds_lower)

    @cached_property
    def d_lower(self) -> np.ndarray:
        return rescaled_discord(self.ds_lower, self.purity)

    @cached_property
    def d_upper(self) -> np.ndarray:
        return rescaled_discord(self.ds_upper, self.purity)

    @cached_property
    def purity(self) -> np.ndarray:
        x, y, t = self._bloch.x, self._bloch.y, self._bloch.t_corr
        return 0.25 * (1.0 + np.einsum("ni,ni->n", x, x) + np.einsum("ni,ni->n", y, y)
                       + np.einsum("nij,nij->n", t, t))

    @cached_property
    def g(self) -> np.ndarray:
        t_corr = self._bloch.t_corr
        return _g_of(np.abs(t_corr[:, 0, 0]), np.abs(t_corr[:, 2, 2]))

    @cached_property
    def concurrence(self) -> np.ndarray:
        return concurrence(self.rho)

    @cached_property
    def st_weights(self) -> np.ndarray:
        """(n, 4): w_Tm1, w_T0, w_Tp1, w_S0."""
        return singlet_triplet_weights(self.rho)

    @cached_property
    def _bell_params(self) -> tuple[np.ndarray, np.ndarray]:
        return bell_diagonal_params(self.rho, bell_ordering(self.state0))

    @cached_property
    def bell_a(self) -> np.ndarray:
        """nan where not of Bell-diagonal form."""
        return self._bell_params[0]

    @cached_property
    def bell_b(self) -> np.ndarray:
        """Complex; nan where not of Bell-diagonal form."""
        return self._bell_params[1]

    def g_on(self, times: np.ndarray) -> np.ndarray:
        """g at the given times: the start state evolved on the model's channel there, as the g column is."""
        if self.model is None:
            raise InvalidParameterError("a trajectory on a hand-built channel has no model to evaluate g on")
        return evolve(self.state0, compute_channel(self.model, times)).g

    def initial_discord(self) -> float:
        """d_lower(0), which M(B) and every output normalization divide by; NormalizationError where it vanishes."""
        d0 = self.d_lower[0]
        if d0 <= 1e-15:
            raise NormalizationError("initial rescaled discord is zero: M(B) and normalized discord are undefined")
        return d0

    def normalized(self, mode: str = "none") -> tuple[np.ndarray, np.ndarray]:
        """Rescaled-discord bounds under an output normalization.

        'none' returns raw values, 'initial' divides by d_lower(0), 'half'
        scales so the trajectory starts at 1/2.  Normalization never
        changes where extrema or crossings sit.
        """
        if mode == "none":
            return self.d_lower.copy(), self.d_upper.copy()
        d0 = self.initial_discord()
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


def evolve(state0: TwoQubitState, traj: ChannelTrajectory) -> CorrelationTrajectory:
    """Apply the product channel along the trajectory.

    The channel acts in the co-rotating frame and is CP-audited there
    (`effective_coherence`).  That audit and the start's validation
    (`TwoQubitState`) are the only checks: together they keep every
    evolved eigenvalue above -EVOLVED_PSD_TOL and the trace within
    TRACE_TOL (the argument is written at EVOLVED_PSD_TOL), so no evolved
    state is audited again and no stack is built here.  The measures are
    evaluated on the whole trajectory when their columns are first read.
    """
    return CorrelationTrajectory(times=traj.times.copy(), p=traj.p.copy(), c=effective_coherence(traj),
                                 state0=state0, dot=traj.dot, model=traj.model)


# ---------------------------------------------------------------------------
# feature detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KinkEvent:
    """g(t) crossing unity: the discord decay switches branch here."""

    t_cross_ns: float
    direction: str            # 'down' = above -> below, 'up' = below -> above


def kink_text(events: list[KinkEvent]) -> str:
    """The crossing times in ns, `;`-separated at 9 significant digits: `evolve`'s header and the sweep's cell."""
    return ";".join(f"{e.t_cross_ns:.9g}" for e in events)


class ExtremumKind(enum.Enum):
    MINIMUM = "min"
    MAXIMUM = "max"


@dataclass(frozen=True)
class Extremum:
    t_ns: float
    value: float
    kind: ExtremumKind


def find_g_crossings(times: np.ndarray, g: np.ndarray, g_on: Callable[[np.ndarray], np.ndarray]) -> list[KinkEvent]:
    """Sign-change crossings of g(t) - 1, each refined by multisection on the batch evaluator g_on.

    Samples with |g - 1| <= G_BAND, and non-finite ones, count as on the
    boundary (side 0); a crossing is a pair of neighbouring off-boundary
    samples on opposite sides, so tangential touches and boundary noise
    are excluded.  Per round, one g_on call (times -> g) evaluates every
    open bracket cut at t_lo + k*step into KINK_SECTIONS sub-intervals, one
    uniform channel run; a bracket keeps its first sub-interval whose right
    end is off its left end's side (read in round 1, nan below), else its
    last, and closes on an exact root.
    Rounds end once each is KINK_T_TOL wide or stops narrowing: three on a
    0.02 ns step.  g_on is never called if g does not cross.
    """
    times = np.asarray(times, dtype=float)
    g = np.asarray(g, dtype=float)
    side = np.where(np.isfinite(g), (g > 1.0 + G_BAND).astype(int) - (g < 1.0 - G_BAND), 0)
    off = np.flatnonzero(side)
    flips = np.flatnonzero(side[off[1:]] != side[off[:-1]])
    lo = off[flips]
    t_lo, t_hi = times[lo], times[off[flips + 1]]
    above = np.zeros(lo.size, dtype=bool)  # each bracket's reference side: its left end's
    open_, first = np.flatnonzero(t_hi - t_lo > KINK_T_TOL), 0  # round 1 also evaluates the left ends
    while open_.size:
        width = t_hi[open_] - t_lo[open_]
        step = (t_lo[open_] + width / KINK_SECTIONS) - t_lo[open_]
        edges = t_lo[open_, None] + step[:, None] * np.arange(KINK_SECTIONS + 1)
        edges[:, -1] = t_hi[open_]
        f = np.reshape(g_on(edges[:, first:-1].ravel()), (open_.size, -1)) - 1.0
        if first == 0:
            above[open_], f, first = f[:, 0] > 0.0, f[:, 1:], 1
        ref = above[open_, None]
        f = np.hstack([f, np.where(ref, -np.inf, np.inf)])  # column i is edge i + 1; the right end is off ref
        j = (((f > 0.0) != ref) | (f == 0.0)).argmax(axis=1)  # the first edge off the reference side, or a root
        rows = np.arange(open_.size)
        t_hi[open_] = edges[rows, j + 1]
        t_lo[open_] = np.where(f[rows, j] == 0.0, t_hi[open_], edges[rows, j])
        narrower = t_hi[open_] - t_lo[open_]
        open_ = open_[(narrower > KINK_T_TOL) & (narrower < width)]
    return [KinkEvent(t_cross_ns=float(0.5 * (a + b)), direction="down" if side[k] > 0 else "up")
            for a, b, k in zip(t_lo, t_hi, lo)]


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
    peaks = np.flatnonzero(is_max | is_min) + 1
    if min_prominence > 0.0:
        peaks = peaks[~(_prominences(rv, peaks, is_max[peaks - 1]) < min_prominence)]
    events: list[Extremum] = []
    for j in peaks:
        t_ref, v_ref = _parabolic_refine(rt, rv, j)
        events.append(Extremum(t_ns=t_ref, value=v_ref,
                               kind=ExtremumKind.MAXIMUM if is_max[j - 1] else ExtremumKind.MINIMUM))
    return events


def _doubling_table(v: np.ndarray, reduce: np.ufunc) -> np.ndarray:
    """Row k, column i: `reduce` (np.fmax or np.fmin, nan ignored) over v[i : i + 2**k], cut at the series' end.

    The windows of rows 0 .. k sum past any distance in the series; the
    last column is nan, the neutral element of both, a window past the end.
    """
    n = v.size
    table = np.empty((max(n.bit_length(), 1), n + 1))
    table[:, n] = np.nan
    table[0, :n] = v
    for k in range(1, table.shape[0]):
        half = 1 << (k - 1)  # below n on every row
        prev, row = table[k - 1], table[k]
        reduce(prev[:n - half], prev[half:n], out=row[:n - half])
        row[n - half:n] = prev[n - half:n]
    return table


def _prominences(values: np.ndarray, peaks: np.ndarray, maxima: np.ndarray) -> np.ndarray:
    """Topographic prominence of the extremum at each index of `peaks` in the sample series.

    `maxima` marks the maxima; the rest are minima, the maxima of the
    terrain -values.  Each side's base is the lowest sample (nan ignored)
    between the peak and the first strictly higher sample on that side, or
    the series' end.  All peaks search outward at once, each side in
    windows of halving length, 2**k samples at step k, passing every window
    whose highest sample is no higher than the peak; the windows' highest
    and lowest samples come from two tables built once per series.  That
    is O(log n) steps per peak where a whole-series scan per peak took
    O(n), which thousands of noise extrema on a long flat series made slow.
    """
    n = values.size
    highs, lows = _doubling_table(values, np.fmax), _doubling_table(values, np.fmin)

    def terrain(k, start, highest: bool) -> np.ndarray:
        """Each peak's highest or lowest terrain sample in [start, start + 2**k) (cut at the end)."""
        up, down = (highs, lows) if highest else (lows, highs)
        return np.where(maxima, up[k, start], -down[k, start])

    def floor(lo, hi) -> np.ndarray:
        """fmin of each peak's height and its lowest terrain sample in [lo, hi), from two windows covering it."""
        length = hi - lo
        k = np.maximum(np.frexp(np.maximum(length, 1))[1] - 1, 0)  # the largest 2**k <= length
        low = np.fmin(terrain(k, lo, False), terrain(k, np.maximum(hi - (1 << k), 0), False))
        return np.fmin(height, np.where(length > 0, low, np.nan))

    height = np.where(maxima, values[peaks], -values[peaks])
    left, right = peaks.copy(), peaks + 1  # each side's samples passed so far: [left, peak) and (peak, right)
    for k in range(highs.shape[0] - 1, -1, -1):
        step = 1 << k
        passed = ~(terrain(k, right, True) > height)  # column n is nan: nothing lies past the end
        right = np.where(passed, np.minimum(right + step, n), right)
        fits = left >= step
        passed = fits & ~(terrain(k, np.where(fits, left - step, 0), True) > height)
        left = np.where(passed, left - step, left)
    return height - np.maximum(floor(left, peaks), floor(peaks + 1, right))


def _parabolic_refine(times: np.ndarray, values: np.ndarray, j: int) -> tuple[float, float]:
    """Vertex of the parabola through samples j - 1, j and j + 1, at any spacing; its time is kept in [t0, t2]."""
    t0, t1, t2 = map(float, times[j - 1 : j + 2])
    v0, v1, v2 = map(float, values[j - 1 : j + 2])
    h0, h1 = t1 - t0, t2 - t1
    s0, s1 = (v1 - v0) / h0, (v2 - v1) / h1  # the secant slopes
    curv = (s1 - s0) / (h0 + h1)  # the parabola is v1 + slope (t - t1) + curv (t - t1)^2
    if curv == 0.0 or not math.isfinite(curv):
        return t1, v1
    slope = (s0 * h1 + s1 * h0) / (h0 + h1)
    shift = min(max(-0.5 * slope / curv, -h0), h1)
    return t1 + shift, v1 + shift * (slope + curv * shift)


def build_time_grid(t_max: float, dt: float = RunConfig.dt) -> np.ndarray:
    """Uniform dt up to LONG_GRID_THRESHOLD_NS; past it, DENSE_PREFIX_NS at dt, then DT_LONG_NS steps.

    A grid of more than MAX_GRID_POINTS times is refused before it is
    allocated, and so is a grid whose dense prefix rounds to no dt step,
    whose times would not increase (a dense part rounded to whole dt steps
    past the tail's first time), that holds only t = 0 or that ends more
    than GRID_END_TOL short of t_max.
    """
    for name, value in (("t_max", t_max), ("dt", dt)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidParameterError(f"{name} must be finite and positive, got {value}")
    prefix = t_max if t_max <= LONG_GRID_THRESHOLD_NS else DENSE_PREFIX_NS
    n_dense, n_coarse = np.rint(prefix / dt), np.ceil((t_max - prefix) / DT_LONG_NS)
    steps = f"a time grid to t_max={t_max:g} ns at dt={dt:g} ns"
    # counted before anything is allocated; an overflowing or NaN count fails too
    if not n_dense + n_coarse + 1.0 <= MAX_GRID_POINTS:
        raise InvalidParameterError(f"{steps} holds more than MAX_GRID_POINTS = {MAX_GRID_POINTS} times")
    if prefix < t_max and n_dense == 0:  # the dense prefix would hold t = 0 alone
        raise InvalidParameterError(f"{steps} puts no dt step in its {DENSE_PREFIX_NS:g} ns dense prefix; "
                                    f"dt must be below {2.0 * DENSE_PREFIX_NS:g} ns")
    if prefix < t_max and not n_dense * dt < prefix + DT_LONG_NS:  # the times would not increase
        raise InvalidParameterError(f"{steps} has its dense part end at {n_dense * dt:g} ns, not before the "
                                    f"coarse tail's first time at {prefix + DT_LONG_NS:g} ns; dt must be smaller")
    dense = np.linspace(0.0, n_dense * dt, int(n_dense) + 1)
    coarse = prefix + DT_LONG_NS * np.arange(1, int(n_coarse) + 1)
    grid = np.concatenate([dense, coarse[coarse <= t_max + GRID_END_TOL]])
    if grid.size < 2:
        raise InvalidParameterError(f"{steps} holds only t = 0; t_max must reach the first step")
    if grid[-1] < t_max - GRID_END_TOL:
        on_step = ("a whole number of dt steps" if prefix == t_max
                   else f"{DENSE_PREFIX_NS:g} ns plus a whole number of {DT_LONG_NS:g} ns steps")
        raise InvalidParameterError(f"{steps} ends at {grid[-1]:g} ns, {t_max - grid[-1]:g} ns short of t_max; "
                                    f"t_max must be {on_step}")
    return grid
