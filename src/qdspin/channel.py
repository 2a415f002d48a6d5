"""Single-dot decoherence channel of the uniform-coupling hyperfine model.

The electron couples identically (alpha = A/N) to N bath spins, so the
Hamiltonian is block diagonal in the conserved total z projection: each
2x2 block spans |up, m> and |down, m+1> of the collective bath spin.
Diagonalizing a block gives the survival amplitudes and the in-block flip
probability; averaging them over the infinite-temperature bath yields the
channel pair
    p(t)  occupation-transfer (flip) probability,
    c(t)  coherence multiplier,
which completely determine the qubit map (complete positivity reads
|c| <= 1 - p).

Bath statistics in the large-N limit: the polarization m is Gaussian with
variance sigma^2 = N I(I+1)/3 (Gauss-Hermite nodes) and the transverse
invariant Q is exponential with mean 2 sigma^2 (Gauss-Laguerre nodes);
the flip-flop strength of a block is j(j+1) - m(m+1) = Q - m.  The
bra-side block of the coherence average sits at polarization m-1 inside
the same multiplet, so its strength is Q + m (exact difference 2m).
Sharing the multiplet invariant keeps the two block frequencies exactly
degenerate at zero field, which the zero-field Werner-form identities
rely on.

Long times: the e^{+-i(w+w')t} interference terms decay on the dephasing
scale (a ~2e-5 remnant from near-frozen low-frequency blocks persists,
measured directly), while the quadrature resolves their phase only up to
a Nyquist window set by the largest frequency step between adjacent nodes
on either grid axis.  Past 0.8x that window the fast terms are dropped,
leaving the slow difference terms whose phase is exactly resolved at
every time.  This keeps the channel accurate over the whole validity
window with node counts linear in t_max; the handoff error is the tiny
remnant above, far below every tolerance used downstream.

Evaluation: expanding the amplitude products leaves, per node, three
frequency families with real amplitudes (p from 2w_ket, c from the slow
w_ket - w_bra and the fast w_ket + w_bra), so each channel component is
a non-uniform Fourier sum over the nodes (type 3 in Greengard & Lee,
SIAM Rev. 46, 2004).  The time grid splits into maximal uniform runs
(the dense prefix and the coarse tail of `build_time_grid`).  On a run,
t = T_j + tau_k with T_j every K-th grid time and tau_k = k*step,
K ~ sqrt(run length), so cos/sin(w t) factor into a (J x nodes) table
at the grid's own T_j and a (nodes x K) table at tau_k: a family costs
nodes*(J+K) trig calls and one GEMM instead of 4*nodes*times.  Nodes
are taken in fixed-size blocks, accumulated in node order, which keeps
every table at a few MB on the longest grids and the summation order
fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import roots_hermite, roots_laguerre

from .constants import (
    DotParameters,
    QdspinError,
    ValidityWindowError,
)

DEGENERATE_BLOCK_E2 = 1e-30      # ueV^2; below this a block acts as identity
CP_MARGIN_HARD = 1e-4            # beyond this the quadrature is under-resolved
VALIDITY_GRACE = 1.05            # hbar*N/A is an estimate; allow 5% on top
MIN_M_NODES = 257
MIN_Q_NODES = 64
_MIN_BATH_NUCLEI = 100           # Gaussian bath statistics need a large bath


class QuadratureResolutionError(QdspinError, ArithmeticError):
    """The bath quadrature cannot resolve the requested evolution."""


@dataclass(frozen=True)
class BathQuadrature:
    """Normalized quadrature over the infinite-temperature bath.

    m_nodes/m_weights sample the Gaussian polarization, q_nodes/q_weights
    the exponential transverse invariant.  t_resolved_ns is the largest
    time at which the fastest interference phase is still Nyquist-resolved
    by the m grid.
    """

    m_nodes: np.ndarray
    m_weights: np.ndarray
    q_nodes: np.ndarray
    q_weights: np.ndarray
    sigma_m: float
    t_max_ns: float
    t_resolved_ns: float

    def __post_init__(self) -> None:
        for name in ("m_weights", "q_weights"):
            w = getattr(self, name)
            if abs(float(w.sum()) - 1.0) > 1e-9:
                raise QuadratureResolutionError(f"{name} must sum to 1, got {w.sum()!r}")
        if np.any(self.q_nodes <= 0.0):
            raise QuadratureResolutionError("all q_nodes must be positive")


def node_count_rule(dot: DotParameters, t_max_ns: float) -> tuple[int, int]:
    """Minimum node counts resolving the e^{-i alpha m t / hbar} phase at t_max."""
    hbar = dot.constants.hbar
    n_m = max(MIN_M_NODES, math.ceil(8.0 * dot.sigma_m * dot.alpha * t_max_ns / (2.0 * math.pi * hbar)))
    return n_m, MIN_Q_NODES


def build_quadrature(
    dot: DotParameters,
    t_max_ns: float,
    m_count: int | None = None,
    q_count: int | None = None,
) -> BathQuadrature:
    """Gauss-Hermite x Gauss-Laguerre bath quadrature sized for t_max."""
    if t_max_ns < 0.0:
        raise ValidityWindowError(f"t_max must be nonnegative, got {t_max_ns}")
    window = VALIDITY_GRACE * dot.validity_window_ns
    if t_max_ns > window:
        raise ValidityWindowError(
            f"t_max={t_max_ns:g} ns exceeds the box-model validity window "
            f"~{dot.validity_window_ns:g} ns (hbar*N/A)"
        )
    if dot.n_nuclei < _MIN_BATH_NUCLEI:
        raise ValidityWindowError(
            f"Gaussian bath statistics require N >= {_MIN_BATH_NUCLEI}, got {dot.n_nuclei:g}"
        )
    n_m_min, n_q_min = node_count_rule(dot, t_max_ns)
    n_m = n_m_min if m_count is None else int(m_count)
    n_q = n_q_min if q_count is None else int(q_count)
    if n_m < 3 or n_q < 3:
        raise QuadratureResolutionError(f"node counts too small: m={n_m}, q={n_q}")

    sigma = dot.sigma_m
    x, wx = roots_hermite(n_m)            # weight e^{-x^2}; m = sqrt(2) sigma x
    m_nodes = math.sqrt(2.0) * sigma * x
    m_weights = wx / wx.sum()
    y, wy = roots_laguerre(n_q)           # weight e^{-y}; Q = 2 sigma^2 y
    q_nodes = 2.0 * sigma * sigma * y
    q_weights = wy / wy.sum()

    # largest m spacing inside the Gaussian bulk fixes the resolved window
    bulk = m_nodes[np.abs(m_nodes) <= 4.0 * sigma]
    if bulk.size < 2:
        bulk = m_nodes
    dm_max = float(np.diff(np.sort(bulk)).max())
    t_resolved = math.pi * dot.constants.hbar / (dot.alpha * dm_max)

    return BathQuadrature(
        m_nodes=m_nodes,
        m_weights=m_weights,
        q_nodes=q_nodes,
        q_weights=q_weights,
        sigma_m=sigma,
        t_max_ns=float(t_max_ns),
        t_resolved_ns=t_resolved,
    )


@dataclass
class ChannelTrajectory:
    """Time series of the single-dot channel pair {p(t), c(t)}."""

    times: np.ndarray
    p: np.ndarray
    c: np.ndarray
    dot: DotParameters
    m_count: int = 0
    q_count: int = 0
    fast_term_cutoff_ns: float = math.inf

    def to_csv(self, path: str | Path, header_lines: list[str] | None = None) -> None:
        lines = [f"# {h}" for h in (header_lines or [])]
        lines.append("t_ns,p,c_re,c_im")
        for t, pv, cv in zip(self.times, self.p, self.c):
            lines.append(f"{t:.17g},{pv:.17g},{cv.real:.17g},{cv.imag:.17g}")
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class CpReport:
    """Physicality audit of a channel trajectory: 0 <= p <= 1 and |c| <= 1 - p."""

    ok: bool
    worst_margin: float
    worst_time_ns: float
    p_min: float
    p_max: float
    worst_index: int = 0

    def require(self, margin_tol: float, p_tol: float, error: type[Exception]) -> None:
        """Raise `error` if p leaves [0, 1] by more than p_tol or the margin drops below -margin_tol."""
        if not (self.p_min >= -p_tol and self.p_max <= 1.0 + p_tol):
            raise error(f"flip probability left [0, 1]: min {self.p_min!r}, max {self.p_max!r}")
        if not self.worst_margin >= -margin_tol:
            raise error(
                f"complete positivity |c| <= 1-p violated by {-self.worst_margin:.3e} "
                f"at time index {self.worst_index} (t={self.worst_time_ns:g} ns)"
            )


def verify_channel_cp(traj: ChannelTrajectory, eps: float = 1e-12) -> CpReport:
    """Per-time check 0 <= p <= 1 and |c| <= 1 - p; returns the worst margin.

    `ok` applies `eps` to both conditions; callers with their own
    tolerances use `CpReport.require`.  The raw worst margin is always
    reported.
    """
    margin = 1.0 - traj.p - np.abs(traj.c)
    idx = int(np.argmin(margin)) if margin.size else 0
    worst = float(margin[idx]) if margin.size else 1.0
    p_min = float(traj.p.min()) if traj.p.size else 0.0
    p_max = float(traj.p.max()) if traj.p.size else 0.0
    ok = worst >= -eps and p_min >= -eps and p_max <= 1.0 + eps
    return CpReport(
        ok=ok,
        worst_margin=worst,
        worst_time_ns=float(traj.times[idx]) if margin.size else 0.0,
        p_min=p_min,
        p_max=p_max,
        worst_index=idx,
    )


def _node_tables(dot: DotParameters, quad: BathQuadrature):
    """Per-node block data shared by every time point."""
    alpha = dot.alpha
    omega_z = dot.zeeman_energy
    hbar = dot.constants.hbar
    m = quad.m_nodes[:, None]
    q = quad.q_nodes[None, :]
    w2d = quad.m_weights[:, None] * quad.q_weights[None, :]

    delta_ket = 0.5 * (-omega_z + alpha * (m + 0.5))
    delta_bra = 0.5 * (-omega_z + alpha * (m - 0.5))
    # both blocks share the multiplet: j(j+1) - m(m+1) = Q -+ m in terms of
    # the transverse invariant Q, so their frequencies degenerate at B = 0
    v2 = np.clip(0.25 * alpha * alpha * (q - m), 0.0, None)
    v2_bra = np.clip(0.25 * alpha * alpha * (q + m), 0.0, None)

    e2_ket = delta_ket * delta_ket + v2
    e2_bra = delta_bra * delta_bra + v2_bra
    e_ket = np.sqrt(e2_ket)
    e_bra = np.sqrt(e2_bra)

    live_ket = e2_ket >= DEGENERATE_BLOCK_E2
    live_bra = e2_bra >= DEGENERATE_BLOCK_E2
    s_ket = np.where(live_ket, delta_ket / np.where(live_ket, e_ket, 1.0), 0.0)
    s_bra = np.where(live_bra, delta_bra / np.where(live_bra, e_bra, 1.0), 0.0)
    v_frac = np.where(live_ket, v2 / np.where(live_ket, e2_ket, 1.0), 0.0)

    w_ket = e_ket / hbar
    w_bra = e_bra / hbar
    # e_ket^2 - e_bra^2 = -Omega*alpha/2 exactly (same-multiplet sharing),
    # so the slow frequency difference is computed without cancellation
    esum = e_ket + e_bra
    w_diff = np.where(esum > 0.0, (-omega_z * alpha / 2.0) / (hbar * esum), 0.0)

    # Nyquist window of the interference phase (w_ket + w_bra) * t on the
    # actual grid: beyond pi / max-step the fast terms alias on one axis.
    w_fast = w_ket + w_bra
    m_bulk = quad.m_weights > 1e-16 * quad.m_weights.max()
    q_bulk = quad.q_weights > 1e-16 * quad.q_weights.max()
    sub = w_fast[np.ix_(m_bulk, q_bulk)]
    steps = [np.abs(np.diff(sub, axis=0)).max() if sub.shape[0] > 1 else 0.0,
             np.abs(np.diff(sub, axis=1)).max() if sub.shape[1] > 1 else 0.0]
    max_step = max(steps)
    t_fast_ok = math.pi / max_step if max_step > 0.0 else math.inf
    return w2d, s_ket, s_bra, v_frac, w_ket, w_bra, w_diff, t_fast_ok


_NODE_BLOCK = 2048       # nodes per phase table: a table stays at a few MB
_SPACING_ULPS = 4.0      # rounding a generated grid time may carry off its line


def _uniform_runs(times: np.ndarray) -> list[tuple[int, int, float]]:
    """Split `times` into maximal runs of equally spaced values.

    Returns (start, stop, step) per run.  A time joins the run while it
    lies within a few ulps of the run's line times[start] + k*step, the
    rounding a generated grid carries; a lone time is a run of length 1.
    """
    runs = []
    start = 0
    while start < times.size:
        rest = times[start:]
        step = float(rest[1] - rest[0]) if rest.size > 1 else 0.0
        line = rest[0] + step * np.arange(rest.size)
        tol = _SPACING_ULPS * np.finfo(float).eps * np.maximum(np.abs(rest), np.abs(line))
        off = np.flatnonzero(np.abs(rest - line) > tol)
        stop = start + (int(off[0]) if off.size else rest.size)
        runs.append((start, stop, step))
        start = stop
    return runs


def _phase_sums(
    times: np.ndarray,
    omega: np.ndarray,
    vers_amp: np.ndarray,
    sin_amp: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Node sums of vers_amp*(1 - cos(omega*t)) and sin_amp*sin(omega*t).

    Each uniform run is a (J x K) array of times T_j + tau_k (module
    docstring); the [cos, sin](omega*T_j) table times the amplitude-
    weighted table at tau_k is one real GEMM per node block, the real
    and imaginary parts of e^{i omega T_j} e^{i omega tau_k}.  The
    versine form makes t = 0 exact: every term vanishes there.
    """
    n_cols = 1 if sin_amp is None else 2
    vers_out = np.empty(times.size)
    sin_out = None if sin_amp is None else np.empty(times.size)
    for start, stop, step in _uniform_runs(times):
        n = stop - start
        k_len = math.isqrt(n - 1) + 1
        anchors = times[start:stop:k_len]
        taus = step * np.arange(k_len)
        acc = np.zeros((anchors.size, n_cols * k_len))
        vers_anchor = np.zeros(anchors.size)
        for lo in range(0, omega.size, _NODE_BLOCK):
            w = omega[lo : lo + _NODE_BLOCK]
            nb = w.size
            left = np.empty((anchors.size, 2 * nb))
            phase = np.multiply.outer(anchors, w)
            np.cos(phase, out=left[:, :nb])
            np.sin(phase, out=left[:, nb:])
            phase = np.multiply.outer(w, taus)
            cos_k, sin_k = np.cos(phase), np.sin(phase)
            right = np.empty((2 * nb, n_cols * k_len))
            a = vers_amp[lo : lo + _NODE_BLOCK, None]
            # 1 - cos(T + tau) = (1 - cos T) + cos T (1 - cos tau) + sin T sin tau
            np.multiply(a, 1.0 - cos_k, out=right[:nb, :k_len])
            np.multiply(a, sin_k, out=right[nb:, :k_len])
            if sin_amp is not None:
                # sin(T + tau) = cos T sin tau + sin T cos tau
                b = sin_amp[lo : lo + _NODE_BLOCK, None]
                np.multiply(b, sin_k, out=right[:nb, k_len:])
                np.multiply(b, cos_k, out=right[nb:, k_len:])
            acc += left @ right
            vers_anchor += (1.0 - left[:, :nb]) @ a[:, 0]
        acc[:, :k_len] += vers_anchor[:, None]
        vers_out[start:stop] = acc[:, :k_len].ravel()[:n]
        if sin_out is not None:
            sin_out[start:stop] = acc[:, k_len:].ravel()[:n]
    return vers_out, sin_out


def compute_channel(
    dot: DotParameters,
    times: np.ndarray,
    quad: BathQuadrature | None = None,
) -> ChannelTrajectory:
    """Bath-averaged channel {p(t), c(t)} on the given time grid.

    p(t) = E[f_prob] over ket-side blocks; c(t) = E[a_amp * conj(d_amp)]
    with the bra-side block at polarization m-1 in the same multiplet.
    Expanding the products leaves three real-amplitude frequency families
    per node: p from 2*w_ket, c from the slow difference w_ket - w_bra and
    from the fast sum w_ket + w_bra.  Past the fast-term cutoff only the
    difference family remains and p is its long-time mean.  Each family is
    a phase sum evaluated by `_phase_sums` (factored tables and GEMMs on
    the uniform runs of the grid, over fixed node blocks).  Summation
    order over nodes is fixed, so results are independent of the worker
    count; only the BLAS thread count can move the last bits (<1e-15).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0.0):
        raise ValidityWindowError("times must be nonnegative")
    t_max = float(times.max()) if times.size else 0.0
    if quad is None:
        quad = build_quadrature(dot, t_max)
    elif t_max > quad.t_max_ns * (1.0 + 1e-12):
        raise QuadratureResolutionError(
            f"quadrature built for t_max={quad.t_max_ns:g} ns, requested {t_max:g} ns"
        )

    w2d, s_ket, s_bra, v_frac, w_ket, w_bra, w_diff, t_fast_ok = _node_tables(dot, quad)
    cutoff = 0.8 * t_fast_ok
    needs_slow = times.size and t_max > cutoff
    if needs_slow and cutoff < 5.0 * dot.dephasing_time_ns:
        raise QuadratureResolutionError(
            f"fast-term window {cutoff:.1f} ns does not cover the interference decay "
            f"(~5 dephasing times = {5.0 * dot.dephasing_time_ns:.1f} ns); raise the node counts"
        )
    # a*conj(d') expanded: both amplitudes carry the same dropped mean phase
    ss = s_ket * s_bra
    diff_re = (w2d * 0.5 * (1.0 - ss)).ravel()
    diff_im = (w2d * 0.5 * (s_bra - s_ket)).ravel()
    sum_re = (w2d * 0.5 * (1.0 + ss)).ravel()
    sum_im = (w2d * -0.5 * (s_ket + s_bra)).ravel()
    p_amp = (w2d * 0.5 * v_frac).ravel()

    p_out = np.empty(times.size)
    c_out = np.empty(times.size, dtype=complex)
    fast = times <= cutoff
    slow = ~fast

    if fast.any():
        t = times[fast]
        p_out[fast] = _phase_sums(t, 2.0 * w_ket.ravel(), p_amp)[0]
        vers, sin = _phase_sums(
            t,
            np.concatenate([w_diff.ravel(), (w_ket + w_bra).ravel()]),
            np.concatenate([diff_re, sum_re]),
            np.concatenate([diff_im, sum_im]),
        )
        # the two real amplitudes of a node add up to its weight: c(0) = sum(w)
        c_out[fast] = (np.sum(w2d) - vers) + 1j * sin
    if slow.any():
        vers, sin = _phase_sums(times[slow], w_diff.ravel(), diff_re, diff_im)
        p_out[slow] = np.sum(p_amp)
        c_out[slow] = (np.sum(diff_re) - vers) + 1j * sin

    if times.size and times[0] == 0.0 and (abs(p_out[0]) > 1e-12 or abs(c_out[0] - 1.0) > 1e-12):
        raise QuadratureResolutionError(
            f"channel must start at (p, c) = (0, 1); got ({p_out[0]}, {c_out[0]})"
        )
    traj = ChannelTrajectory(
        times=times,
        p=p_out,
        c=c_out,
        dot=dot,
        m_count=quad.m_nodes.size,
        q_count=quad.q_nodes.size,
        fast_term_cutoff_ns=cutoff,
    )
    verify_channel_cp(traj).require(CP_MARGIN_HARD, 1e-12, QuadratureResolutionError)
    return traj
