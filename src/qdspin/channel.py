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

Node counts: the Gauss sums converge spectrally on these smooth
integrands, so the count is set by resolution, not by accuracy.  The
quadrature resolves the phase of the e^{+-i(w+w')t} interference terms
only up to a Nyquist window set by the largest frequency step between
adjacent nodes on either grid axis; the fast-term cutoff is 0.8x that
window.  The node rule of `build_quadrature` takes 32 x 32 nodes
wherever their cutoff reaches t_max (about 29 ns at defaults: every
20 ns grid), where they agree with 514 x 128 to 1.7e-14 up to 1 T
(1.6e-13 at 5 T).  Longer grids take 257 x 64 nodes, or more m nodes
where the e^{-i alpha m t / hbar} phase needs them (294 at 2000 ns,
1759 at 12 000 ns).  There the interference terms, which decay on the
dephasing scale, are dropped past the cutoff, leaving the slow
difference terms whose phase is exactly resolved at every time.  Near-frozen low-frequency blocks keep part of
the interference alive, so at low field the handoff leaves a step: on
the default 12 000 ns model (1759 x 64 nodes, cutoff 73.09 ns) p jumps
across the cutoff by 1.76e-4 at 0 mT and 1.18e-4 at 3 mT, and by less
than 1e-18 at 1 T (cutoff 290 ns).  Converging that long-time level is
open item 2 of ROADMAP.md.

Light nodes: most Gauss-Hermite x Gauss-Laguerre nodes of a long grid sit
in tails that weigh nothing in double precision.  The lightest nodes,
taken while their weights sum to at most NEGLIGIBLE_WEIGHT = 1e-20, are
left out of the phase-sum families (the node counts and the fast-term
cutoff keep the full grid).  Every amplitude of a node is bounded by
its weight, so this moves p by at most the dropped mass and c by at
most 3x it.  The families keep 590 of 32 x 32 nodes on the 20 ns
grid, 2844 of 294 x 64 at 2000 ns and 7007 of 1759 x 64 at 12 000 ns.

Sharing: a model (`BathQuadrature`) is computed once and read by every
channel and kink-refinement round on it, so its arrays are read-only.
The raw scipy Gauss rules depend only on their kind and order, and
`_gauss_rule` keeps the last GAUSS_RULE_MEMO_SIZE of them for the
process; the normalisation and the node checks of `_bath_nodes` run on
every model.  Whole channels are kept one level up, by
`magnetometry.channel_for_field`, keyed on the dot, grid and node counts.

One flat node list: the kept nodes (m, Q, weight) go in raveled order to
`_families`, which any node set can feed.  tests/test_finite_bath.py feeds
it the exact finite-N sum over the total bath spin j (spins 1/2; Melikidze,
Dobrovitski, De Raedt, Katsnelson & Harmon, PRB 70, 014435 (2004)).  Before
the cutoff the model's gap to it falls as 1/N (at 0 mT sup|dp| is 4.6e-5 at
N = 4000 and 1.0e-5 at 16 000); past it p stays ~2e-4 off at 0 mT, the
long-time level of ROADMAP item 2.

Evaluation: expanding the amplitude products leaves, per node, three
frequency families with real amplitudes (p from 2w_ket, c from the slow
w_ket - w_bra and the fast w_ket + w_bra), so each channel component is
a non-uniform Fourier sum over the nodes (type 3 in Greengard & Lee,
SIAM Rev. 46, 2004).  The time grid splits into maximal uniform runs
(the dense prefix and the coarse tail of `build_time_grid`).  On a run
from t0, t = T_j + tau_k with T_j = t0 + j*K*step, tau_k = k*step and
K ~ sqrt(run length), so e^{i w t} factors into a (J x nodes) table at
T_j and amplitude-weighted (K x nodes) tables at tau_k: a family costs
one GEMM of the tables instead of 4*nodes*times trig calls.  The tables
are complex and built by angle doubling (`_phase_table`): row 0 is
e^{i w t0} (times the amplitude), each new block of rows is the filled
block times a multiplier, and squaring the multiplier gives the next
block's, so a node costs three complex exponentials per run and no other
trig.  Row j is a product of at most log2(j) + 1 multipliers, the one
for 2^k rows carrying 2^k times the rounding of e^{i w step}, so the row
is off by about j ulps beyond the eps*|w t| that rounding w*t costs any
evaluation.  j stays below 78 on the 12 000 ns grid (its slow run
holds 5964 times), and against the direct four-trig sum at
25 times of that grid, every run's first and last included, p is within
3e-16 and c within 3.7e-14 at 1 T (3e-16 at 0 T).  A run's own times
lie within a few ulps of its line (`_uniform_runs`).  Nodes are taken
in fixed-size blocks, accumulated in node order, which keeps every
table at a few MB on the longest grids and the summation order fixed.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import write_csv
from .constants import HBAR_UEV_NS, DotParameters, InvalidParameterError, QdspinError, ValidityWindowError

DEGENERATE_BLOCK_E2 = 1e-30      # ueV^2; below this a block acts as identity
CP_MARGIN_TOL = 1e-9             # how far |c| may exceed 1 - p in a computed or applied channel
P_RANGE_TOL = 1e-15              # round-off allowed on p outside [0, 1]
VALIDITY_GRACE = 1.05            # hbar*N/A is an estimate; allow 5% on top
FAST_NODES = 32                  # per axis, where their fast-term window covers t_max
MIN_M_NODES = 257                # otherwise, with the phase term for n_m
MIN_Q_NODES = 64
NEGLIGIBLE_WEIGHT = 1e-20         # the lightest nodes summing to at most this leave the phase sums
MAX_QUADRATURE_NODES = 1_000_000  # n_m x n_q; ~0.2 KB of peak memory each, the 12 000 ns rule takes 112 576
_MIN_BATH_NUCLEI = 100           # Gaussian bath statistics need a large bath
GAUSS_RULE_MEMO_SIZE = 16        # raw Gauss rules a process keeps, per (kind, order); 28 KB for 1759 nodes


class QuadratureResolutionError(QdspinError, ArithmeticError):
    """The bath quadrature cannot resolve the requested evolution."""


@dataclass(frozen=True, eq=False)
class BathQuadrature:
    """Channel model of one dot: its three phase-sum families over a flat node list.

    node_counts is the (n_m, n_q) Gauss-Hermite x Gauss-Laguerre grid the
    model was built on; the families hold the kept nodes of that grid only,
    those left after the lightest ones summing to at most NEGLIGIBLE_WEIGHT
    (module docstring), in raveled (m, q) order: p has frequencies p_freq
    (2 w_ket) and versine amplitudes p_amp; c has frequencies c_freq
    ([w_diff | w_ket + w_bra]) with versine and sine amplitudes c_vers and
    c_sin, whose first half is the slow family kept alone past
    fast_term_cutoff_ns.  Every node's two c amplitudes sum to its weight,
    and c(0) is 1 exactly.
    """

    dot: DotParameters
    node_counts: tuple[int, int]
    t_max_ns: float
    p_freq: np.ndarray
    p_amp: np.ndarray
    c_freq: np.ndarray
    c_vers: np.ndarray
    c_sin: np.ndarray
    fast_term_cutoff_ns: float

    def __post_init__(self) -> None:
        # every channel computed on the model, and every g_on call, reads these: they are never written
        for a in (self.p_freq, self.p_amp, self.c_freq, self.c_vers, self.c_sin):
            a.setflags(write=False)


@functools.lru_cache(maxsize=GAUSS_RULE_MEMO_SIZE)
def _gauss_rule(kind: str, order: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy's raw (nodes, weights) Gauss rule of `kind` ("hermite" or "laguerre") and `order`.

    The rule depends on nothing else, so a process computes each once; the
    arrays are shared and read-only.
    """
    from scipy.special import roots_hermite, roots_laguerre  # on first use: `import qdspin` stays scipy-free

    if kind == "hermite":
        rule = roots_hermite(order)      # weight e^{-x^2}
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as NaN weights, refused by the caller
            rule = roots_laguerre(order)  # weight e^{-y}
    for a in rule:
        a.setflags(write=False)
    return rule


def _bath_nodes(dot: DotParameters, n_m: int, n_q: int) -> tuple:
    """Normalised Gauss-Hermite polarization nodes m and Gauss-Laguerre
    transverse-invariant nodes Q, as ((m, weights), (Q, weights)).

    The raw rules come from `_gauss_rule`; the normalisation and the checks
    run on every call.
    """
    def normalised(name: str, w: np.ndarray) -> np.ndarray:
        w = w / w.sum()
        if not abs(float(w.sum()) - 1.0) <= 1e-9:  # NaN weights (too many nodes for scipy) fail too
            raise QuadratureResolutionError(f"{name} of {w.size} nodes must sum to 1, got {float(w.sum())!r}")
        return w

    sigma = dot.sigma_m
    x, wx = _gauss_rule("hermite", n_m)   # m = sqrt(2) sigma x
    m_weights = normalised("m_weights", wx)
    y, wy = _gauss_rule("laguerre", n_q)  # Q = 2 sigma^2 y
    q_weights = normalised("q_weights", wy)
    # the largest node's product in Python floats, where an overflow is a quiet inf
    if not math.isfinite(2.0 * sigma * sigma * float(y.max())):
        raise InvalidParameterError(
            f"n_nuclei={dot.n_nuclei:g} and i_nuclear={dot.i_nuclear:g} give a bath variance N*I(I+1)/3 = "
            f"{sigma * sigma:.3g} whose largest of {n_q} Laguerre nodes 2*sigma^2*y overflows"
        )
    q_nodes = 2.0 * sigma * sigma * y
    if np.any(q_nodes <= 0.0):
        raise QuadratureResolutionError("all q_nodes must be positive")
    return (math.sqrt(2.0) * sigma * x, m_weights), (q_nodes, q_weights)


def _blocks(dot: DotParameters, m: np.ndarray, q: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """(delta, v2, e2) of the ket block at polarization m and of the bra block
    at m - 1: half-splitting, squared flip coupling and squared energy."""
    alpha = dot.alpha
    omega_z = dot.zeeman_energy
    delta_ket = 0.5 * (-omega_z + alpha * (m + 0.5))
    delta_bra = 0.5 * (-omega_z + alpha * (m - 0.5))
    # both blocks share the multiplet: j(j+1) - m(m+1) = Q -+ m in terms of
    # the transverse invariant Q, so their frequencies degenerate at B = 0
    v2_ket = np.clip(0.25 * alpha * alpha * (q - m), 0.0, None)
    v2_bra = np.clip(0.25 * alpha * alpha * (q + m), 0.0, None)
    return ((delta_ket, v2_ket, delta_ket * delta_ket + v2_ket),
            (delta_bra, v2_bra, delta_bra * delta_bra + v2_bra))


def _fast_term_cutoff(dot: DotParameters, m_nodes: np.ndarray, m_weights: np.ndarray,
                      q_nodes: np.ndarray, q_weights: np.ndarray) -> float:
    """0.8x the Nyquist window of the interference phase (w_ket + w_bra) * t
    on the full node grid: beyond pi / max-step the fast terms alias on one axis."""
    m_bulk = m_weights > 1e-16 * m_weights.max()
    q_bulk = q_weights > 1e-16 * q_weights.max()
    (_, _, e2_ket), (_, _, e2_bra) = _blocks(dot, m_nodes[m_bulk, None], q_nodes[None, q_bulk])
    sub = np.sqrt(e2_ket) / HBAR_UEV_NS + np.sqrt(e2_bra) / HBAR_UEV_NS
    steps = [np.abs(np.diff(sub, axis=0)).max() if sub.shape[0] > 1 else 0.0,
             np.abs(np.diff(sub, axis=1)).max() if sub.shape[1] > 1 else 0.0]
    max_step = max(steps)
    return 0.8 * (math.pi / max_step if max_step > 0.0 else math.inf)


def _families(dot: DotParameters, m: np.ndarray, q: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """The phase-sum families (p_freq, p_amp, c_freq, c_vers, c_sin) of the flat
    node list (polarization m, transverse invariant q, weight w), in its order."""
    (delta_ket, v2, e2_ket), (delta_bra, _, e2_bra) = _blocks(dot, m, q)
    e_ket = np.sqrt(e2_ket)
    e_bra = np.sqrt(e2_bra)

    live_ket = e2_ket >= DEGENERATE_BLOCK_E2
    live_bra = e2_bra >= DEGENERATE_BLOCK_E2
    s_ket = np.where(live_ket, delta_ket / np.where(live_ket, e_ket, 1.0), 0.0)
    s_bra = np.where(live_bra, delta_bra / np.where(live_bra, e_bra, 1.0), 0.0)
    v_frac = np.where(live_ket, v2 / np.where(live_ket, e2_ket, 1.0), 0.0)

    w_ket = e_ket / HBAR_UEV_NS
    w_bra = e_bra / HBAR_UEV_NS
    # e_ket^2 - e_bra^2 = -Omega*alpha/2 exactly (same-multiplet sharing),
    # so the slow frequency difference is computed without cancellation
    esum = e_ket + e_bra
    w_diff = np.where(esum > 0.0, (-dot.zeeman_energy * dot.alpha / 2.0) / (HBAR_UEV_NS * esum), 0.0)

    # a*conj(d') expanded: both amplitudes carry the same dropped mean phase
    half = 0.5 * w
    ss = s_ket * s_bra
    return (2.0 * w_ket, half * v_frac, np.concatenate([w_diff, w_ket + w_bra]),
            np.concatenate([half * (1.0 - ss), half * (1.0 + ss)]),
            np.concatenate([half * (s_bra - s_ket), -half * (s_ket + s_bra)]))


def build_quadrature(
    dot: DotParameters,
    t_max_ns: float,
    m_count: int | None = None,
    q_count: int | None = None,
) -> BathQuadrature:
    """Channel model of `dot`: Gauss-Hermite x Gauss-Laguerre nodes sized for t_max
    and their frequency families, computed once for every channel call on the model.

    A count not given comes from the node rule.  n_m must at least resolve
    the e^{-i alpha m t / hbar} phase at t_max (8 nodes per 2 pi of the
    Gauss-Hermite phase range).  The rule's candidate is FAST_NODES x
    FAST_NODES (n_m raised to that phase term if larger), taken if its own
    fast-term cutoff reaches t_max, so the slow branch never runs; otherwise
    the rule takes MIN_M_NODES x MIN_Q_NODES (n_m raised to the phase term),
    whose window covers the interference decay.  A model whose counts are
    both the candidate's takes the candidate's nodes and cutoff whole;
    any other builds its nodes with `_bath_nodes`, whose raw Gauss rules
    are computed once per process (`_gauss_rule`), the candidate's
    included.  A grid of more than MAX_QUADRATURE_NODES nodes, the
    candidate too, is refused before its nodes are computed.
    """
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
    nodes = None                  # the rule's candidate as ((m, weights), (Q, weights)), once built
    n_m, n_q = m_count, q_count
    if n_m is None or n_q is None:
        n_phase = math.ceil(8.0 * dot.sigma_m * dot.alpha * t_max_ns / (2.0 * math.pi * HBAR_UEV_NS))
        rule = max(FAST_NODES, n_phase), FAST_NODES
        if rule[0] * rule[1] <= MAX_QUADRATURE_NODES:  # past the cap either way: no candidate is built
            nodes = _bath_nodes(dot, *rule)
            cutoff = _fast_term_cutoff(dot, *nodes[0], *nodes[1])
        if nodes is None or not cutoff >= t_max_ns:
            rule = max(MIN_M_NODES, n_phase), MIN_Q_NODES
        n_m = rule[0] if n_m is None else n_m
        n_q = rule[1] if n_q is None else n_q
    if n_m * n_q > MAX_QUADRATURE_NODES:
        def count(n: int) -> str:
            return f"{n:.3g}" if n > MAX_QUADRATURE_NODES else str(n)
        raise InvalidParameterError(
            f"a quadrature of {count(n_m)} x {count(n_q)} nodes holds more than "
            f"MAX_QUADRATURE_NODES = {MAX_QUADRATURE_NODES} nodes"
        )
    if n_m < 3 or n_q < 3:
        raise QuadratureResolutionError(f"node counts too small: m={n_m}, q={n_q}")
    n_m, n_q = int(n_m), int(n_q)
    # the candidate is taken whole where the model keeps both its counts, and both axes are new where not
    if nodes is None or (nodes[0][0].size, nodes[1][0].size) != (n_m, n_q):
        nodes = _bath_nodes(dot, n_m, n_q)
        cutoff = _fast_term_cutoff(dot, *nodes[0], *nodes[1])
    (m_nodes, m_weights), (q_nodes, q_weights) = nodes

    # the lightest nodes, while their weights sum to at most NEGLIGIBLE_WEIGHT,
    # leave the families (every amplitude is bounded by its weight); the rest
    # stay in raveled (m, q) order, so the summation order stays fixed
    w2d = (m_weights[:, None] * q_weights[None, :]).ravel()
    light = np.argsort(w2d, kind="stable")
    n_light = int(np.count_nonzero(np.cumsum(w2d[light]) <= NEGLIGIBLE_WEIGHT))
    keep = np.sort(light[n_light:])
    i_m, i_q = np.divmod(keep, n_q)
    return BathQuadrature(dot, (n_m, n_q), float(t_max_ns),
                          *_families(dot, m_nodes[i_m], q_nodes[i_q], w2d[keep]), cutoff)


@dataclass(frozen=True, eq=False)
class ChannelTrajectory:
    """Time series of the single-dot channel pair {p(t), c(t)}, with the model it was computed on.

    Frozen: a channel from `magnetometry.channel_for_field` is shared
    within the process, and its arrays are read-only too.
    """

    times: np.ndarray
    p: np.ndarray
    c: np.ndarray
    dot: DotParameters
    m_count: int = 0
    q_count: int = 0
    fast_term_cutoff_ns: float = math.inf
    model: BathQuadrature | None = field(default=None, repr=False)

    def to_csv(self, path: str | Path, header_lines: list[str] | None = None) -> None:
        write_csv(path, header_lines,
                  {"t_ns": self.times, "p": self.p, "c_re": self.c.real, "c_im": self.c.imag})


@dataclass(frozen=True)
class CpReport:
    """Physicality audit of a channel trajectory: 0 <= p <= 1 and |c| <= 1 - p, to one bound wherever
    it is applied (`compute_channel`, and `evolve` on the co-rotated c, whose |c| moves by 1 ulp at most)."""

    worst_margin: float
    worst_time_ns: float
    p_min: float
    p_max: float
    worst_index: int = 0

    def require(self, error: type[Exception]) -> None:
        """Raise `error` if p leaves [0, 1] by more than P_RANGE_TOL or the margin drops below -CP_MARGIN_TOL."""
        if not (self.p_min >= -P_RANGE_TOL and self.p_max <= 1.0 + P_RANGE_TOL):
            raise error(f"flip probability left [0, 1]: min {self.p_min!r}, max {self.p_max!r}")
        if not self.worst_margin >= -CP_MARGIN_TOL:
            raise error(
                f"complete positivity |c| <= 1-p violated by {-self.worst_margin:.3e} "
                f"at time index {self.worst_index} (t={self.worst_time_ns:g} ns)"
            )


def verify_channel_cp(traj: ChannelTrajectory) -> CpReport:
    """Per-time check 0 <= p <= 1 and |c| <= 1 - p; returns the worst margin.

    Callers apply the bound with `CpReport.require`.
    """
    margin = 1.0 - traj.p - np.abs(traj.c)
    idx = int(np.argmin(margin)) if margin.size else 0
    worst = float(margin[idx]) if margin.size else 1.0
    p_min = float(traj.p.min()) if traj.p.size else 0.0
    p_max = float(traj.p.max()) if traj.p.size else 0.0
    return CpReport(
        worst_margin=worst,
        worst_time_ns=float(traj.times[idx]) if margin.size else 0.0,
        p_min=p_min,
        p_max=p_max,
        worst_index=idx,
    )


_NODE_BLOCK = 2048       # nodes per phase table: 32 KB a complex row, 5 MB for c's 156 rows at 12 000 ns
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


def _phase_table(table: np.ndarray, first: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Fill the complex (count, nodes) `table` with first * factor**j, j < count.

    With first = A e^{i omega t0} and factor = e^{i omega step}, row j is
    A e^{i omega (t0 + j*step)}.  Each new block of rows is the filled
    block times factor**filled, a multiplier that squares between blocks
    (module docstring), so the table costs one complex product per entry
    and no trig.
    """
    count = table.shape[0]
    table[0] = first
    filled = 1
    while filled < count:
        rows = min(filled, count - filled)
        np.multiply(table[:rows], factor, out=table[filled : filled + rows])
        filled += rows
        if filled < count:
            factor = factor * factor
    return table


def _phase_sums(
    times: np.ndarray,
    omega: np.ndarray,
    vers_amp: np.ndarray,
    sin_amp: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Node sums of vers_amp*(1 - cos(omega*t)) and sin_amp*sin(omega*t).

    Each uniform run is a (J x K) array of times T_j + tau_k (module
    docstring).  Per node block, `_phase_table` doubles out the left table
    of e^{i omega T_j} (J rows) and the right tables of a e^{i omega tau_k}
    and i b e^{-i omega tau_k} (K rows each, a and b the two amplitudes),
    whose real parts then become a - a cos(omega tau_k) and b sin(omega
    tau_k).  Viewed as real [re, im] pairs per node, right @ left.T is one
    real GEMM summing Re(right * conj(left)) over the nodes; each table
    row j is good to about j ulps (module docstring).  The versine form
    makes t = 0 exact: there e^{i omega T_0} and e^{i omega tau_0} are
    e^0 = 1 exactly, so every term vanishes.
    """
    n_cols = 1 if sin_amp is None else 2
    vers_out = np.empty(times.size)
    sin_out = None if sin_amp is None else np.empty(times.size)
    for start, stop, step in _uniform_runs(times):
        n = stop - start
        k_len = math.isqrt(n - 1) + 1
        j_len = -(-n // k_len)
        t0 = float(times[start])
        acc = np.zeros((n_cols * k_len, j_len))
        vers_anchor = np.zeros(j_len)
        for lo in range(0, omega.size, _NODE_BLOCK):
            w = omega[lo : lo + _NODE_BLOCK]
            a = vers_amp[lo : lo + _NODE_BLOCK]
            left = _phase_table(np.empty((j_len, w.size), dtype=complex),
                                np.exp(1j * (w * t0)), np.exp(1j * (w * (k_len * step))))
            tau_step = np.exp(1j * (w * step))
            right = np.empty((n_cols * k_len, w.size), dtype=complex)
            # 1 - cos(T + tau) = (1 - cos T) + cos T (1 - cos tau) + sin T sin tau:
            # rows [a (1 - cos tau), a sin tau]
            vers = _phase_table(right[:k_len], a, tau_step)
            np.subtract(a, vers.real, out=vers.real)
            if sin_amp is not None:
                # sin(T + tau) = cos T sin tau + sin T cos tau: rows [b sin tau, b cos tau]
                _phase_table(right[k_len:], 1j * sin_amp[lo : lo + _NODE_BLOCK], tau_step.conj())
            acc += right.view(float) @ left.view(float).T
            vers_anchor += (1.0 - left.real) @ a
        acc[:k_len] += vers_anchor
        vers_out[start:stop] = acc[:k_len].T.ravel()[:n]
        if sin_out is not None:
            sin_out[start:stop] = acc[k_len:].T.ravel()[:n]
    return vers_out, sin_out


def compute_channel(quad: BathQuadrature, times: np.ndarray) -> ChannelTrajectory:
    """Bath-averaged channel {p(t), c(t)} of the model's dot on the given time grid.

    p(t) = E[f_prob] over ket-side blocks; c(t) = E[a_amp * conj(d_amp)]
    with the bra-side block at polarization m-1 in the same multiplet.
    Expanding the products leaves three real-amplitude frequency families
    per node: p from 2*w_ket, c from the slow difference w_ket - w_bra and
    from the fast sum w_ket + w_bra, all stored on the model `quad`.  Past
    the fast-term cutoff only the difference family remains and p is its
    long-time mean.  Each family is a phase sum evaluated by `_phase_sums`
    (factored tables and GEMMs on the uniform runs of the grid, over fixed
    node blocks).  Summation order over nodes is fixed, so results are
    independent of the worker count; only the BLAS thread count can move
    the last bits (<1e-15).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0.0):
        raise ValidityWindowError("times must be nonnegative")
    t_max = float(times.max()) if times.size else 0.0
    if t_max > quad.t_max_ns * (1.0 + 1e-12):
        raise QuadratureResolutionError(
            f"channel model sized for t_max={quad.t_max_ns:g} ns, requested {t_max:g} ns"
        )

    dot = quad.dot
    cutoff = quad.fast_term_cutoff_ns
    needs_slow = times.size and t_max > cutoff
    if needs_slow and cutoff < 5.0 * dot.dephasing_time_ns:
        raise QuadratureResolutionError(
            f"fast-term window {cutoff:.1f} ns does not cover the interference decay "
            f"(~5 dephasing times = {5.0 * dot.dephasing_time_ns:.1f} ns); raise the node counts"
        )

    p_out = np.empty(times.size)
    c_out = np.empty(times.size, dtype=complex)
    fast = times <= cutoff
    slow = ~fast

    if fast.any():
        t = times[fast]
        p_out[fast] = _phase_sums(t, quad.p_freq, quad.p_amp)[0]
        vers, sin = _phase_sums(t, quad.c_freq, quad.c_vers, quad.c_sin)
        # the two real amplitudes of a node add up to its weight, and the
        # kept weights to 1 within NEGLIGIBLE_WEIGHT: the exact bath average,
        # not their rounded sum
        c_out[fast] = (1.0 - vers) + 1j * sin
    if slow.any():
        n = quad.p_amp.size       # the slow family is the first half of c's
        vers, sin = _phase_sums(times[slow], quad.c_freq[:n], quad.c_vers[:n], quad.c_sin[:n])
        p_out[slow] = np.sum(quad.p_amp)
        c_out[slow] = (np.sum(quad.c_vers[:n]) - vers) + 1j * sin
    if dot.zeeman_energy == 0.0:  # m -> -m pairs nodes whose sine terms cancel, and w_diff is 0: c is real
        c_out.imag = 0.0

    if times.size and times[0] == 0.0 and (abs(p_out[0]) > 1e-12 or abs(c_out[0] - 1.0) > 1e-12):
        raise QuadratureResolutionError(
            f"channel must start at (p, c) = (0, 1); got ({p_out[0]}, {c_out[0]})"
        )
    traj = ChannelTrajectory(times, p_out, c_out, dot, *quad.node_counts, fast_term_cutoff_ns=cutoff, model=quad)
    verify_channel_cp(traj).require(QuadratureResolutionError)
    return traj
