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

Gauss rules, from numpy alone: both share one pass of the orthonormal
three-term recurrence (`_recurrence`), which gives p_{n-1} and p_n, so
the root-finding step, and the Christoffel weight 1 / sum_{j<n} p_j^2
under a per-node log scale, so no weight overflows (numpy's `hermgauss`
and `laggauss` give NaN weights past a few hundred nodes).  The
Gauss-Laguerre nodes start from the eigenvalues of the Jacobi matrix
(Golub & Welsch, Math. Comp. 23, 221 (1969)) and take Newton steps; the
Gauss-Hermite nodes start from closed forms (Townsend, Trogdon & Olver,
IMA J. Numer. Anal. 36, 337 (2016)) and take Halley steps, so that axis
needs O(n) memory and no eigensolver.  The steps run until the largest
is at most 4 ulps of the largest node, and the weights come from that
pass, where the nodes are a round-off step from the roots and the
Christoffel function varies slowly: three passes on the Hermite axis
(1759 nodes in ~30 ms), one or two on the Laguerre axis.  Against
scipy's `roots_hermite` and `roots_laguerre` the nodes agree within
4.7e-14 (Hermite, up to 1831 nodes) and 1.2e-13 (Laguerre, up to 363),
and the normalised weights within 1.6e-12 relative.  An axis past its
limit is refused before any node work: MAX_HERMITE_NODES = 15 625 m
nodes, the most the node rule picks, and MAX_LAGUERRE_NODES = 363 q
nodes, the most scipy's rule computes and so the most the oracle checks.

Sharing: a model (`BathQuadrature`) is computed once and read by every
channel and kink-refinement round on it, so its arrays are read-only.
A node grid's unit nodes, normalised weights and kept nodes carry no dot
parameter, so each Gauss rule is computed once per count
(`_hermite_rule`, `_laguerre_rule`) and `_node_grid(n_m, n_q)` selects
the kept nodes once per count pair; each of the three memos keeps its
last GAUSS_RULE_MEMO_SIZE entries for the process.  The node rule's
candidate reads only its two rules, so a long grid's model, whose
candidate shares its m count, computes its Gauss-Hermite rule once.
`build_quadrature` scales the nodes by the dot, and runs the node
overflow and positivity checks, on every model.  Whole channels are
kept one level up, by `magnetometry.channel_for_field`, keyed on the
dot and grid.

One flat node list: the kept nodes (m, Q, weight) go in raveled order to
`_families`, which any node set can feed.  tests/test_finite_bath.py feeds
it the exact finite-N sum over the total bath spin j (spins 1/2; Melikidze,
Dobrovitski, De Raedt, Katsnelson & Harmon, PRB 70, 014435 (2004)).  Before
the cutoff the model's gap to it falls as 1/N (at 0 mT sup|dp| is 4.6e-5 at
N = 4000 and 1.0e-5 at 16 000); past it p stays ~2e-4 off at 0 mT, the
long-time level of ROADMAP item 2.

Evaluation: expanding the amplitude products leaves, per node, three
frequency families with real amplitudes (`FrequencyFamily`: p from 2w_ket,
c from the slow w_diff = w_ket - w_bra and the fast w_ket + w_bra), so
each channel component is a non-uniform Fourier sum over the nodes
(type 3 in Greengard & Lee, SIAM Rev. 46, 2004).

The slow family's phases stay small: max|w_diff| t is 0.0012 rad on the
20 ns grid at 0.1 T, 0.4 rad at 2000 ns and 3 mT and 16 rad at 12 000 ns
and 20 mT (22 rad at 28 mT, the widest spread found), against 25-135 rad
for the fast families on those grids' fast sides.  So it is summed by
Taylor moments at every time, on both sides of the cutoff
(`_moment_sums`): anchors t_a lie 2*TAYLOR_RADIUS / max|w_diff| apart,
so |w_diff (t - t_a)| <= TAYLOR_RADIUS = 0.5 at each time's nearest one;
one product of an (anchors x nodes) phase table, doubled out over the
anchors as below, and a (nodes x 2N) amplitude-power matrix gives each
anchor's moments sum a w^n e^{i w t_a} / n!, and each time is a Horner
polynomial in t - t_a.  N is the
fewest terms whose dropped rest is at most TAYLOR_TAIL = 1e-17 at the
phase radius reached (6 on the 20 ns grid, 16 at most), so the family
costs nodes x anchors x terms, not nodes x times: one anchor covers every
grid up to 2000 ns at 3 mT or less, 17 the 12 000 ns grid at 20 mT and
23 at 28 mT.
Against a direct trig sum of the family these sums are within 4e-18 on
the 2000, 6000 and 12 000 ns grids.

The fast families, p and w_ket + w_bra, go through factored phase tables
(`_phase_sums`).  The time grid splits into maximal uniform runs
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
evaluation.  j stays below 51 on the 12 000 ns grid (its longest fast
run, the dense prefix, holds 2501 times), and against the direct
four-trig sum at 91 times of that grid, p is within 3e-16 and c within
4.7e-14 at 1 T (5.6e-16 at 0 T).  A run's own times
lie within a few ulps of its line (`_uniform_runs`).  Nodes are taken
in fixed-size blocks, accumulated in node order, which keeps every
table at a few MB on the longest grids and the summation order fixed.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

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
MAX_HERMITE_NODES = MAX_QUADRATURE_NODES // MIN_Q_NODES  # 15 625: the most m nodes the node rule can pick
MAX_LAGUERRE_NODES = 363         # the most q nodes scipy's Gauss-Laguerre rule, the tests' oracle, computes
_MIN_BATH_NUCLEI = 100           # Gaussian bath statistics need a large bath
RECURRENCE_BLOCK = 32            # steps between rescales: p grows by < 1e100 in 32 steps up to either axis's limit, so its square stays finite
GAUSS_RULE_MEMO_SIZE = 16        # rules per axis and node grids kept: a grid takes 15 KB at 32 x 32, 74 KB at 294 x 64, 0.2 MB at 1759 x 64
TAYLOR_RADIUS = 0.5              # |w_diff (t - t_a)| at most this about each anchor t_a of the slow family
TAYLOR_TAIL = 1e-17              # bound r^N / N! on the dropped Taylor terms at phase radius r (amplitudes sum <= 1)


class QuadratureResolutionError(QdspinError, ArithmeticError):
    """The bath quadrature cannot resolve the requested evolution."""


class FrequencyFamily(NamedTuple):
    """One phase-sum family, one entry per node: the channel reads the node
    sums of vers * (1 - cos(freq t)) and sin * sin(freq t)."""

    freq: np.ndarray
    vers: np.ndarray
    sin: np.ndarray | None = None   # p's family has no sine terms


@dataclass(frozen=True, eq=False)
class BathQuadrature:
    """Channel model of one dot: its three phase-sum families over a flat node list.

    node_counts is the (n_m, n_q) Gauss-Hermite x Gauss-Laguerre grid the
    model was built on; the families hold the kept nodes of that grid only,
    those left after the lightest ones summing to at most NEGLIGIBLE_WEIGHT
    (module docstring), in raveled (m, q) order.  p is the flip family at
    2 w_ket, versine amplitudes only; c is the sum of the slow family at
    w_diff = w_ket - w_bra, kept alone past fast_term_cutoff_ns, and the
    fast family at w_ket + w_bra.  A node's slow and fast versine
    amplitudes sum to its weight, and c(0) is 1 exactly.
    """

    dot: DotParameters
    node_counts: tuple[int, int]
    t_max_ns: float
    p: FrequencyFamily
    slow: FrequencyFamily
    fast: FrequencyFamily
    fast_term_cutoff_ns: float

    def __post_init__(self) -> None:
        # every channel computed on the model, and every g_on call, reads these: they are never written
        _read_only(*(a for family in (self.p, self.slow, self.fast) for a in family if a is not None))


class NodeGrid(NamedTuple):
    """The count-only parts of an n_m x n_q Gauss-Hermite x Gauss-Laguerre grid.

    x and y are the unit nodes (m = sqrt(2) sigma x, Q = 2 sigma^2 y), with
    their normalised weights; kept_m, kept_q and kept_weight are the
    (m index, q index, weight) of the nodes the families keep, in raveled
    (m, q) order.
    """

    x: np.ndarray
    m_weights: np.ndarray
    y: np.ndarray
    q_weights: np.ndarray
    kept_m: np.ndarray
    kept_q: np.ndarray
    kept_weight: np.ndarray


def _recurrence(x: np.ndarray, n: int, diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, ...]:
    """(p_{n-1}, p_n, log sum_{j<n} p_j^2) at the nodes x, for the orthonormal polynomials of
    off[k+1] p_{k+1} = (x - diag[k]) p_k - off[k] p_{k-1}, p_0 = 1.  The recurrence runs in
    blocks of RECURRENCE_BLOCK steps through one buffer, three calls a step; after each block
    its squares join the sum, and p_{k-1}, p_k and the sum are divided by a per-node scale, so
    that none of them overflows."""
    rows, slope = np.zeros((RECURRENCE_BLOCK + 2, x.size)), np.empty((RECURRENCE_BLOCK, x.size))
    rows[1] = 1.0
    row, tmp = list(rows), np.empty_like(x)
    total, log_scale = np.zeros_like(x), np.zeros_like(x)
    ratio = (off[:-1] / off[1:]).tolist()
    for k0 in range(0, n, RECURRENCE_BLOCK):
        m = min(RECURRENCE_BLOCK, n - k0)
        np.subtract(x, diag[k0:k0 + m, None], out=slope[:m])
        slope[:m] /= off[k0 + 1:k0 + m + 1, None]
        for j, (a, b) in enumerate(zip(slope[:m], ratio[k0:k0 + m]), 1):   # row[j + 1] = p_{k0+j}
            np.multiply(a, row[j], out=row[j + 1])
            np.multiply(row[j - 1], b, out=tmp)
            row[j + 1] -= tmp
        total += np.einsum("kn,kn->n", rows[1:m + 1], rows[1:m + 1])
        scale = np.hypot(row[m], row[m + 1])
        np.divide(row[m], scale, out=row[0])
        np.divide(row[m + 1], scale, out=row[1])
        total /= scale * scale
        log_scale += np.log(scale)
    return row[0], row[1], np.log(total) + 2.0 * log_scale


def _gauss_rule(x: np.ndarray, n: int, diag: np.ndarray, off: np.ndarray,
                step) -> tuple[np.ndarray, np.ndarray]:
    """The roots of p_n from the nodes x by the root-finding `step(x, p_{n-1}, p_n)`, and their
    Christoffel weights 1 / sum_{j<n} p_j^2 normalised to sum 1, taken on the pass whose largest
    step is at most 4 ulps of the largest node: the Christoffel function varies slowly, so nodes
    a round-off step from the roots give the weights to round-off."""
    for _ in range(8):
        prev, cur, log_sum = _recurrence(x, n, diag, off)
        dx = step(x, prev, cur)
        x = x - dx
        if np.abs(dx).max() <= 4.0 * np.finfo(float).eps * np.abs(x).max():
            w = np.exp(log_sum.min() - log_sum)
            return x, w / w.sum()
    raise QuadratureResolutionError(f"the Gauss rule of {n} nodes did not converge")


def _hermite_start(n: int) -> np.ndarray:
    """Starting nodes for the nonnegative half of the n-node Gauss-Hermite rule, seeded as in
    Townsend, Trogdon & Olver, IMA J. Numer. Anal. 36, 337 (2016): Tricomi's expansion in the
    bulk, Gatteschi's at the edge with Airy zeros from A&S 10.4.94 and 10.4.105."""
    half, nu = n // 2, 2.0 * n + 1.0
    n_bulk = min(max(round(0.49082003 * n - 4.37859653) + 1, 0), half)
    c = (4.0 * half - 4.0 * np.arange(1, n_bulk + 1) + 3.0) * math.pi / nu
    tau = np.full(n_bulk, 0.5 * math.pi)
    for _ in range(5):   # tau - sin(tau) = c
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    s = np.cos(0.5 * tau) ** 2
    bulk = nu * s - (5.0 / (4.0 * (1.0 - s) ** 2) - 1.0 / (1.0 - s) - 0.25) / (3.0 * nu)
    z = 3.0 * math.pi * (4.0 * np.arange(half - n_bulk, 0, -1) - 1.0) / 8.0
    z2 = z ** -2.0
    a = -z ** (2.0 / 3.0) * (1.0 + z2 * (5 / 48 + z2 * (-5 / 36 + z2 * (77125 / 82944 - z2 * 108056875 / 6967296))))
    edge = (nu + 2 ** (2 / 3) * a * nu ** (1 / 3) + 2 ** (4 / 3) / 5 * a ** 2 * nu ** (-1 / 3)
            + (9 / 140 - 12 / 175 * a ** 3) / nu
            + (16 / 1575 * a + 92 / 7875 * a ** 4) * 2 ** (2 / 3) * nu ** (-5 / 3)
            - (15152 / 3031875 * a ** 5 + 1088 / 121275 * a ** 2) * 2 ** (1 / 3) * nu ** (-7 / 3))
    roots = np.sqrt(np.concatenate([bulk, edge]))
    return np.concatenate([[0.0], roots]) if n % 2 else roots


@functools.lru_cache(maxsize=GAUSS_RULE_MEMO_SIZE)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes (weight e^{-x^2}) and normalised weights: Halley steps on the nonnegative
    half from `_hermite_start`, mirrored; O(n) memory.  With u = p_n / p_n' = p_n / (sqrt(2n) p_{n-1})
    and p_n'' = 2x p_n' - 2n p_n (Hermite's equation), a Halley step is u / (1 - u (x - n u))."""
    def halley(x, prev, cur):
        u = cur / (math.sqrt(2.0 * n) * prev)
        return u / (1.0 - u * (x - n * u))

    x, w = _gauss_rule(_hermite_start(n), n, np.zeros(n), np.sqrt(np.arange(n + 1) / 2.0), halley)
    w = np.concatenate([w[::-1][:n // 2], w])
    return _read_only(np.concatenate([-x[::-1][:n // 2], x]), w / w.sum())


@functools.lru_cache(maxsize=GAUSS_RULE_MEMO_SIZE)
def _laguerre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes (weight e^{-y}) and normalised weights: the eigenvalues of the Jacobi
    matrix (Golub & Welsch, Math. Comp. 23, 221 (1969)), polished by Newton (y p_n' = n (p_n + p_{n-1}))."""
    k = np.arange(n + 1.0)
    start = np.linalg.eigvalsh(np.diag(2.0 * k[:n] + 1.0) + np.diag(k[1:n], -1))
    return _read_only(*_gauss_rule(start, n, 2.0 * k + 1.0, k, lambda y, prev, cur: y * cur / (n * (cur + prev))))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: what a memo returns is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=GAUSS_RULE_MEMO_SIZE)
def _node_grid(n_m: int, n_q: int) -> NodeGrid:
    """The unit nodes, normalised weights and kept nodes of the n_m x n_q grid.

    None of them carries a dot parameter, so a process selects the kept
    nodes once per count pair, on rules (`_hermite_rule`, `_laguerre_rule`)
    computed once per count by their own memos; the arrays are shared and
    read-only.  A count past its axis's limit (MAX_HERMITE_NODES,
    MAX_LAGUERRE_NODES) is refused before anything is computed.  The lightest nodes, while their weights
    sum to at most NEGLIGIBLE_WEIGHT, leave the kept set (every amplitude
    is bounded by its weight); the rest stay in raveled order, so the
    summation order stays fixed.
    """
    for name, count, rule, limit in (("m_weights", n_m, "Gauss-Hermite", MAX_HERMITE_NODES),
                                     ("q_weights", n_q, "Gauss-Laguerre", MAX_LAGUERRE_NODES)):
        if count > limit:
            raise QuadratureResolutionError(f"{name} of {count} nodes: the {rule} axis takes at most {limit}")
    x, m_weights = _hermite_rule(n_m)
    y, q_weights = _laguerre_rule(n_q)
    w2d = (m_weights[:, None] * q_weights[None, :]).ravel()
    light = np.argsort(w2d, kind="stable")
    n_light = int(np.count_nonzero(np.cumsum(w2d[light]) <= NEGLIGIBLE_WEIGHT))
    keep = np.sort(light[n_light:])
    return NodeGrid(x, m_weights, y, q_weights, *_read_only(*np.divmod(keep, n_q), w2d[keep]))


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


def _families(dot: DotParameters, m: np.ndarray, q: np.ndarray, w: np.ndarray) -> tuple[FrequencyFamily, ...]:
    """The phase-sum families (p, slow, fast) of the flat node list
    (polarization m, transverse invariant q, weight w), in its order."""
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
    return (FrequencyFamily(2.0 * w_ket, half * v_frac),
            FrequencyFamily(w_diff, half * (1.0 - ss), half * (s_bra - s_ket)),
            FrequencyFamily(w_ket + w_bra, half * (1.0 + ss), -half * (s_ket + s_bra)))


def build_quadrature(
    dot: DotParameters,
    t_max_ns: float,
    node_counts: tuple[int, int] | None = None,
) -> BathQuadrature:
    """Channel model of `dot`: Gauss-Hermite x Gauss-Laguerre nodes sized for t_max
    and their frequency families, computed once for every channel call on the model.

    The (n_m, n_q) counts come from the node rule unless a caller gives
    both as `node_counts`.  n_m must at least resolve the
    e^{-i alpha m t / hbar} phase at t_max (8 nodes per 2 pi of the
    Gauss-Hermite phase range).  The rule's candidate is FAST_NODES x
    FAST_NODES (n_m raised to that phase term if larger), taken if its own
    fast-term cutoff reaches t_max, so the slow branch never runs; otherwise
    the rule takes MIN_M_NODES x MIN_Q_NODES (n_m raised to the phase term),
    whose window covers the interference decay.  The candidate reads only
    its two Gauss rules, each computed once per count and process; the
    model's grid comes from `_node_grid`, whose kept nodes are selected
    once per count pair.  Each is scaled by the dot here, the model's grid
    even on the candidate's counts, and the Laguerre-overflow check runs on
    every model.  Given counts must be two integers of at least 3; a grid
    of more than MAX_QUADRATURE_NODES nodes, the candidate too, is refused
    before its nodes are computed, and so is a candidate past
    MAX_HERMITE_NODES.
    """
    if not t_max_ns >= 0.0:   # NaN too
        raise ValidityWindowError(f"t_max must be nonnegative, got {t_max_ns}")
    if node_counts is not None:
        if not (isinstance(node_counts, (tuple, list)) and len(node_counts) == 2 and all(
                isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in node_counts)):
            raise InvalidParameterError(f"node_counts must be a pair of integers, got {node_counts!r}")
        n_m, n_q = map(int, node_counts)
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
    sigma = dot.sigma_m

    def scaled(x: np.ndarray, m_weights: np.ndarray, y: np.ndarray,
               q_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """The m and Q nodes of the unit rules for this dot, and their fast-term cutoff."""
        # the largest node's product in Python floats, where an overflow is a quiet inf
        if not math.isfinite(2.0 * sigma * sigma * float(y.max())):
            raise InvalidParameterError(
                f"n_nuclei={dot.n_nuclei:g} and i_nuclear={dot.i_nuclear:g} give a bath variance N*I(I+1)/3 = "
                f"{sigma * sigma:.3g} whose largest of {y.size} Laguerre nodes 2*sigma^2*y overflows"
            )
        m_nodes = math.sqrt(2.0) * sigma * x
        q_nodes = 2.0 * sigma * sigma * y
        if np.any(q_nodes <= 0.0):
            raise QuadratureResolutionError("all q_nodes must be positive")
        return m_nodes, q_nodes, _fast_term_cutoff(dot, m_nodes, m_weights, q_nodes, q_weights)

    if node_counts is None:
        n_phase = math.ceil(8.0 * sigma * dot.alpha * t_max_ns / (2.0 * math.pi * HBAR_UEV_NS))
        n_m, n_q = max(FAST_NODES, n_phase), FAST_NODES
        # the candidate reads its two rules, not a node grid; one past the m axis's limit is not built:
        # the fallback, with as many m nodes, is refused too
        if not (n_m <= MAX_HERMITE_NODES and scaled(*_hermite_rule(n_m), *_laguerre_rule(n_q))[-1] >= t_max_ns):
            n_m, n_q = max(MIN_M_NODES, n_phase), MIN_Q_NODES
    if n_m * n_q > MAX_QUADRATURE_NODES:
        def count(n: int) -> str:
            return f"{n:.3g}" if n > MAX_QUADRATURE_NODES else str(n)
        raise InvalidParameterError(
            f"a quadrature of {count(n_m)} x {count(n_q)} nodes holds more than "
            f"MAX_QUADRATURE_NODES = {MAX_QUADRATURE_NODES} nodes"
        )
    if n_m < 3 or n_q < 3:
        raise QuadratureResolutionError(f"node counts too small: m={n_m}, q={n_q}")
    grid = _node_grid(n_m, n_q)
    m_nodes, q_nodes, cutoff = scaled(*grid[:4])
    return BathQuadrature(dot, (n_m, n_q), float(t_max_ns),
                          *_families(dot, m_nodes[grid.kept_m], q_nodes[grid.kept_q], grid.kept_weight), cutoff)


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


_NODE_BLOCK = 2048       # nodes per phase table: 32 KB a complex row, 3.3 MB for the 102 rows of a 2501-time run
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


def _moment_sums(
    times: np.ndarray,
    omega: np.ndarray,
    vers_amp: np.ndarray,
    sin_amp: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Node sums of vers_amp*(1 - cos(omega*t)) and sin_amp*sin(omega*t) by
    Taylor moments, for a family whose phases stay small (the slow family).

    Anchors t_s = min(times) + s*spacing, spacing = 2 TAYLOR_RADIUS /
    max|omega|, s up to the last one a time is nearest to; each time takes
    its nearest anchor, so the phase offsets |omega u|, u = t - t_s, stay
    within r <= TAYLOR_RADIUS, and the times may come in any order.  Per
    fixed node block, `_phase_table` doubles out e^{i omega t_s} over the
    anchors, and one product of its [re; im] rows with the (nodes x 2N)
    matrix [a, b] omega^n / n! gives the moments sum a omega^n e^{i omega
    t_s} / n! and their b counterparts for n < N, the fewest terms whose
    dropped rest weighs at most r^N / N! <= TAYLOR_TAIL (the amplitudes'
    magnitudes sum to at most 1).  A time is then a polynomial in u,
    evaluated by Horner's rule.  The n = 0 versine moment is summed as
    a (1 - cos(omega t_s)) directly, so at t = min(times) = 0, anchor 0
    with u = 0, both sums are 0 exactly.
    """
    w_max = float(np.abs(omega).max()) if omega.size else 0.0
    if not times.size or w_max == 0.0:   # every phase is 0 (zero field): both sums vanish exactly
        return np.zeros(times.size), np.zeros(times.size)
    spacing = 2.0 * TAYLOR_RADIUS / w_max
    t_lo = float(times.min())
    slot = np.rint((times - t_lo) / spacing).astype(np.intp)
    u = times - (t_lo + slot * spacing)
    radius = w_max * float(np.abs(u).max())
    n_anchors = int(slot.max()) + 1
    n_terms = next(n for n in itertools.count(1) if radius**n / math.factorial(n) <= TAYLOR_TAIL)
    moments = np.zeros((2 * n_anchors, 2 * n_terms))
    vers_zero = np.zeros(n_anchors)
    for lo in range(0, omega.size, _NODE_BLOCK):
        w = omega[lo : lo + _NODE_BLOCK]
        a = vers_amp[lo : lo + _NODE_BLOCK]
        phase = _phase_table(np.empty((n_anchors, w.size), dtype=complex),
                             np.exp(1j * (w * t_lo)), np.exp(1j * (w * spacing)))
        powers = np.empty((n_terms, w.size))
        powers[0] = 1.0
        for k in range(1, n_terms):
            np.multiply(powers[k - 1], w / k, out=powers[k])
        amp = np.concatenate([a * powers, sin_amp[lo : lo + _NODE_BLOCK] * powers])
        moments += np.concatenate([phase.real, phase.imag]) @ amp.T
        vers_zero += (1.0 - phase.real) @ a
    # u^n carries i^n (re + i im) of moment n: the versine polynomial takes minus its real part and
    # the sine one its imaginary part, so the coefficients alternate re and im with the signs of i^n
    re, im = moments[:n_anchors], moments[n_anchors:]
    n = np.arange(n_terms)
    sign = np.where(n % 4 < 2, 1.0, -1.0)
    odd = n % 2 == 1
    vers_coef = sign * np.where(odd, im[:, :n_terms], -re[:, :n_terms])
    vers_coef[:, 0] = vers_zero
    sin_coef = sign * np.where(odd, re[:, n_terms:], im[:, n_terms:])
    coef = np.take(np.stack([vers_coef.T, sin_coef.T], axis=1), slot, axis=2)   # (terms, 2, times)
    acc = coef[-1]
    for k in range(n_terms - 2, -1, -1):
        acc *= u
        acc += coef[k]
    return acc[0], acc[1]


def compute_channel(quad: BathQuadrature, times: np.ndarray) -> ChannelTrajectory:
    """Bath-averaged channel {p(t), c(t)} of the model's dot on the given time grid.

    p(t) = E[f_prob] over ket-side blocks; c(t) = E[a_amp * conj(d_amp)]
    with the bra-side block at polarization m-1 in the same multiplet.
    Expanding the products leaves three real-amplitude frequency families
    per node: p from 2*w_ket, c from the slow difference w_ket - w_bra and
    from the fast sum w_ket + w_bra, all stored on the model `quad`.  Past
    the fast-term cutoff only the slow family remains and p is its
    long-time mean.  The slow family is summed by Taylor moments at every
    time (`_moment_sums`), the fast ones by factored tables and GEMMs on
    the uniform runs of the grid (`_phase_sums`), both over fixed node
    blocks.  Summation order over nodes is fixed, so results are
    independent of the worker count; only the BLAS thread count can move
    the last bits (<1e-15).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(times >= 0.0):   # NaN too: the slow family's anchor of a NaN time is no index
        raise ValidityWindowError("times must be nonnegative numbers")
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
            f"(~5 dephasing times = {5.0 * dot.dephasing_time_ns:.1f} ns); "
            "raise build_quadrature's node_counts"
        )

    p_out = np.empty(times.size)
    c_out = np.empty(times.size, dtype=complex)
    fast = times <= cutoff
    slow = ~fast

    t = times[fast]
    p_out[fast] = _phase_sums(t, *quad.p)[0]
    vers, sin = _phase_sums(t, *quad.fast)
    # the slow family last: in this order glibc's malloc keeps a repeated
    # 20 ns channel's heap (0 page faults a call against 284 the other way)
    slow_vers, slow_sin = _moment_sums(times, *quad.slow)
    # a node's slow and fast versine amplitudes add up to its weight, and
    # the kept weights to 1 within NEGLIGIBLE_WEIGHT: the exact bath
    # average, not their rounded sum
    c_out[fast] = (1.0 - (vers + slow_vers[fast])) + 1j * (sin + slow_sin[fast])
    p_out[slow] = np.sum(quad.p.vers)
    c_out[slow] = (np.sum(quad.slow.vers) - slow_vers[slow]) + 1j * slow_sin[slow]
    if dot.zeeman_energy == 0.0:  # m -> -m pairs nodes whose sine terms cancel, and w_diff is 0: c is real
        c_out.imag = 0.0

    if times.size and times[0] == 0.0 and (abs(p_out[0]) > 1e-12 or abs(c_out[0] - 1.0) > 1e-12):
        raise QuadratureResolutionError(
            f"channel must start at (p, c) = (0, 1); got ({p_out[0]}, {c_out[0]})"
        )
    traj = ChannelTrajectory(times, p_out, c_out, dot, *quad.node_counts, fast_term_cutoff_ns=cutoff, model=quad)
    verify_channel_cp(traj).require(QuadratureResolutionError)
    return traj
