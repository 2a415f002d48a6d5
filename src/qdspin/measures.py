"""Quantum-correlation functionals for two-qubit states.

Provides the closed-form lower and upper bounds on the geometric discord
(squared Hilbert-Schmidt distance to the nearest zero-discord state), the
purity-rescaled discord derived from it, the measurable ratio g, Wootters
concurrence, and a brute-force measurement-minimization oracle used to
guard the closed forms: it minimises the distance to the pinched state
directly, over a grid of measurement directions and then by a compass
search on the sphere, with numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import InvalidParameterError, NumericalDomainError
from .states import (
    BlochForm,
    PAULIS,
    TwoQubitState,
    _rho,
    bloch_decompose,
    purity,
)

RESCALE_PREFACTOR = 0.5 * (1.0 - math.sqrt(3.0) / 2.0)
TOP_CLUSTER_GAP = 1e-10  # eigenvalues this close to the top of K count as degenerate with it
G_ZERO_TOL = 1e-14       # a |Tr(sz x sz rho)| below this is a vanishing denominator of g
ORACLE_STEP_FLOOR = 1e-10   # the oracle's compass search ends once its step on the sphere is at most this
ORACLE_MAX_ROUNDS = 1000    # a compass search still open after this many rounds raises (110 the most seen)
ORACLE_BLOCK = 16           # states whose coarse-grid distances the oracle forms at once

# (sy x sy) conj(rho) (sy x sy) has entries s_i s_j conj(rho)[3 - i, 3 - j], s = (-1, 1, 1, -1)
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])
# Tr(sx x sx rho) and Tr(sz x sz rho) as signed sums of the entries (i, _G_COLS[k, i]), added in order of i
_G_ROWS = np.arange(4)
_G_COLS = np.array([[3, 2, 1, 0], [0, 1, 2, 3]])
_G_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, 1.0]])
_OFF_ROWS, _OFF_COLS = np.nonzero(~np.eye(3, dtype=bool))
_COMPASS = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j], dtype=float)  # the 8 moves


@dataclass(frozen=True)
class DiscordBounds:
    """Geometric-discord bounds and their rescaled versions.

    Each field is a numpy scalar for one state and an array over the
    leading axes for a stack.
    """

    ds_lower: np.ndarray
    ds_upper: np.ndarray
    rescaled_lower: np.ndarray
    rescaled_upper: np.ndarray


class KEigh(NamedTuple):
    """What the discord bounds keep of the eigendecomposition of K_x = x x^T + T T^T
    and K_y = y y^T + T^T T, stacked on a leading axis of 2 (x side first).

    A stack whose x and y lie along z and whose T has no nonzero entry off
    its diagonal (X states with real coherences) has diagonal K: `w` is that
    diagonal in axis order and `v` is None, for the unit vectors.  Every
    other stack keeps `eigh`'s ascending eigenvalues and their eigenvectors.
    The stacked sides the upper bound reads, (x, y) and (T, T^T), are built
    here once.
    """

    a: np.ndarray         # (2, ...): Tr K - k_max
    w: np.ndarray         # (2, ..., 3): eigenvalues, ascending or (diagonal K) in axis order
    v: np.ndarray | None  # (2, ..., 3, 3): eigenvectors in columns, as w; None for the unit vectors
    bloch: np.ndarray     # (2, ..., 3): x, y
    tt: np.ndarray        # (2, ..., 3, 3): T, T^T; on a diagonal K, a read-only view of T twice


def _k_eigh(form: BlochForm) -> KEigh:
    """The eigenpairs both discord bounds share, for one state or a stack.

    One route per stack, chosen from the Bloch form's zeros before any
    product is formed: with x and y along z and T diagonal, K_x = K_y =
    diag(b_i^2 + T_ii^2) is read elementwise, with the matmul's bits (each
    entry a sum with one nonzero term); every other stack takes one `eigh`
    of K = b b^T + [T, T^T] @ [T^T, T], one stacked matmul for both sides.
    LAPACK returns a diagonal K's exact diagonal too, and the upper bound's
    minimum over the top cluster depends neither on the eigenvectors' signs
    nor on the eigenvalues' order, so a state gets the same bounds, bit for
    bit, on either route: alone or inside any stack.
    """
    # np.array of the pair: np.stack's bits at a fifth of its call overhead
    bloch = np.array([form.x, form.y])                                 # (2, ..., 3)
    t = form.t_corr
    if bloch[..., :2].any() or t[..., _OFF_ROWS, _OFF_COLS].any():
        tt = np.array([t, np.swapaxes(t, -1, -2)])                     # (2, ..., 3, 3)
        k = bloch[..., :, None] * bloch[..., None, :] + tt @ tt[::-1]
        w, v = np.linalg.eigh(k)                                       # ascending
        diag = k.diagonal(axis1=-2, axis2=-1)
    else:
        t_ii = t.diagonal(axis1=-2, axis2=-1)
        w = diag = bloch * bloch + t_ii * t_ii
        v = None
        # T^T is T but for the sign of a zero off the diagonal, which the corrections drop (they read the
        # candidates through squares and hypot): a view of T twice, so a row that reads only the lower bound
        # allocates nothing more (a 212 KB copy at 1476 times left the allocator in a state that cost each
        # 2000 ns long-time sweep ~1 ms more, measured in fresh processes)
        tt = np.broadcast_to(t, (2, *t.shape))
    trace = diag[..., 0] + diag[..., 1] + diag[..., 2]                 # np.trace's order and bits
    return KEigh(trace - _largest(w), w, v, bloch, tt)


def _largest(w: np.ndarray) -> np.ndarray:  # k_max of each triple, in any order: ~1/6 the cost of a length-3 `max`
    return np.maximum(np.maximum(w[..., 0], w[..., 1]), w[..., 2])


def _lower_bound(side_terms: np.ndarray) -> np.ndarray:
    """Lower geometric-discord bound: max over sides of (Tr K - k_max)/4, from `KEigh.a`."""
    return np.maximum(0.0, 0.25 * np.maximum(side_terms[0], side_terms[1]))


def _upper_bound(eig: KEigh, lower: np.ndarray) -> np.ndarray:
    """Upper geometric-discord bound of the sides in `eig`, never reported below `lower`.

    Each side's term (Tr K - k_max) gets the correction Tr L - l_max of the
    other side, with L_x = x x^T + T k k^T T^T for k the top eigenvector of
    K_y (and vice versa).  When the top eigenvalue is (near-)degenerate
    every eigenvector within TOP_CLUSTER_GAP of it is a candidate and the
    smallest correction is taken.  On a diagonal K (`KEigh.v` None) the
    candidates are unit vectors, so T k_j is T's own column j.

    L = a a^T + u u^T has rank 2, so Tr L - l_max is the smaller eigenvalue
    of the 2x2 Gram matrix of a and u:
    (a.a + u.u - hypot(a.a - u.u, 2 a.u)) / 2, with no division, so a = 0
    or u = 0 gives 0 exactly.
    """
    # each side's L correction takes its candidate vectors k from the other side's K
    u = eig.tt if eig.v is None else eig.tt @ eig.v[::-1]              # column j: T k_j, T^T k_j
    a = eig.bloch[..., :, None]                                        # (2, ..., 3, 1)
    p, q = a * np.concatenate([a, u], axis=-1), u * u                  # columns a_i a_i, a_i u_ij; u_ij u_ij
    # row sums, added in row order: .sum(axis=-2)'s bits, under half its time on a stack
    gram, uu = p[..., 0, :] + p[..., 1, :] + p[..., 2, :], q[..., 0, :] + q[..., 1, :] + q[..., 2, :]
    aa, ua = gram[..., :1], gram[..., 1:]                              # a.a; a.u_j of the 3 candidates
    corr = 0.5 * (aa + uu - np.hypot(aa - uu, 2.0 * ua))
    top = _largest(eig.w)[..., None] - eig.w < TOP_CLUSTER_GAP          # the cluster at k_max
    b = np.where(top[::-1], corr, np.inf)
    # (bx, by): a length-3 `min` written out, with its bits, as fast on one state and ~1/20 its time on a stack
    b = np.minimum(np.minimum(b[..., 0], b[..., 1]), b[..., 2])
    return np.maximum(lower, 0.25 * (eig.a + b[::-1]).min(axis=0))    # lower >= 0 holds the max with 0


def rescaled_discord(ds: float, purity_value: float) -> float:
    """Purity-rescaled discord: p0 * (1 - sqrt(1 - ds / (2 purity))).

    p0 = (1 - sqrt(3)/2)/2 is the rescaled value of a pure maximally
    entangled state's distance scale.  Small negative radicands from
    round-off are clamped; larger ones are a domain error.  Arrays are
    rescaled element-wise; an error names the first offending pair.
    """
    ds, pur = np.asarray(ds, dtype=float), np.asarray(purity_value, dtype=float)
    radicand = 1.0 - ds / (2.0 * pur)
    # one combined test accepts the common case; the loop names the first error of the first kind found
    # a NaN radicand comes from a NaN ds or purity, which fails its own test
    valid = (pur >= 0.25 - 1e-9) & (pur <= 1.0 + 1e-9) & (ds >= -1e-12) & (radicand >= -1e-9)
    if not valid.all():
        ds, pur = np.broadcast_arrays(ds, pur)
        for bad, error, what in (
            (~((pur >= 0.25 - 1e-9) & (pur <= 1.0 + 1e-9)), InvalidParameterError, "purity must lie in [1/4, 1]"),
            (~(ds >= -1e-12), InvalidParameterError, "geometric discord must be nonnegative"),
            (radicand < -1e-9, NumericalDomainError, "rescaling radicand below tolerance"),
        ):
            if bad.any():
                i = np.flatnonzero(bad)[0]
                raise error(f"{what}: ds={ds.flat[i]}, purity={pur.flat[i]}")
    return RESCALE_PREFACTOR * (1.0 - np.sqrt(np.maximum(radicand, 0.0)))


def discord_bounds(state: TwoQubitState | np.ndarray) -> DiscordBounds:
    """Both geometric-discord bounds plus their rescaled versions.

    Takes one state, a 4x4 matrix or a (..., 4, 4) stack.  Side A is
    measured through K_x, side B through K_y (`KEigh`); see `_lower_bound`
    and `_upper_bound` for the closed forms and the degenerate-top handling.
    """
    rho = _rho(state)
    eig = _k_eigh(bloch_decompose(rho))
    lower = _lower_bound(eig.a)
    upper = _upper_bound(eig, lower)
    rescaled_lower, rescaled_upper = rescaled_discord(np.array([lower, upper]), purity(rho))
    return DiscordBounds(
        ds_lower=lower,
        ds_upper=upper,
        rescaled_lower=rescaled_lower,
        rescaled_upper=rescaled_upper,
    )


def _g_of(txx: np.ndarray, tzz: np.ndarray) -> np.ndarray:
    """txx / tzz of two absolute correlations: +inf for a vanishing tzz with finite txx, nan for 0/0."""
    zero = tzz < G_ZERO_TOL
    if not zero.any():
        return (txx / tzz)[()]
    ratio = txx / np.where(zero, 1.0, tzz)
    return np.where(zero, np.where(txx >= G_ZERO_TOL, np.inf, np.nan), ratio)[()]


def g_ratio(state: TwoQubitState | np.ndarray) -> np.ndarray:
    """|Tr(sx x sx rho)| / |Tr(sz x sz rho)| of one state or a (..., 4, 4) stack.

    Absolute values make the ratio coincide with 2|b|/|1-4a| on X-pattern
    states.  Returns +inf for a vanishing denominator with finite
    numerator and nan (undefined) for 0/0.
    """
    terms = _rho(state).real[..., _G_ROWS, _G_COLS] * _G_SIGNS          # (..., 2, 4)
    corr = np.abs(terms.sum(axis=-1))                                   # |Tr(sx x sx rho)|, |Tr(sz x sz rho)|
    return _g_of(corr[..., 0], corr[..., 1])


def concurrence(state: TwoQubitState | np.ndarray) -> np.ndarray:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of one state or a (..., 4, 4) stack.

    The l_i are the square roots of the eigenvalues of rho rho~, with the
    spin flip rho~ = (sy x sy) conj(rho) (sy x sy) formed as a signed
    reversal of conj(rho)'s rows and columns.
    """
    rho = _rho(state)
    rho_tilde = _FLIP_SIGNS * rho.conj()[..., ::-1, ::-1]
    lam = np.sqrt(np.maximum(np.linalg.eigvals(rho @ rho_tilde).real, 0.0))
    lam.sort(axis=-1)
    return np.maximum(0.0, lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0])


# ---------------------------------------------------------------------------
# measurement-minimization oracle
# ---------------------------------------------------------------------------


def _pinching_distances(rho: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Squared Hilbert-Schmidt distances from rho to its qubit-A pinchings.

    Qubit A is dephased in the basis of each unit Bloch direction n[..., g, :]:
    with the projector pair P+- = (1 +- n.sigma)/2, the pinching chi is
    sum_+- (P x 1) rho (P x 1), one einsum over all directions.  rho is one
    4x4 matrix or a (..., 4, 4) stack whose leading axes broadcast against
    n's before its direction axis g; the result holds one distance per
    direction, on the broadcast axes followed by g.
    """
    n_sigma = np.einsum("...k,kij->...ij", n, np.array(PAULIS))
    proj = 0.5 * np.stack([np.eye(2) + n_sigma, np.eye(2) - n_sigma])            # (2, ..., g, 2, 2)
    r = rho.reshape(*rho.shape[:-2], 1, 2, 2, 2, 2)                              # (..., 1, a, b | a', b')
    chi = np.einsum("s...ac,...cbdx,s...de->...abex", proj, r, proj, optimize=True)   # pairwise contractions
    return np.sum(np.abs(r - chi) ** 2, axis=(-4, -3, -2, -1))


def oracle_one_sided_discord(state: TwoQubitState | np.ndarray, grid_resolution: int = 24) -> np.ndarray:
    """Minimum squared Hilbert-Schmidt distance to a qubit-A pinching, of one state or a (..., 4, 4) stack.

    Brute force: the best direction n of a coarse (theta, phi) grid is
    polished by a compass search on the sphere (Kolda, Lewis & Torczon,
    SIAM Rev. 45, 385 (2003)).  Each round tries the eight points
    n + h (i u + j v), i, j in {-1, 0, 1} not both 0, normalised, with (u, v)
    an orthonormal tangent basis at n; it moves to the best of them if that
    is strictly lower and halves h otherwise.  h starts at the grid's theta
    spacing, pi / (grid_resolution - 1), and a state is done once its h is
    at most ORACLE_STEP_FLOOR; a search still open after ORACLE_MAX_ROUNDS
    rounds raises.  The distances are formed from the pinched states alone,
    so this is the independent check of the closed-form lower bound on the
    A side.  The coarse grid takes a stack ORACLE_BLOCK states at a time,
    so its arrays stay that size whatever the stack's.
    """
    rho = _rho(state)
    lead = rho.shape[:-2]
    rho = rho.reshape(-1, 4, 4)
    thetas, phis = np.meshgrid(np.linspace(0.0, math.pi, grid_resolution),
                               np.linspace(0.0, 2.0 * math.pi, 2 * grid_resolution, endpoint=False),
                               indexing="ij")
    thetas, phis = thetas.ravel(), phis.ravel()
    grid = np.stack([np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis), np.cos(thetas)], axis=-1)
    best, n = np.empty(rho.shape[0]), np.empty((rho.shape[0], 3))
    for start in range(0, rho.shape[0], ORACLE_BLOCK):
        coarse = _pinching_distances(rho[start:start + ORACLE_BLOCK], grid)       # (states, grid)
        k = np.argmin(coarse, axis=-1)
        best[start:start + k.size], n[start:start + k.size] = coarse[np.arange(k.size), k], grid[k]
    h = np.full(best.size, math.pi / (grid_resolution - 1))
    for _ in range(ORACLE_MAX_ROUNDS):
        live = np.flatnonzero(h > ORACLE_STEP_FLOOR)
        if not live.size:
            return best.reshape(lead)[()]
        at = n[live]
        # the tangent basis: u from the coordinate axis least along n, v = n x u
        u = np.eye(3)[np.argmin(np.abs(at), axis=-1)]
        u -= np.sum(u * at, axis=-1, keepdims=True) * at
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        v = np.cross(at, u)
        trial = at[:, None] + h[live, None, None] * (_COMPASS[:, :1] * u[:, None] + _COMPASS[:, 1:] * v[:, None])
        trial /= np.linalg.norm(trial, axis=-1, keepdims=True)                   # (live, 8, 3)
        dist = _pinching_distances(rho[live], trial)
        j = np.argmin(dist, axis=-1)
        low = dist[np.arange(live.size), j] < best[live]
        n[live[low]] = trial[low, j[low]]
        best[live[low]] = dist[low, j[low]]
        h[live[~low]] *= 0.5
    raise NumericalDomainError(f"the oracle's compass search did not close in {ORACLE_MAX_ROUNDS} rounds")
