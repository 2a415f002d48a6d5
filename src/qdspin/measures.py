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
    PAULI_Y,
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

_SY_SY = np.kron(PAULI_Y, PAULI_Y)
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
    """

    a: np.ndarray         # (2, ...): Tr K - k_max
    w: np.ndarray         # (2, ..., 3): eigenvalues, ascending or (diagonal K) in axis order
    v: np.ndarray | None  # (2, ..., 3, 3): eigenvectors in columns, as w; None for the unit vectors


def _k_eigh(form: BlochForm) -> KEigh:
    """The eigenpairs both discord bounds share, for one state or a stack.

    One route per stack, chosen from the Bloch form's zeros before any
    product is formed: with x and y along z and T diagonal, K_x = K_y =
    diag(b_i^2 + T_ii^2) is read elementwise, with the matmul's bits (each
    entry a sum with one nonzero term); every other stack takes one `eigh`.
    LAPACK returns a diagonal K's exact diagonal too, and the upper bound's
    minimum over the top cluster depends neither on the eigenvectors' signs
    nor on the eigenvalues' order, so a state gets the same bounds, bit for
    bit, on either route: alone or inside any stack.
    """
    bloch = np.stack([form.x, form.y])                                 # (2, ..., 3)
    t = form.t_corr
    if bloch[..., :2].any() or t[..., _OFF_ROWS, _OFF_COLS].any():
        t_tr = np.swapaxes(t, -1, -2)
        k = bloch[..., :, None] * bloch[..., None, :] + np.stack([t @ t_tr, t_tr @ t])
        w, v = np.linalg.eigh(k)                                       # ascending
        diag = np.diagonal(k, axis1=-2, axis2=-1)
    else:
        t_ii = np.diagonal(t, axis1=-2, axis2=-1)
        w = diag = bloch * bloch + t_ii * t_ii
        v = None
    trace = diag[..., 0] + diag[..., 1] + diag[..., 2]                 # np.trace's order and bits
    return KEigh(trace - _largest(w), w, v)


def _largest(w: np.ndarray) -> np.ndarray:  # k_max of each triple, in any order: ~1/6 the cost of a length-3 `max`
    return np.maximum(np.maximum(w[..., 0], w[..., 1]), w[..., 2])


def _lower_bound(side_terms: np.ndarray) -> np.ndarray:
    """Lower geometric-discord bound: max over sides of (Tr K - k_max)/4, from `KEigh.a`."""
    return np.maximum(0.0, 0.25 * np.maximum(side_terms[0], side_terms[1]))


def _upper_bound(form: BlochForm, eig: KEigh, lower: np.ndarray) -> np.ndarray:
    """Upper geometric-discord bound of `form`, never reported below `lower`.

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
    bloch = np.stack([form.x, form.y])
    t = form.t_corr
    t_tr = np.swapaxes(t, -1, -2)
    # each side's L correction takes its candidate vectors k from the other side's K
    if eig.v is None:
        u = np.stack([t, t_tr])                                        # column j: T e_j, T^T e_j
    else:
        v_c = eig.v[::-1]
        u = np.stack([t @ v_c[0], t_tr @ v_c[1]])                      # column j: T k_j, T^T k_j
    aa = (bloch * bloch).sum(axis=-1)[..., None]                       # (2, ..., 1)
    u0, u1, u2 = u[..., 0, :], u[..., 1, :], u[..., 2, :]              # row sums: .sum(axis=-2)'s bits, half its time
    uu = u0 * u0 + u1 * u1 + u2 * u2                                   # (2, ..., 3 candidates)
    au = bloch[..., 0, None] * u0 + bloch[..., 1, None] * u1 + bloch[..., 2, None] * u2
    corr = 0.5 * (aa + uu - np.hypot(aa - uu, 2.0 * au))
    top = _largest(eig.w)[..., None] - eig.w < TOP_CLUSTER_GAP          # the cluster at k_max
    b = np.min(np.where(top[::-1], corr, np.inf), axis=-1)             # (bx, by)
    a = eig.a
    upper = np.maximum(0.0, 0.25 * np.minimum(a[0] + b[1], a[1] + b[0]))
    return np.maximum(upper, lower)


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
    valid = (pur >= 0.25 - 1e-9) & (pur <= 1.0 + 1e-9) & (ds >= -1e-12) & ~(radicand < -1e-9)
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
    form = bloch_decompose(rho)
    eig = _k_eigh(form)
    lower = _lower_bound(eig.a)
    upper = _upper_bound(form, eig, lower)
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
    ratio = txx / np.where(zero, 1.0, tzz)
    return np.where(zero, np.where(txx >= G_ZERO_TOL, np.inf, np.nan), ratio)[()]


def g_ratio(state: TwoQubitState | np.ndarray) -> np.ndarray:
    """|Tr(sx x sx rho)| / |Tr(sz x sz rho)| of one state or a (..., 4, 4) stack.

    Absolute values make the ratio coincide with 2|b|/|1-4a| on X-pattern
    states.  Returns +inf for a vanishing denominator with finite
    numerator and nan (undefined) for 0/0.
    """
    rho = _rho(state)
    txx = np.abs(np.real(rho[..., 0, 3] + rho[..., 1, 2] + rho[..., 2, 1] + rho[..., 3, 0]))
    tzz = np.abs(np.real(rho[..., 0, 0] - rho[..., 1, 1] - rho[..., 2, 2] + rho[..., 3, 3]))
    return _g_of(txx, tzz)


def concurrence(state: TwoQubitState | np.ndarray) -> np.ndarray:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of one state or a (..., 4, 4) stack."""
    rho = _rho(state)
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
    lam = np.sort(np.sqrt(np.clip(np.real(np.linalg.eigvals(rho @ rho_tilde)), 0.0, None)), axis=-1)
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
    A side.
    """
    rho = _rho(state)
    lead = rho.shape[:-2]
    rho = rho.reshape(-1, 4, 4)
    thetas, phis = np.meshgrid(np.linspace(0.0, math.pi, grid_resolution),
                               np.linspace(0.0, 2.0 * math.pi, 2 * grid_resolution, endpoint=False),
                               indexing="ij")
    thetas, phis = thetas.ravel(), phis.ravel()
    grid = np.stack([np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis), np.cos(thetas)], axis=-1)
    coarse = _pinching_distances(rho, grid)                                      # (states, grid)
    k = np.argmin(coarse, axis=-1)
    best, n = coarse[np.arange(k.size), k], grid[k]
    h = np.full(k.size, math.pi / (grid_resolution - 1))
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
