"""Quantum-correlation functionals for two-qubit states.

Provides the closed-form lower and upper bounds on the geometric discord
(squared Hilbert-Schmidt distance to the nearest zero-discord state), the
purity-rescaled discord derived from it, the measurable ratio g, Wootters
concurrence, and a brute-force measurement-minimization oracle used to
guard the closed forms.
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
ORACLE_POLISH_RESTARTS = 4  # times an unconverged simplex polish of the oracle is continued

_SY_SY = np.kron(PAULI_Y, PAULI_Y)


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
    and K_y = y y^T + T^T T, stacked on a leading axis of 2 (x side first)."""

    a: np.ndarray       # (2, ...): Tr K - k_max
    top: np.ndarray     # (2, ..., 3): True where an eigenvalue lies within TOP_CLUSTER_GAP of k_max
    v: np.ndarray       # (2, ..., 3, 3): eigenvectors in columns, ascending order


def _k_eigh(form: BlochForm) -> KEigh:
    """The one `eigh` both discord bounds share, for one state or a stack."""
    bloch = np.stack([form.x, form.y])                                 # (2, ..., 3)
    t = form.t_corr
    t_tr = np.swapaxes(t, -1, -2)
    k = bloch[..., :, None] * bloch[..., None, :] + np.stack([t @ t_tr, t_tr @ t])
    w, v = np.linalg.eigh(k)                                           # ascending
    return KEigh(np.trace(k, axis1=-2, axis2=-1) - w[..., 2], w[..., 2:] - w < TOP_CLUSTER_GAP, v)


def _lower_bound(eig: KEigh) -> np.ndarray:
    """Lower geometric-discord bound: max over sides of (Tr K - k_max)/4."""
    return np.maximum(0.0, 0.25 * np.maximum(eig.a[0], eig.a[1]))


def _upper_bound(form: BlochForm, eig: KEigh, lower: np.ndarray) -> np.ndarray:
    """Upper geometric-discord bound of `form`, never reported below `lower`.

    Each side's term (Tr K - k_max) gets the correction Tr L - l_max of the
    other side, with L_x = x x^T + T k k^T T^T for k the top eigenvector of
    K_y (and vice versa).  When the top eigenvalue is (near-)degenerate
    every eigenvector within TOP_CLUSTER_GAP of it is a candidate and the
    smallest correction is taken.
    """
    bloch = np.stack([form.x, form.y])
    t = form.t_corr
    t_tr = np.swapaxes(t, -1, -2)
    # each side's L correction takes its candidate vectors k from the other side's K
    v_c = eig.v[::-1]
    u = np.stack([t @ v_c[0], t_tr @ v_c[1]])                          # column j: T k_j, T^T k_j
    l_mats = (bloch[..., None, :, None] * bloch[..., None, None, :]
              + np.einsum("...ij,...kj->...jik", u, u))                # (2, ..., 3 candidates, 3, 3)
    corr = np.trace(l_mats, axis1=-2, axis2=-1) - np.linalg.eigvalsh(l_mats)[..., 2]
    b = np.min(np.where(eig.top[::-1], corr, np.inf), axis=-1)         # (bx, by)
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
    ds, pur = np.broadcast_arrays(np.asarray(ds, dtype=float), np.asarray(purity_value, dtype=float))
    radicand = 1.0 - ds / (2.0 * pur)
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
    lower = _lower_bound(eig)
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


def g_under_channel(t_corr: np.ndarray, p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """g (as `g_ratio`) of a start state with correlation matrix t_corr after the product channel (p, c).

    Each dot maps Bloch vectors by Lambda = [[Re c, Im c, 0], [-Im c, Re c, 0],
    [0, 0, 1 - 2p]], so the evolved correlation matrix is Lambda T Lambda^T:
    T'_xx = c_hat^T T_perp c_hat with c_hat = (Re c, Im c) and T_perp the xy
    block of T, and T'_zz = (1 - 2p)^2 T_zz.  One value per (p, c) pair; no
    density matrix is formed.
    """
    cr, ci = np.real(c), np.imag(c)
    t = t_corr
    txx = np.abs(cr * cr * t[0, 0] + cr * ci * (t[0, 1] + t[1, 0]) + ci * ci * t[1, 1])
    q = 1.0 - 2.0 * p
    return _g_of(txx, q * q * abs(t[2, 2]))


def concurrence(state: TwoQubitState | np.ndarray) -> np.ndarray:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of one state or a (..., 4, 4) stack."""
    rho = _rho(state)
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
    lam = np.sort(np.sqrt(np.clip(np.real(np.linalg.eigvals(rho @ rho_tilde)), 0.0, None)), axis=-1)
    return np.maximum(0.0, lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0])


# ---------------------------------------------------------------------------
# measurement-minimization oracle
# ---------------------------------------------------------------------------


def _pinching_distances(rho: np.ndarray, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Squared Hilbert-Schmidt distances from rho to its qubit-A pinchings.

    Qubit A is dephased in the basis of each Bloch direction (thetas[k],
    phis[k]): with the projector pair P+- = (1 +- n.sigma)/2, the pinching
    is sum_+- (P x 1) rho (P x 1), one einsum over all directions.
    """
    n = np.stack([np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis), np.cos(thetas)], axis=-1)
    n_sigma = np.einsum("gk,kij->gij", n, np.array(PAULIS))
    proj = 0.5 * (np.eye(2) + np.array([1.0, -1.0])[:, None, None, None] * n_sigma)   # (2, g, 2, 2)
    r = rho.reshape(2, 2, 2, 2)                                                     # (a, b | a', b')
    chi = np.einsum("sgac,cbdx,sgde->gabex", proj, r, proj)
    return np.sum(np.abs(r - chi) ** 2, axis=(1, 2, 3, 4))


def oracle_one_sided_discord(state: TwoQubitState, grid_resolution: int = 24) -> float:
    """Minimum squared Hilbert-Schmidt distance to a qubit-A pinching.

    Brute force: coarse (theta, phi) grid followed by a simplex polish of
    the best point.  A polish that runs out of iterations is continued from
    its last point, at most ORACLE_POLISH_RESTARTS times, until it
    converges.  Serves as the independent check of the closed-form lower
    bound on the A side.
    """
    from scipy.optimize import minimize  # on first use: only `verify` runs the oracle

    rho = state.rho
    thetas, phis = np.meshgrid(np.linspace(0.0, math.pi, grid_resolution),
                               np.linspace(0.0, 2.0 * math.pi, 2 * grid_resolution, endpoint=False),
                               indexing="ij")
    coarse = _pinching_distances(rho, thetas.ravel(), phis.ravel())
    k = int(np.argmin(coarse))
    best, start = float(coarse[k]), np.array([thetas.flat[k], phis.flat[k]])
    for _ in range(1 + ORACLE_POLISH_RESTARTS):
        res = minimize(lambda angles: float(_pinching_distances(rho, angles[:1], angles[1:])[0]), start,
                       method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400})
        best, start = min(best, float(res.fun)), res.x
        if res.success:
            break
    return best
