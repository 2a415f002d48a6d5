"""Quantum-correlation functionals for two-qubit states.

Provides the closed-form lower and upper bounds on the geometric discord
(squared Hilbert-Schmidt distance to the nearest zero-discord state), the
purity-rescaled discord derived from it, the Bell-diagonal analytic
formulas, the measurable ratio g, Wootters concurrence, and a brute-force
measurement-minimization oracle used to guard the closed forms.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .constants import InvalidParameterError, NumericalDomainError
from .states import (
    BlochForm,
    PAULI_Y,
    TwoQubitState,
    _rho,
    bloch_decompose,
    purity,
)

RESCALE_PREFACTOR = 0.5 * (1.0 - math.sqrt(3.0) / 2.0)
TOP_CLUSTER_GAP = 1e-10  # eigenvalues this close to the top of K count as degenerate with it
COINCIDE_TOL = 1e-9      # bounds closer than this count as coinciding
G_ZERO_TOL = 1e-14       # a |Tr(sz x sz rho)| below this is a vanishing denominator of g

_SY_SY = np.kron(PAULI_Y, PAULI_Y)


class UpperPairing(enum.Enum):
    """Which K matrix each L correction is paired with in the upper bound.

    PRINTED is the cross pairing (K_x with L_y); SWAPPED pairs each side
    with itself and exists for sensitivity analysis only.
    """

    PRINTED = "printed"
    SWAPPED = "swapped"


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
    coincide: np.ndarray


class Regime(enum.Enum):
    G_LE_1 = "g_le_1"
    G_GE_1 = "g_ge_1"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class BellDiagonalDiscord:
    ds: float
    regime: Regime
    g: float


def _bounds(form: BlochForm, pairing: UpperPairing) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper geometric-discord bounds of a Bloch form (one state or a stack).

    Side A is measured through K_x = x x^T + T T^T, side B through
    K_y = y y^T + T^T T; the lower bound is max over sides of
    (Tr K - k_max)/4.  The upper bound adds to each side's term the
    correction Tr L - l_max of the other side, with L_x = x x^T + T k k^T T^T
    for k the top eigenvector of K_y (and vice versa).  When the top
    eigenvalue is (near-)degenerate every eigenvector within
    TOP_CLUSTER_GAP of it is a candidate and the smallest correction is
    taken.  The upper bound is never reported below the lower one.
    """
    x, y, t = form.x, form.y, form.t_corr
    t_tr = np.swapaxes(t, -1, -2)
    bloch = np.stack([x, y])                                           # (2, ..., 3)
    k = bloch[..., :, None] * bloch[..., None, :] + np.stack([t @ t_tr, t_tr @ t])
    w, v = np.linalg.eigh(k)                                           # ascending
    a = np.trace(k, axis1=-2, axis2=-1) - w[..., 2]                    # (ax, ay)
    lower = np.maximum(0.0, 0.25 * np.maximum(a[0], a[1]))
    # each side's L correction takes its candidate vectors k from the other side's K
    w_c, v_c = w[::-1], v[::-1]
    u = np.stack([t @ v_c[0], t_tr @ v_c[1]])                          # column j: T k_j, T^T k_j
    l_mats = (bloch[..., None, :, None] * bloch[..., None, None, :]
              + np.einsum("...ij,...kj->...jik", u, u))                # (2, ..., 3 candidates, 3, 3)
    corr = np.trace(l_mats, axis1=-2, axis2=-1) - np.linalg.eigvalsh(l_mats)[..., 2]
    in_cluster = w_c[..., 2:] - w_c < TOP_CLUSTER_GAP
    b = np.min(np.where(in_cluster, corr, np.inf), axis=-1)            # (bx, by)
    paired = b[::-1] if pairing is UpperPairing.PRINTED else b
    upper = np.maximum(0.0, 0.25 * np.minimum(a[0] + paired[0], a[1] + paired[1]))
    return lower, np.maximum(upper, lower)


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


def discord_bounds(
    state: TwoQubitState | np.ndarray, pairing: UpperPairing = UpperPairing.PRINTED
) -> DiscordBounds:
    """Both geometric-discord bounds plus their rescaled versions.

    Takes one state, a 4x4 matrix or a (..., 4, 4) stack; see _bounds for
    the closed forms and the degenerate-top handling.
    """
    rho = _rho(state)
    lower, upper = _bounds(bloch_decompose(rho), pairing)
    rescaled_lower, rescaled_upper = rescaled_discord(np.array([lower, upper]), purity(rho))
    return DiscordBounds(
        ds_lower=lower,
        ds_upper=upper,
        rescaled_lower=rescaled_lower,
        rescaled_upper=rescaled_upper,
        coincide=abs(upper - lower) < COINCIDE_TOL,
    )


def bell_diagonal_discord(a: float, b: complex) -> BellDiagonalDiscord:
    """Analytic geometric discord of the X-pattern state diag(1/2-a, a, a, 1/2-a), coherence b.

    ds = 2|b|^2 in the g <= 1 regime and (1/2 - 2a)^2 + |b|^2 in the
    g >= 1 regime, with g = 2|b| / |1 - 4a|.
    """
    if not -1e-12 <= a <= 0.5 + 1e-12:
        raise InvalidParameterError(f"a must lie in [0, 1/2], got {a}")
    babs = abs(b)
    if babs > a + 1e-12:
        raise InvalidParameterError(f"positivity requires |b| <= a, got |b|={babs}, a={a}")
    denom = abs(1.0 - 4.0 * a)
    if denom < 1e-300:
        g = math.inf if babs > 0.0 else 0.0
    else:
        g = 2.0 * babs / denom
    if abs(g - 1.0) < 1e-12:
        regime = Regime.BOUNDARY
        ds = 2.0 * babs * babs
    elif g < 1.0:
        regime = Regime.G_LE_1
        ds = 2.0 * babs * babs
    else:
        regime = Regime.G_GE_1
        ds = (0.5 - 2.0 * a) ** 2 + babs * babs
    return BellDiagonalDiscord(ds=ds, regime=regime, g=g)


def g_ratio(state: TwoQubitState | np.ndarray) -> np.ndarray:
    """|Tr(sx x sx rho)| / |Tr(sz x sz rho)| of one state or a (..., 4, 4) stack.

    Absolute values make the ratio coincide with 2|b|/|1-4a| on X-pattern
    states.  Returns +inf for a vanishing denominator with finite
    numerator and nan (undefined) for 0/0.
    """
    rho = _rho(state)
    txx = np.abs(np.real(rho[..., 0, 3] + rho[..., 1, 2] + rho[..., 2, 1] + rho[..., 3, 0]))
    tzz = np.abs(np.real(rho[..., 0, 0] - rho[..., 1, 1] - rho[..., 2, 2] + rho[..., 3, 3]))
    zero = tzz < G_ZERO_TOL
    ratio = txx / np.where(zero, 1.0, tzz)
    return np.where(zero, np.where(txx >= G_ZERO_TOL, np.inf, np.nan), ratio)[()]


def concurrence(state: TwoQubitState | np.ndarray) -> np.ndarray:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of one state or a (..., 4, 4) stack."""
    rho = _rho(state)
    rho_tilde = _SY_SY @ rho.conj() @ _SY_SY
    lam = np.sort(np.sqrt(np.clip(np.real(np.linalg.eigvals(rho @ rho_tilde)), 0.0, None)), axis=-1)
    return np.maximum(0.0, lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0])


# ---------------------------------------------------------------------------
# measurement-minimization oracle
# ---------------------------------------------------------------------------


def pinch_first_qubit(rho: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """Dephase qubit A in the basis of the Bloch direction (theta, phi)."""
    n = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    n_sigma = n[0] * np.array([[0, 1], [1, 0]]) + n[1] * np.array([[0, -1j], [1j, 0]]) + n[2] * np.array(
        [[1, 0], [0, -1]]
    )
    p_plus = 0.5 * (np.eye(2) + n_sigma)
    p_minus = 0.5 * (np.eye(2) - n_sigma)
    out = np.zeros_like(rho)
    for proj in (p_plus, p_minus):
        big = np.kron(proj, np.eye(2))
        out += big @ rho @ big
    return out


def oracle_one_sided_discord(
    state: TwoQubitState, grid_resolution: int = 24, refine: bool = True
) -> float:
    """Minimum squared Hilbert-Schmidt distance to a qubit-A pinching.

    Brute force: coarse (theta, phi) grid followed by a simplex refinement
    of the best point.  Serves as the independent check of the closed-form
    lower bound on the A side.
    """
    rho = state.rho

    def distance_sq(angles: np.ndarray) -> float:
        chi = pinch_first_qubit(rho, angles[0], angles[1])
        diff = rho - chi
        return float(np.sum(np.abs(diff) ** 2))

    thetas = np.linspace(0.0, math.pi, grid_resolution)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * grid_resolution, endpoint=False)
    best_val = math.inf
    best = (0.0, 0.0)
    for th in thetas:
        for ph in phis:
            val = distance_sq(np.array([th, ph]))
            if val < best_val:
                best_val = val
                best = (th, ph)
    if refine:
        res = minimize(
            distance_sq,
            np.array(best),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400},
        )
        best_val = min(best_val, float(res.fun))
    return best_val
