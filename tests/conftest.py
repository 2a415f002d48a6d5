import enum
import math
from dataclasses import dataclass

import numpy as np
import pytest

from qdspin import BlochForm, DotParameters, TwoQubitState, build_quadrature, compute_channel
from qdspin.constants import InvalidParameterError
from qdspin.states import PAULIS


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(83)


@pytest.fixture(scope="session")
def default_dot():
    return DotParameters()


def random_density(rng) -> TwoQubitState:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return TwoQubitState(rho)


def random_unitary(rng, n=2) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def channel_of(dot: DotParameters, times):
    """Channel of `dot` on `times` from a model sized by the node rule for their last time."""
    times = np.asarray(times, dtype=float)
    return compute_channel(build_quadrature(dot, float(times.max())), times)


def bloch_reconstruct(form: BlochForm) -> np.ndarray:
    """Inverse of `bloch_decompose`, written out as (1 + x.s x 1 + 1 x y.s + T_ij s_i x s_j) / 4."""
    eye = np.eye(2)
    rho = np.kron(eye, eye).astype(complex)
    for i, si in enumerate(PAULIS):
        rho = rho + form.x[i] * np.kron(si, eye) + form.y[i] * np.kron(eye, si)
        for j, sj in enumerate(PAULIS):
            rho = rho + form.t_corr[i, j] * np.kron(si, sj)
    return rho / 4.0


class Regime(enum.Enum):
    G_LE_1 = "g_le_1"
    G_GE_1 = "g_ge_1"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class BellDiagonalDiscord:
    ds: float
    regime: Regime
    g: float


def bell_diagonal_discord(a: float, b: complex) -> BellDiagonalDiscord:
    """Analytic geometric discord of the X-pattern state diag(1/2-a, a, a, 1/2-a), coherence b.

    ds = 2|b|^2 in the g <= 1 regime and (1/2 - 2a)^2 + |b|^2 in the
    g >= 1 regime, with g = 2|b| / |1 - 4a|: the oracle of the general
    closed-form bounds on Bell-diagonal states.
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
