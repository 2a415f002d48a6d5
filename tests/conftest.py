import numpy as np
import pytest

from qdspin import DotParameters, TwoQubitState, build_quadrature, compute_channel


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
