"""The bath average against the exact finite-N sum over total bath spin j.

The uniform-coupling model conserves the total bath spin j and its
projection m, so for nuclear spin I = 1/2 the channel of N nuclei is an
exact phase sum over the states (j, m): each weighs
C(N, N/2 - j)(2j+1)/(N/2 + j + 1)/2^N, and its transverse invariant is
Q = j(j+1) - m^2 (Melikidze, Dobrovitski, De Raedt, Katsnelson & Harmon,
PRB 70, 014435 (2004)).  These nodes share none with the Gauss quadrature
of the large-N model, but go through the same `channel._families` (the p,
slow and fast families) and `compute_channel`, so the sum has no cutoff
and no Gaussian statistics.
The model's gap to it before the fast-term cutoff is its 1/N error.
A = sqrt(8N) hbar / T2* keeps the dephasing time at T2* = 12.3 ns.

The node list itself is checked against brute force at N = 4 and 6: the
Schrodinger evolution of one electron and N nuclear spins 1/2 under
H = -Omega S_z + alpha S . sum_k I_k in the full 2^(N+1) space, with the
bath at infinite temperature.  That checks what the shared `_families`
cannot check against itself: the mapping from the spin Hamiltonian to the
(m, Q) blocks, with the sign of Omega, the bra block at m - 1, Q -+ m and
the (j, m) weights.
"""
import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.special import gammaln

import qdspin as q
from qdspin.channel import NEGLIGIBLE_WEIGHT, BathQuadrature, _families
from qdspin.constants import HBAR_UEV_NS
from qdspin.evolution import build_time_grid

T2STAR_NS = 12.3
TIMES = build_time_grid(100.0, dt=0.05)
FIELDS = (0.0, 0.003, 0.1)

# sup|p - p_exact| and sup|c - c_exact| before the model's fast-term cutoff
# (73.2 ns at 0 and 3 mT, past 100 ns at 0.1 T), measured at N = 4000 and
# 16 000: (4.61e-5, 6.72e-5) -> (1.04e-5, 2.07e-5) at 0 mT, (2.83e-4, 1.03e-4)
# -> (6.52e-5, 2.15e-5) at 3 mT and (7.5e-8, 4.51e-5) -> (1.0e-8, 1.13e-5) at 0.1 T
FAST_SIDE_BOUNDS = {
    (4000, 0.0): (5e-5, 7.5e-5), (4000, 0.003): (3.1e-4, 1.15e-4), (4000, 0.1): (1e-7, 5e-5),
    (16000, 0.0): (1.15e-5, 2.3e-5), (16000, 0.003): (7.2e-5, 2.4e-5), (16000, 0.1): (1.2e-8, 1.25e-5),
}


def dot_of(n_nuclei, b_field):
    return q.DotParameters(a_total=math.sqrt(8.0 * n_nuclei) * HBAR_UEV_NS / T2STAR_NS,
                           n_nuclei=n_nuclei, i_nuclear=0.5, b_field=b_field)


def exact_nodes(n_nuclei):
    """Flat node list (m, Q, weight) of the states (j, m) of N spins 1/2.

    The weights are taken in logs and renormalised (their lgamma sum misses
    1 by 2.7e-12 at N = 4000); the largest-j shells leave the list while
    their weights sum to at most NEGLIGIBLE_WEIGHT, as the model's light
    nodes do.
    """
    half = n_nuclei // 2
    j = np.arange(half + 1)
    log_w = (gammaln(n_nuclei + 1.0) - gammaln(half - j + 1.0) - gammaln(half + j + 1.0)
             + np.log(2.0 * j + 1.0) - np.log(half + j + 1.0) - n_nuclei * math.log(2.0))
    shell_tail = np.cumsum(((2 * j + 1) * np.exp(log_w))[::-1])[::-1]   # mass of the shells from j up
    j = j[shell_tail > NEGLIGIBLE_WEIGHT]
    j_node = np.repeat(j, 2 * j + 1)
    m = np.concatenate([np.arange(-x, x + 1) for x in j]).astype(float)
    w = np.exp(log_w[j_node])
    return m, j_node * (j_node + 1.0) - m * m, w / w.sum()


@functools.cache
def channels(n_nuclei, b_field):
    """(exact, model) channels of the dot on TIMES; the exact one without its large model."""
    dot = dot_of(n_nuclei, b_field)
    m, q_inv, w = exact_nodes(n_nuclei)
    exact = BathQuadrature(dot, (w.size, 1), float(TIMES[-1]), *_families(dot, m, q_inv, w), math.inf)
    exact_channel = dataclasses.replace(q.compute_channel(exact, TIMES), model=None)
    return exact_channel, q.compute_channel(q.build_quadrature(dot, float(TIMES[-1])), TIMES)


def fast_side_gaps(n_nuclei, b_field):
    exact, model = channels(n_nuclei, b_field)
    fast = TIMES <= model.fast_term_cutoff_ns
    return float(np.abs(model.p - exact.p)[fast].max()), float(np.abs(model.c - exact.c)[fast].max())


def test_exact_weights_sum_to_one_and_the_list_is_exact_at_zero_time():
    m, q_inv, w = exact_nodes(4000)
    assert m.size == 310 * 310 and w.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(q_inv >= np.abs(m))   # the end states m = -j, j have 1x1 blocks: v2 = 0
    p, slow, fast = _families(dot_of(4000, 0.003), m, q_inv, w)
    assert p.freq.size == slow.freq.size == fast.freq.size == w.size and p.sin is None
    # a state's slow and fast versine amplitudes split its weight
    assert np.all(np.abs(slow.vers + fast.vers - w) <= 4.0 * np.finfo(float).eps * w)
    exact, _ = channels(4000, 0.0)
    assert exact.p[0] == 0.0 and exact.c[0] == 1.0


@pytest.mark.parametrize("n_nuclei", (4000, 16000))
@pytest.mark.parametrize("b_field", FIELDS)
def test_model_matches_the_exact_bath_before_the_cutoff(n_nuclei, b_field):
    dp, dc = fast_side_gaps(n_nuclei, b_field)
    p_bound, c_bound = FAST_SIDE_BOUNDS[n_nuclei, b_field]
    assert dp <= p_bound and dc <= c_bound, (dp, dc)


@pytest.mark.parametrize("b_field", FIELDS)
def test_model_gap_to_the_exact_bath_falls_as_one_over_n(b_field):
    # a 1/N error falls 4x from N = 4000 to 16 000
    (dp_4k, dc_4k), (dp_16k, dc_16k) = fast_side_gaps(4000, b_field), fast_side_gaps(16000, b_field)
    assert dp_4k >= 3.0 * dp_16k and dc_4k >= 3.0 * dc_16k, (dp_4k, dp_16k, dc_4k, dc_16k)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: past the 73.2 ns fast-term cutoff the model's long-time level misses the "
    "exact sum at 0 mT by sup|dp| = 2.06e-4 at N = 4000 and 1.95e-4 at N = 16 000, where the fast side "
    "is within 4.61e-5 and 1.04e-5: the slow branch's level does not converge to the bath average.",
)
@pytest.mark.parametrize("n_nuclei", (4000, 16000))
def test_model_level_past_the_cutoff_matches_the_exact_bath(n_nuclei):
    exact, model = channels(n_nuclei, 0.0)
    slow = TIMES > model.fast_term_cutoff_ns
    if not slow.any():   # not an AssertionError: the xfail must not hide a grid without a slow branch
        pytest.fail(f"no time past the {model.fast_term_cutoff_ns:.1f} ns cutoff")
    dp = float(np.abs(model.p - exact.p)[slow].max())
    assert dp <= FAST_SIDE_BOUNDS[n_nuclei, 0.0][0], dp


def brute_force_channel(dot, n_nuclei, times):
    """(p, c) of `dot` with N nuclear spins 1/2, from one eigendecomposition of the full Hamiltonian.

    The electron is the first tensor factor (up first).  With U's electron
    blocks U_ss' (bath operators) and the bath at 1/2^N, the flip
    probability from up is Tr(U_du U_du^+) / 2^N and the lab-frame
    coherence multiplier rho_ud(t) / rho_ud(0) is Tr(U_uu U_dd^+) / 2^N.
    """
    half_paulis = (np.array([[0.0, 1.0], [1.0, 0.0]]) / 2, np.array([[0.0, -1j], [1j, 0.0]]) / 2,
                   np.array([[1.0, 0.0], [0.0, -1.0]]) / 2)
    n_spins = n_nuclei + 1
    spins = [[np.kron(np.kron(np.eye(2**k), s), np.eye(2 ** (n_spins - k - 1))) for s in half_paulis]
             for k in range(n_spins)]
    electron, nuclei = spins[0], spins[1:]
    h = -dot.zeeman_energy * electron[2] + dot.alpha * sum(e @ nucleus[a] for nucleus in nuclei
                                                            for a, e in enumerate(electron))
    energy, vec = np.linalg.eigh(h)
    bath = 2**n_nuclei
    p, c = np.empty(times.size), np.empty(times.size, dtype=complex)
    for i, t in enumerate(times):
        u = (vec * np.exp(-1j * energy * t / HBAR_UEV_NS)) @ vec.conj().T
        p[i] = np.sum(np.abs(u[bath:, :bath]) ** 2) / bath
        c[i] = np.sum(u[:bath, :bath] * u[bath:, bath:].conj()) / bath
    return p, c


@pytest.mark.parametrize("n_nuclei", (4, 6))
@pytest.mark.parametrize("b_field", FIELDS)
def test_exact_node_list_matches_the_many_spin_schrodinger_evolution(n_nuclei, b_field):
    # measured: sup|dp| <= 3.4e-16 and sup|dc| <= 1.8e-14 over these six cases
    times = np.linspace(0.0, 40.0, 81)
    dot = dot_of(n_nuclei, b_field)
    m, q_inv, w = exact_nodes(n_nuclei)
    exact = q.compute_channel(BathQuadrature(dot, (w.size, 1), 40.0, *_families(dot, m, q_inv, w), math.inf), times)
    p, c = brute_force_channel(dot, n_nuclei, times)
    assert np.abs(exact.p - p).max() <= 2e-15
    assert np.abs(exact.c - c).max() <= 1e-13
    if b_field:   # the sign convention: in a field the conjugate coherence is far off
        assert np.abs(exact.c - c.conj()).max() > 0.5
