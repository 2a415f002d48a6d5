import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm
from scipy.special import roots_hermite, roots_laguerre

import qdspin as q
from qdspin.channel import (
    DEGENERATE_BLOCK_E2,
    MAX_HERMITE_NODES,
    MAX_LAGUERRE_NODES,
    MIN_M_NODES,
    MIN_Q_NODES,
    NEGLIGIBLE_WEIGHT,
    FrequencyFamily,
    QuadratureResolutionError,
    _families,
    _fast_term_cutoff,
    _hermite_rule,
    _laguerre_rule,
    _node_grid,
    _uniform_runs,
)
from qdspin.constants import HBAR_UEV_NS, InvalidParameterError, ValidityWindowError
from qdspin.evolution import build_time_grid

from conftest import channel_of

HBAR = 0.6582119569


# ---------------------------------------------------------------------------
# block amplitudes: the scalar per-block evolution the channel averages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockAmplitudes:
    """Survival amplitudes and flip probability of one 2x2 block."""

    a_amp: complex
    d_amp: complex
    f_prob: float


def block_amplitudes(delta, v_coupling, t_ns, hbar=HBAR, mean_energy=0.0) -> BlockAmplitudes:
    """Exact evolution of the block Hamiltonian delta*sz + V*sx over time t.

    a_amp = <up,m|U|up,m>, d_amp = <down,m+1|U|down,m+1>, f_prob the
    in-block flip probability.  The block mean energy (-alpha/4, identical
    for every block) is dropped by default; pass mean_energy to retain it,
    which changes no bath-averaged observable.
    """
    e2 = delta * delta + v_coupling * v_coupling
    if e2 < DEGENERATE_BLOCK_E2:
        return BlockAmplitudes(1.0 + 0.0j, 1.0 + 0.0j, 0.0)
    e = math.sqrt(e2)
    omega = e / hbar
    cos_t = math.cos(omega * t_ns)
    sin_t = math.sin(omega * t_ns)
    s = delta / e
    a_amp = complex(cos_t, -s * sin_t)
    d_amp = complex(cos_t, +s * sin_t)
    f_prob = (v_coupling * v_coupling / e2) * sin_t * sin_t
    if mean_energy != 0.0:
        phase = complex(math.cos(mean_energy * t_ns / hbar), -math.sin(mean_energy * t_ns / hbar))
        a_amp *= phase
        d_amp *= phase
    return BlockAmplitudes(a_amp, d_amp, f_prob)


def block_oracle(delta, v, t, mean_energy=0.0):
    """Direct 2x2 matrix exponential of the block Hamiltonian."""
    h = np.array([[mean_energy + delta, v], [v, mean_energy - delta]], dtype=complex)
    u = expm(-1j * h * t / HBAR)
    return u[0, 0], u[1, 1], abs(u[1, 0]) ** 2


def test_block_no_coupling():
    amp = block_amplitudes(0.3, 0.0, 5.0)
    assert amp.f_prob == 0.0
    assert abs(amp.a_amp) == pytest.approx(1.0, abs=1e-15)


def test_block_resonant_full_flip():
    # delta = 0 and omega*t = pi/2 transfers everything
    v = 0.2
    t = (np.pi / 2.0) * HBAR / v
    amp = block_amplitudes(0.0, v, t)
    assert amp.f_prob == pytest.approx(1.0, abs=1e-12)
    assert abs(amp.a_amp) == pytest.approx(0.0, abs=1e-12)


def test_block_balanced_case_against_expm():
    # delta = V with omega*t = pi/4: f = 1/4 and |A|^2 = 3/4
    delta = v = 0.37
    omega = np.sqrt(2.0) * delta / HBAR
    t = (np.pi / 4.0) / omega
    amp = block_amplitudes(delta, v, t)
    assert amp.f_prob == pytest.approx(0.25, abs=1e-12)
    assert abs(amp.a_amp) ** 2 == pytest.approx(0.75, abs=1e-12)
    a_ref, d_ref, f_ref = block_oracle(delta, v, t)
    assert amp.a_amp == pytest.approx(a_ref, abs=1e-12)
    assert amp.d_amp == pytest.approx(d_ref, abs=1e-12)
    assert amp.f_prob == pytest.approx(f_ref, abs=1e-12)


def test_block_unitarity(rng):
    for _ in range(200):
        delta, v, t = rng.normal(), abs(rng.normal()), abs(rng.normal()) * 10
        amp = block_amplitudes(delta, v, t)
        assert abs(amp.a_amp) ** 2 + amp.f_prob == pytest.approx(1.0, abs=1e-12)
        assert abs(amp.d_amp) ** 2 + amp.f_prob == pytest.approx(1.0, abs=1e-12)


def test_block_degenerate_becomes_identity():
    amp = block_amplitudes(0.0, 0.0, 7.0)
    assert amp.a_amp == 1.0 and amp.d_amp == 1.0 and amp.f_prob == 0.0


def test_block_mean_phase_cancels_in_observables(rng):
    # the dropped common phase changes neither f nor A * conj(D)
    for _ in range(50):
        delta, v, t = rng.normal(), abs(rng.normal()), abs(rng.normal()) * 5
        plain = block_amplitudes(delta, v, t)
        phased = block_amplitudes(delta, v, t, mean_energy=-0.25 * 5.5e-5)
        assert plain.f_prob == pytest.approx(phased.f_prob, abs=1e-15)
        assert plain.a_amp * np.conj(plain.d_amp) == pytest.approx(
            phased.a_amp * np.conj(phased.d_amp), abs=1e-12
        )


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


RULE_FIELDS = (0.0, 0.0015, 0.011, 0.1, 1.0, 5.0)


def phase_term(dot, t_max):
    # 8 m nodes per 2 pi of the Gauss-Hermite phase range alpha sigma_m t / hbar
    return math.ceil(8 * dot.sigma_m * dot.alpha * t_max / (2 * np.pi * HBAR))


def rule_counts(dot, t_max):
    return q.build_quadrature(dot, t_max).node_counts


def test_node_count_rule_defaults():
    # 32 x 32 on the 20 ns grid at every field; long grids keep the old counts
    times = build_time_grid(20.0)
    for b_field in RULE_FIELDS:
        assert rule_counts(q.DotParameters(b_field=b_field), float(times.max())) == (32, 32)
    dot = q.DotParameters(b_field=0.001)
    assert rule_counts(dot, 2000.0) == (294, 64)
    n_long, n_q = rule_counts(dot, 1.2e4)
    assert n_long == phase_term(dot, 1.2e4) > MIN_M_NODES and n_q == MIN_Q_NODES


@pytest.mark.parametrize("b_field", (0.0, 0.001, 0.1, 1.0, 5.0))
@pytest.mark.parametrize("t_max", (0.0, 5.0, 20.0, 28.0, 30.0, 50.0, 200.0, 2000.0, 1.2e4))
def test_node_count_rule_is_never_above_the_floor_rule_and_covers_its_window(b_field, t_max):
    dot = q.DotParameters(b_field=b_field)
    n_m, n_q = rule_counts(dot, t_max)
    # the rule it replaced: floors of 257 x 64, n_m raised to the phase term
    assert n_m <= max(MIN_M_NODES, phase_term(dot, t_max)) and n_q <= MIN_Q_NODES
    assert n_m >= phase_term(dot, t_max)
    cutoff = q.build_quadrature(dot, t_max).fast_term_cutoff_ns
    # the fast terms are resolved up to t_max, or through their decay where
    # the slow branch takes over
    assert cutoff >= t_max or cutoff >= 5.0 * dot.dephasing_time_ns


@pytest.mark.parametrize("b_field", RULE_FIELDS)
def test_node_count_rule_matches_the_257_by_64_channel(b_field):
    dot = q.DotParameters(b_field=b_field)
    times = build_time_grid(20.0)
    chan = channel_of(dot, times)
    floor = q.compute_channel(q.build_quadrature(dot, 20.0, m_count=257, q_count=64), times)
    assert np.abs(chan.p - floor.p).max() <= 1e-12
    assert np.abs(chan.c - floor.c).max() <= 1e-12


def bath_nodes(dot, counts):
    """((m, weights), (Q, weights)) of the dot on the memo's unit grid of `counts`, scaled as the model scales them."""
    grid = _node_grid(*counts)
    sigma = dot.sigma_m
    return (math.sqrt(2.0) * sigma * grid.x, grid.m_weights), (2.0 * sigma * sigma * grid.y, grid.q_weights)


@pytest.mark.parametrize("b_field,t_max,counts", [(0.1, 20.0, (32, 32)), (0.001, 2000.0, (294, 64)),
                                                  (0.1, 200.0, (257, 64))])
def test_rule_model_reuses_its_candidate_and_keeps_the_bits(b_field, t_max, counts, monkeypatch):
    # the rule's candidate reads its two Gauss rules and selects no kept nodes: a model on its counts
    # (32 x 32 at 20 ns) reads both rules again and takes the candidate's scaled nodes and cutoff, the
    # 294 x 64 model at 2000 ns its 294-node Hermite rule, and the 257 x 64 model at 200 ns neither rule
    # of the 32 x 32 candidate; those two scale their own grid after the candidate's
    dot = q.DotParameters(b_field=b_field)
    explicit = q.build_quadrature(dot, t_max, m_count=counts[0], q_count=counts[1])
    for memo in (_node_grid, _hermite_rule, _laguerre_rule):
        memo.cache_clear()  # every rule and grid the model needs is built below, each once
    cutoffs = []  # the m-node count of each scaled grid
    monkeypatch.setattr(q.channel, "_fast_term_cutoff",
                        lambda *args: cutoffs.append(args[1].size) or _fast_term_cutoff(*args))
    quad = q.build_quadrature(dot, t_max)
    assert cutoffs == {20.0: [32], 2000.0: [294, 294], 200.0: [32, 257]}[t_max]
    assert quad.node_counts == explicit.node_counts == counts
    info = _node_grid.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    rule_calls = [(memo.cache_info().misses, memo.cache_info().hits) for memo in (_hermite_rule, _laguerre_rule)]
    assert rule_calls == {20.0: [(1, 1), (1, 1)], 2000.0: [(1, 1), (2, 0)], 200.0: [(2, 0), (2, 0)]}[t_max]
    for name in ("p", "slow", "fast"):
        for got, want in zip(getattr(quad, name), getattr(explicit, name)):
            assert (got is want is None) or np.array_equal(got, want), name
    assert quad.fast_term_cutoff_ns == explicit.fast_term_cutoff_ns
    # a second model on the same grids builds none of them again
    again = q.build_quadrature(q.DotParameters(b_field=2.0 * b_field), t_max)
    assert again.node_counts == counts
    assert _node_grid.cache_info().misses == info.misses
    assert [memo.cache_info().misses for memo in (_hermite_rule, _laguerre_rule)] == [m for m, _ in rule_calls]


def test_gauss_rules_are_shared_read_only_and_checked_on_every_call():
    grid = _node_grid(32, 64)
    assert _node_grid(32, 64) is grid
    assert all(a is b for a, b in zip((*_hermite_rule(32), *_laguerre_rule(64)), grid))   # the rules' own arrays
    for a in (*grid, *_laguerre_rule(32)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    # the overflow check runs on every model, on a grid the memo already holds
    misses = _node_grid.cache_info().misses
    assert q.build_quadrature(q.DotParameters(), 1.0, 32, 64).node_counts == (32, 64)
    with pytest.raises(q.InvalidParameterError, match="overflows"):
        q.build_quadrature(q.DotParameters(n_nuclei=1e307), 1.0, 32, 64)
    assert _node_grid.cache_info().misses == misses


# scipy's rules are the oracle; the bounds are the worst differences measured (nodes 4.7e-14 Hermite and
# 1.1e-13 Laguerre, normalised weights 7.6e-16 and 1.1e-14 absolute, 1.6e-12 and 1.3e-12 relative), doubled
@pytest.mark.parametrize("rule,oracle,n,node_tol,weight_tol", [
    *[(_hermite_rule, roots_hermite, n, 1e-13, 2e-15) for n in [*range(3, 41), 257, 294, 880, 1759, 1831]],
    *[(_laguerre_rule, roots_laguerre, n, 2.5e-13, 2.5e-14) for n in [*range(3, 41), 64, 128, MAX_LAGUERRE_NODES]],
])
def test_gauss_rules_match_scipy(rule, oracle, n, node_tol, weight_tol):
    x, w = rule(n)
    x_ref, w_ref = oracle(n)
    w_ref = w_ref / w_ref.sum()
    assert x.shape == w.shape == (n,) and np.all(np.diff(x) > 0.0) and np.all(w >= 0.0)
    assert np.abs(x - x_ref).max() <= node_tol
    assert np.abs(w - w_ref).max() <= weight_tol
    normal = w_ref > 1e-300   # subnormal tails carry no relative precision
    assert (np.abs(w - w_ref)[normal] / w_ref[normal]).max() <= 4e-12


def test_hermite_rule_computes_at_its_axis_limit():
    # the most m nodes the node rule can pick; scipy takes its O(n) asymptotic route here
    # (measured: nodes 1.5e-13 off, about 4 ulps of the largest node, weights 9.6e-16)
    x, w = _hermite_rule(MAX_HERMITE_NODES)
    x_ref, w_ref = roots_hermite(MAX_HERMITE_NODES)
    assert np.abs(x - x_ref).max() <= 3e-13
    assert np.abs(w - w_ref / w_ref.sum()).max() <= 2e-15


@pytest.mark.parametrize("counts,refused", [((MAX_HERMITE_NODES + 1, 32), "m_weights of 15626 nodes"),
                                            ((32, MAX_LAGUERRE_NODES + 1), "q_weights of 364 nodes")])
def test_node_grid_refuses_an_axis_past_its_limit_before_any_node_work(counts, refused, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: pytest.fail("a Jacobi matrix was solved"))
    monkeypatch.setattr(q.channel, "_recurrence", lambda *args: pytest.fail("the recurrence ran"))
    with pytest.raises(QuadratureResolutionError, match=refused):
        _node_grid(*counts)


def test_quadrature_weights_normalized(default_dot):
    quad = q.build_quadrature(default_dot, 20.0)
    (_, m_weights), (q_nodes, q_weights) = bath_nodes(default_dot, quad.node_counts)
    assert m_weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert q_weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(q_nodes > 0)


@pytest.mark.parametrize("counts", [(40.7, None), (None, 36.0), (math.nan, 36), (True, 36)],
                         ids=["fraction", "integral-float", "nan", "bool"])
def test_quadrature_refuses_a_count_that_is_not_an_integer(counts, monkeypatch):
    monkeypatch.setattr(q.channel, "_node_grid", lambda *args: pytest.fail("node work before the counts were checked"))
    with pytest.raises(InvalidParameterError, match="_count must be an integer"):
        q.build_quadrature(q.DotParameters(), 20.0, *counts)


def test_quadrature_takes_numpy_integer_counts():
    quad = q.build_quadrature(q.DotParameters(), 20.0, np.int64(40), np.int32(36))
    assert quad.node_counts == (40, 36) and all(type(n) is int for n in quad.node_counts)


def test_quadrature_refuses_nan_t_max(monkeypatch):
    monkeypatch.setattr(q.channel, "_node_grid", lambda *args: pytest.fail("node work before t_max was checked"))
    with pytest.raises(ValidityWindowError, match="t_max must be nonnegative, got nan"):
        q.build_quadrature(q.DotParameters(), math.nan)


def test_quadrature_refuses_beyond_validity(default_dot):
    with pytest.raises(ValidityWindowError):
        q.build_quadrature(default_dot, 2.0e4)


def test_quadrature_refuses_tiny_bath():
    dot = q.DotParameters(n_nuclei=10.0)
    with pytest.raises(ValidityWindowError):
        q.build_quadrature(dot, 5.0)


def test_channel_refuses_times_past_its_model(default_dot):
    quad = q.build_quadrature(default_dot, 10.0)
    with pytest.raises(QuadratureResolutionError, match="sized for t_max=10 ns, requested 20 ns"):
        q.compute_channel(quad, np.linspace(0.0, 20.0, 21))
    for bad in (-1.0, np.nan):
        with pytest.raises(ValidityWindowError, match="times must be nonnegative numbers"):
            q.compute_channel(quad, np.array([0.0, bad, 5.0]))


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def channel_b0(default_dot):
    times = np.linspace(0.0, 20.0, 1001)
    return channel_of(default_dot, times)


def test_channel_identity_at_t0(channel_b0):
    assert channel_b0.p[0] == 0.0
    assert channel_b0.c[0] == pytest.approx(1.0, abs=1e-12)


def test_channel_starts_at_exactly_one(default_dot):
    # the 32 x 32 weights round to a sum of 1 - 2^-53; the exact average is 1
    times = build_time_grid(20.0)
    chan = q.compute_channel(q.build_quadrature(default_dot, 20.0, 32, 32), times)
    assert chan.c[0] == 1.0


@pytest.mark.parametrize("b_field", [0.1, 1.0])
@pytest.mark.parametrize("t_max", [20.0, 2000.0])
def test_channel_starts_exactly_at_identity_in_a_field(b_field, t_max):
    # t = 0 is row 0 of both phase tables and anchor 0 of the slow family's moments, where e^0 = 1
    # exactly and u = 0, so every versine and sine term vanishes
    chan = channel_of(q.DotParameters(b_field=b_field), build_time_grid(t_max))
    assert chan.p[0] == 0.0
    assert chan.c[0] == 1.0


def test_channel_zero_field_identities(channel_b0):
    assert np.abs(channel_b0.c.imag).max() < 1e-6
    assert np.abs(channel_b0.c.real - (1.0 - 2.0 * channel_b0.p)).max() < 1e-3


@pytest.mark.parametrize("b_field", [0.0, -0.0])
@pytest.mark.parametrize("t_max,dt", [(20.0, 0.02), (2000.0, 0.1), (1.2e4, 0.02)])
def test_channel_is_exactly_real_at_zero_field(b_field, t_max, dt):
    # m -> -m pairs the nodes so that their sine terms cancel, and the slow frequency is 0: round-off
    # would leave ~1e-16, and c is set real
    chan = channel_of(q.DotParameters(b_field=b_field), build_time_grid(t_max, dt))
    assert np.all(chan.c.imag == 0.0)


def test_channel_cp_report(channel_b0):
    report = q.verify_channel_cp(channel_b0)
    assert report.worst_margin >= -1e-12
    assert -1e-12 <= report.p_min <= report.p_max <= 1.0 + 1e-12
    bad = q.ChannelTrajectory(
        times=np.array([1.0]), p=np.array([0.3]), c=np.array([0.8 + 0j]), dot=channel_b0.dot
    )
    assert q.verify_channel_cp(bad).worst_margin == pytest.approx(-0.1)


def test_channel_validate_rejects_cp_violation(channel_b0):
    broken = q.ChannelTrajectory(
        times=np.array([0.0, 1.0]),
        p=np.array([0.0, 0.3]),
        c=np.array([1.0 + 0j, 0.9 + 0j]),
        dot=channel_b0.dot,
    )
    report = q.verify_channel_cp(broken)
    assert report.worst_index == 1 and report.worst_time_ns == 1.0
    with pytest.raises(QuadratureResolutionError, match=r"time index 1 \(t=1 ns\)"):
        report.require(QuadratureResolutionError)
    # one bound for every caller: a margin down to -1e-9 and p down to -1e-15 pass, just past either fails
    edge = q.verify_channel_cp(replace(broken, p=np.array([-1e-15, 0.3]), c=np.array([1.0 + 1e-15, 0.7 + 1e-9])))
    assert edge.worst_margin == pytest.approx(-1e-9, rel=1e-7) and edge.p_min == -1e-15
    edge.require(ValueError)
    for p, c, match in (([-1.1e-15, 0.3], [1.0, 0.7], "flip probability"),
                        ([0.0, 0.3], [1.0, 0.7 + 1.1e-9], "complete positivity")):
        past = q.verify_channel_cp(replace(broken, p=np.array(p), c=np.array(c, dtype=complex)))
        with pytest.raises(ValueError, match=match):
            past.require(ValueError)


def test_channel_b_sign_invariance():
    times = np.linspace(0.0, 20.0, 201)
    plus = channel_of(q.DotParameters(b_field=1.0), times)
    minus = channel_of(q.DotParameters(b_field=-1.0), times)
    assert np.abs(plus.p - minus.p).max() < 1e-7
    assert np.abs(np.abs(plus.c) - np.abs(minus.c)).max() < 1e-7


def test_channel_identical_dots_give_identical_channels(default_dot):
    times = np.linspace(0.0, 10.0, 101)
    other = q.DotParameters()
    a = channel_of(default_dot, times)
    b = channel_of(other, times)
    assert np.array_equal(a.p, b.p) and np.array_equal(a.c, b.c)


def test_channel_doubling_convergence(default_dot):
    times = np.linspace(0.0, 20.0, 401)
    base = channel_of(default_dot, times)
    doubled = q.compute_channel(
        q.build_quadrature(default_dot, 20.0, m_count=2 * base.m_count, q_count=2 * base.q_count), times
    )
    assert np.abs(base.p - doubled.p).max() < 1e-6
    assert np.abs(base.c - doubled.c).max() < 1e-6


def test_channel_deterministic(default_dot):
    times = np.linspace(0.0, 20.0, 201)
    a = channel_of(default_dot, times)
    b = channel_of(default_dot, times)
    assert np.array_equal(a.p, b.p) and np.array_equal(a.c, b.c)


def test_channel_monte_carlo_oracle():
    # seeded sampling of the same bath ensemble must agree with quadrature
    dot = q.DotParameters(b_field=0.005)
    rng = np.random.default_rng(42)
    n = 200_000
    sig, alpha, omega_z = dot.sigma_m, dot.alpha, dot.zeeman_energy
    m = rng.normal(0.0, sig, n)
    q_perp = rng.exponential(2.0 * sig * sig, n)
    d_ket = 0.5 * (-omega_z + alpha * (m + 0.5))
    d_bra = 0.5 * (-omega_z + alpha * (m - 0.5))
    v2_ket = np.clip(0.25 * alpha * alpha * (q_perp - m), 0.0, None)
    v2_bra = np.clip(0.25 * alpha * alpha * (q_perp + m), 0.0, None)
    e_ket = np.sqrt(d_ket**2 + v2_ket)
    e_bra = np.sqrt(d_bra**2 + v2_bra)
    s_ket, s_bra = d_ket / e_ket, d_bra / e_bra
    v_frac = v2_ket / e_ket**2

    times = np.array([2.0, 8.0, 14.0])
    chan = channel_of(dot, times)
    for i, t in enumerate(times):
        th_k, th_b = e_ket * t / HBAR, e_bra * t / HBAR
        p_mc = float(np.mean(v_frac * np.sin(th_k) ** 2))
        c_mc = complex(
            np.mean(
                (np.cos(th_k) - 1j * s_ket * np.sin(th_k))
                * (np.cos(th_b) - 1j * s_bra * np.sin(th_b))
            )
        )
        assert chan.p[i] == pytest.approx(p_mc, abs=5e-3)
        assert chan.c[i] == pytest.approx(c_mc, abs=5e-3)


def quasi_static_channel(dot, times):
    """Zero-field frozen-Overhauser-field limit (Merkulov, Efros & Rosen, PRB 65, 205309).

    A spin precessing in a static Gaussian field of per-component spread
    alpha*sigma_m keeps c = 1/3 + (2/3)(1 - s^2) exp(-s^2/2), s = alpha
    sigma_m t / hbar, and flips with p = (1 - c)/2.  It shares nothing with
    the node tables; the box model tends to it for large N.
    """
    s2 = (dot.alpha * dot.sigma_m * times / HBAR_UEV_NS) ** 2
    c = 1.0 / 3.0 + (2.0 / 3.0) * (1.0 - s2) * np.exp(-0.5 * s2)
    return 0.5 * (1.0 - c), c


def test_channel_matches_the_quasi_static_limit_at_zero_field():
    times = build_time_grid(20.0)
    gaps = {}
    for n_nuclei in (1.5e5, 1.5e6):
        dot = q.DotParameters(n_nuclei=n_nuclei)
        chan = channel_of(dot, times)
        p_qs, c_qs = quasi_static_channel(dot, times)
        gaps[n_nuclei] = float(np.abs(chan.c - c_qs).max()), float(np.abs(chan.p - p_qs).max())
        assert np.abs(chan.c.imag).max() <= 1e-14
    assert gaps[1.5e6][0] <= 1e-7 and gaps[1.5e6][1] <= 5e-8
    assert gaps[1.5e5][0] <= 1.2e-6
    # the gap is the finite-N correction, not a quadrature floor: it shrinks with N
    assert gaps[1.5e5][0] > 5.0 * gaps[1.5e6][0]


def quasi_static_average(dot, times):
    """Frozen-Overhauser-field average at any field, by adaptive integration.

    The electron precesses about b = (b_perp, alpha m - Omega) for the whole
    run: m is Gaussian with spread sigma_m, |b_perp|^2 / alpha^2 = Q is
    exponential with mean 2 sigma_m^2.  With n_z = b_z / |b| and half-angle
    theta = |b| t / (2 hbar), p = E[(1 - n_z^2) sin^2 theta] and
    c = E[(cos theta - i n_z sin theta)^2].  Nested `quad_vec` over
    z = m / sigma_m and u = Q / (2 sigma_m^2); no Gauss rule is involved.
    """
    spread = dot.alpha * dot.sigma_m
    hbar = HBAR_UEV_NS

    def over_u(z):
        b_z = spread * z - dot.zeeman_energy

        def integrand(u):
            b_perp2 = 2.0 * spread * spread * u
            b = math.sqrt(b_perp2 + b_z * b_z)
            theta = 0.5 * b * times / hbar
            amp = np.cos(theta) - 1j * (b_z / b) * np.sin(theta)
            flip = (b_perp2 / (b * b)) * np.sin(theta) ** 2
            return math.exp(-u) * np.concatenate([flip, (amp * amp).real, (amp * amp).imag])

        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * quad_vec(
            integrand, 0.0, 45.0, epsabs=1e-14, epsrel=0.0)[0]

    avg = quad_vec(over_u, -9.0, 9.0, epsabs=1e-14, epsrel=0.0, points=(0.0,))[0]
    n = times.size
    return avg[:n], avg[n : 2 * n] + 1j * avg[2 * n :]


def test_quasi_static_average_reproduces_the_zero_field_closed_form():
    dot = q.DotParameters()
    times = build_time_grid(20.0)[::50]
    p_avg, c_avg = quasi_static_average(dot, times)
    p_qs, c_qs = quasi_static_channel(dot, times)
    # measured 1.1e-16 on p and 4.4e-16 on c
    assert np.abs(p_avg - p_qs).max() <= 2e-15 and np.abs(c_avg - c_qs).max() <= 2e-15


# gaps to the quasi-static limit on the 20 ns grid (every 50th time) at
# N = 1.5e6, measured with 32 x 32, 257 x 64 and 514 x 128 nodes alike
# (same three digits): p 1.43e-8, 4.38e-11, 4.02e-13 and c 3.97e-8,
# 3.08e-10, 3.36e-12; at N = 1.5e5 they are 93-1036 times larger.
@pytest.mark.parametrize(
    "b_field, p_bound, c_bound",
    [(0.011, 3e-8, 8e-8), (0.1, 1e-10, 7e-10), (1.0, 1e-12, 7e-12)],
    ids=["11mT", "0.1T", "1T"],
)
def test_channel_matches_the_quasi_static_limit_at_finite_field(b_field, p_bound, c_bound):
    times = build_time_grid(20.0)
    gaps = {}
    for n_nuclei in (1.5e5, 1.5e6):
        dot = q.DotParameters(b_field=b_field, n_nuclei=n_nuclei)
        chan = channel_of(dot, times)
        p_qs, c_qs = quasi_static_average(dot, times[::50])
        gaps[n_nuclei] = (float(np.abs(chan.p[::50] - p_qs).max()),
                          float(np.abs(chan.c[::50] - c_qs).max()))
    assert gaps[1.5e6][0] <= p_bound and gaps[1.5e6][1] <= c_bound
    # the gap is the finite-N correction, not a quadrature floor: it shrinks with N
    assert gaps[1.5e5][0] > 50.0 * gaps[1.5e6][0]
    assert gaps[1.5e5][1] > 50.0 * gaps[1.5e6][1]


def test_channel_csv_export(tmp_path, channel_b0):
    path = tmp_path / "chan.csv"
    channel_b0.to_csv(path, header_lines=["demo=1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo=1"
    assert lines[1] == "t_ns,p,c_re,c_im"
    assert len(lines) == 2 + channel_b0.times.size
    first = lines[2].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


# ---------------------------------------------------------------------------
# factored phase sum against the direct per-time sum
# ---------------------------------------------------------------------------


def direct_channel(dot, times, quad):
    """Reference channel: four trig calls per node and time, summed per time.

    The block data are transcribed here from the nodes and weights of the
    model's grid, taken from the node producer, as in the Monte-Carlo
    oracle; of the model's evaluation data only the fast-term cutoff is read.
    """
    hbar, alpha, omega_z = HBAR_UEV_NS, dot.alpha, dot.zeeman_energy
    (m_nodes, m_weights), (q_nodes, q_weights) = bath_nodes(dot, quad.node_counts)
    m, q_perp = m_nodes[:, None], q_nodes[None, :]
    w2d = m_weights[:, None] * q_weights[None, :]
    d_ket = 0.5 * (-omega_z + alpha * (m + 0.5))
    d_bra = 0.5 * (-omega_z + alpha * (m - 0.5))
    v2_ket = np.clip(0.25 * alpha * alpha * (q_perp - m), 0.0, None)
    v2_bra = np.clip(0.25 * alpha * alpha * (q_perp + m), 0.0, None)
    e_ket = np.sqrt(d_ket**2 + v2_ket)
    e_bra = np.sqrt(d_bra**2 + v2_bra)
    s_ket, s_bra = d_ket / e_ket, d_bra / e_bra
    v_frac = v2_ket / e_ket**2
    w_ket, w_bra = e_ket / hbar, e_bra / hbar
    p = np.empty(times.size)
    c = np.empty(times.size, dtype=complex)
    for i, t in enumerate(times):
        if t <= quad.fast_term_cutoff_ns:
            cos_k, sin_k = np.cos(w_ket * t), np.sin(w_ket * t)
            cos_b, sin_b = np.cos(w_bra * t), np.sin(w_bra * t)
            re = cos_k * cos_b - s_ket * s_bra * sin_k * sin_b
            im = -(s_ket * sin_k * cos_b + s_bra * cos_k * sin_b)
            p[i] = np.sum(w2d * v_frac * sin_k * sin_k)
        else:
            # a*conj(d') keeps only its slow e^{-i(w - w')t} terms
            re = 0.5 * (1.0 - s_ket * s_bra) * np.cos((w_ket - w_bra) * t)
            im = 0.5 * (s_bra - s_ket) * np.sin((w_ket - w_bra) * t)
            p[i] = np.sum(w2d * 0.5 * v_frac)
        c[i] = np.sum(w2d * (re + 1j * im))
    return p, c


@pytest.mark.parametrize(
    "b_field, times",
    [
        (0.0, build_time_grid(20.0)),
        (0.011, build_time_grid(20.0)),
        (1.0, build_time_grid(20.0)),
        (0.001, build_time_grid(200.0)),   # dense prefix + coarse tail across the cutoff
        (0.001, build_time_grid(2000.0)[::25]),   # 294 x 64 nodes, most of them light; slow branch
        (0.05, np.array([0.0, 0.3, 0.31, 1.7, 2.2, 2.7, 3.2, 9.9, 4.0, 15.25])),
        (0.2, np.array([7.3])),
        (0.0, build_time_grid(1.2e4)),     # the longest doubling chains; compared at sampled times
        (1.0, build_time_grid(1.2e4)),
        (0.02, build_time_grid(1.2e4)),    # the widest slow-phase spread, 16 rad: the most Taylor anchors
        (0.003, build_time_grid(6000.0)),
        # a kink-refinement batch: brackets of 32 sections out of time order, t = 0 last
        (0.003, np.concatenate([t0 + 0.0125 * np.arange(32) for t0 in (3100.0, 41.5, 5990.0, 870.25, 12.0, 0.0)])),
    ],
    ids=["20ns-0T", "20ns-11mT", "20ns-1T", "200ns-1mT", "2000ns-1mT", "nonuniform", "single",
         "12000ns-0T", "12000ns-1T", "12000ns-20mT", "6000ns-3mT", "kink-batch"],
)
def test_channel_matches_direct_sum(b_field, times):
    dot = q.DotParameters(b_field=b_field)
    quad = q.build_quadrature(dot, float(times.max()))
    chan = q.compute_channel(quad, times)
    zero = times == 0.0
    assert np.all(chan.p[zero] == 0.0) and np.all(chan.c[zero] == 1.0)
    if times.max() > 100.0:
        assert times.min() < chan.fast_term_cutoff_ns < times.max()
    sample = np.arange(times.size)
    if times.size > 5000:
        # the first and last time of every uniform run of either branch, where
        # the phase tables' doubling chains start and end, and times in between
        ends = []
        for branch in (np.flatnonzero(times <= chan.fast_term_cutoff_ns),
                       np.flatnonzero(times > chan.fast_term_cutoff_ns)):
            ends += [branch[[start, stop - 1]] for start, stop, _ in _uniform_runs(times[branch])]
        sample = np.unique(np.concatenate([*ends, np.linspace(0, times.size - 1, 21).astype(int)]))
        assert len(ends) == 3 and sample.size >= 24
    p_ref, c_ref = direct_channel(dot, times[sample], quad)
    assert np.abs(chan.p[sample] - p_ref).max() <= 1e-13
    assert np.abs(chan.c[sample] - c_ref).max() <= 1e-13


@pytest.mark.parametrize("t_max", (20.0, 2000.0, 1.2e4))
def test_light_nodes_leave_the_families(t_max):
    dot = q.DotParameters(b_field=0.001)
    quad = q.build_quadrature(dot, t_max)
    (m_nodes, m_weights), (q_nodes, q_weights) = bath_nodes(dot, quad.node_counts)
    # the families of every node of the grid, as one flat list in raveled (m, q) order
    w2d = np.outer(m_weights, q_weights).ravel()
    full = dict(zip(("p", "slow", "fast"),
                    _families(dot, np.repeat(m_nodes, q_nodes.size), np.tile(q_nodes, m_nodes.size), w2d)))
    light = np.argsort(w2d, kind="stable")
    n_light = w2d.size - quad.p.freq.size
    assert w2d[light[:n_light]].sum() <= NEGLIGIBLE_WEIGHT
    # dropping the next-lightest node too would pass the bound
    assert w2d[light[: n_light + 1]].sum() > NEGLIGIBLE_WEIGHT
    keep = np.sort(light[n_light:])
    assert full["p"].freq.size == w2d.size and full["p"].sin is quad.p.sin is None
    for name in ("p", "slow", "fast"):
        for field, got, every in zip(FrequencyFamily._fields, getattr(quad, name), full[name]):
            assert every is None or (every.size == w2d.size and np.array_equal(got, every[keep])), (name, field)
    # the kept set is selected once per count pair, and shared read-only
    grid = _node_grid(*quad.node_counts)
    assert _node_grid(*quad.node_counts) is grid
    assert np.array_equal(grid.kept_m * q_nodes.size + grid.kept_q, keep)
    assert np.array_equal(grid.kept_weight, w2d[keep])
    with pytest.raises(ValueError, match="read-only"):
        grid.kept_weight[0] = 0.0
    assert quad.fast_term_cutoff_ns == _fast_term_cutoff(dot, m_nodes, m_weights, q_nodes, q_weights)
    if t_max > 1000.0:
        assert 5 * quad.p.freq.size < w2d.size


def test_channel_single_time_matches_grid():
    # runs, anchors and node blocks differ between the two calls
    dot = q.DotParameters(b_field=0.001)
    times = build_time_grid(200.0)
    quad = q.build_quadrature(dot, 200.0)
    grid = q.compute_channel(quad, times)
    for i in (1, 777, 2501, 2510, times.size - 1):  # dense, coarse fast, slow
        alone = q.compute_channel(quad, times[i : i + 1])
        assert abs(alone.p[0] - grid.p[i]) <= 1e-13
        assert abs(alone.c[0] - grid.c[i]) <= 1e-13
