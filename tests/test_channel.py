import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import expm

import qdspin as q
from qdspin.channel import (
    CP_MARGIN_HARD,
    DEGENERATE_BLOCK_E2,
    QuadratureResolutionError,
    _node_tables,
    node_count_rule,
)
from qdspin.constants import ValidityWindowError
from qdspin.evolution import build_time_grid

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


def test_node_count_rule_defaults(default_dot):
    assert node_count_rule(default_dot, 20.0) == (257, 64)
    n_long, _ = node_count_rule(default_dot, 1.2e4)
    assert n_long > 257 and n_long == pytest.approx(
        8 * default_dot.sigma_m * default_dot.alpha * 1.2e4 / (2 * np.pi * HBAR), abs=1.0
    )


def test_quadrature_weights_normalized(default_dot):
    quad = q.build_quadrature(default_dot, 20.0)
    assert quad.m_weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert quad.q_weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(quad.q_nodes > 0)


def test_quadrature_refuses_beyond_validity(default_dot):
    with pytest.raises(ValidityWindowError):
        q.build_quadrature(default_dot, 2.0e4)


def test_quadrature_refuses_tiny_bath():
    dot = q.DotParameters(n_nuclei=10.0)
    with pytest.raises(ValidityWindowError):
        q.build_quadrature(dot, 5.0)


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def channel_b0(default_dot):
    times = np.linspace(0.0, 20.0, 1001)
    return q.compute_channel(default_dot, times)


def test_channel_identity_at_t0(channel_b0):
    assert channel_b0.p[0] == 0.0
    assert channel_b0.c[0] == pytest.approx(1.0, abs=1e-12)


def test_channel_zero_field_identities(channel_b0):
    assert np.abs(channel_b0.c.imag).max() < 1e-6
    assert np.abs(channel_b0.c.real - (1.0 - 2.0 * channel_b0.p)).max() < 1e-3


def test_channel_cp_report(channel_b0):
    report = q.verify_channel_cp(channel_b0)
    assert report.ok
    assert report.worst_margin > -1e-9
    bad = q.ChannelTrajectory(
        times=np.array([1.0]), p=np.array([0.3]), c=np.array([0.8 + 0j]), dot=channel_b0.dot
    )
    bad_report = q.verify_channel_cp(bad)
    assert not bad_report.ok and bad_report.worst_margin == pytest.approx(-0.1)


def test_channel_validate_rejects_cp_violation(channel_b0):
    broken = q.ChannelTrajectory(
        times=np.array([0.0, 1.0]),
        p=np.array([0.0, 0.3]),
        c=np.array([1.0 + 0j, 0.9 + 0j]),
        dot=channel_b0.dot,
    )
    report = q.verify_channel_cp(broken)
    assert not report.ok and report.worst_index == 1 and report.worst_time_ns == 1.0
    with pytest.raises(QuadratureResolutionError, match=r"time index 1 \(t=1 ns\)"):
        report.require(CP_MARGIN_HARD, 1e-12, QuadratureResolutionError)


def test_channel_b_sign_invariance():
    times = np.linspace(0.0, 20.0, 201)
    plus = q.compute_channel(q.DotParameters(b_field=1.0), times)
    minus = q.compute_channel(q.DotParameters(b_field=-1.0), times)
    assert np.abs(plus.p - minus.p).max() < 1e-7
    assert np.abs(np.abs(plus.c) - np.abs(minus.c)).max() < 1e-7


def test_channel_identical_dots_give_identical_channels(default_dot):
    times = np.linspace(0.0, 10.0, 101)
    other = q.DotParameters()
    a = q.compute_channel(default_dot, times)
    b = q.compute_channel(other, times)
    assert np.array_equal(a.p, b.p) and np.array_equal(a.c, b.c)


def test_channel_doubling_convergence(default_dot):
    times = np.linspace(0.0, 20.0, 401)
    base = q.compute_channel(default_dot, times)
    doubled = q.compute_channel(
        default_dot, times, q.build_quadrature(default_dot, 20.0, m_count=514, q_count=128)
    )
    assert np.abs(base.p - doubled.p).max() < 1e-6
    assert np.abs(base.c - doubled.c).max() < 1e-6


def test_channel_deterministic(default_dot):
    times = np.linspace(0.0, 20.0, 201)
    a = q.compute_channel(default_dot, times)
    b = q.compute_channel(default_dot, times)
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
    chan = q.compute_channel(dot, times)
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
    """Reference channel: four trig calls per node and time, summed per time."""
    w2d, s_ket, s_bra, v_frac, w_ket, w_bra, w_diff, t_fast_ok = _node_tables(dot, quad)
    cutoff = 0.8 * t_fast_ok
    p = np.empty(times.size)
    c = np.empty(times.size, dtype=complex)
    for i, t in enumerate(times):
        if t <= cutoff:
            cos_k, sin_k = np.cos(w_ket * t), np.sin(w_ket * t)
            cos_b, sin_b = np.cos(w_bra * t), np.sin(w_bra * t)
            re = cos_k * cos_b - s_ket * s_bra * sin_k * sin_b
            im = -(s_ket * sin_k * cos_b + s_bra * cos_k * sin_b)
            p[i] = np.sum(w2d * v_frac * sin_k * sin_k)
        else:
            re = 0.5 * (1.0 - s_ket * s_bra) * np.cos(w_diff * t)
            im = 0.5 * (s_bra - s_ket) * np.sin(w_diff * t)
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
        (0.05, np.array([0.0, 0.3, 0.31, 1.7, 2.2, 2.7, 3.2, 9.9, 4.0, 15.25])),
        (0.2, np.array([7.3])),
    ],
    ids=["20ns-0T", "20ns-11mT", "20ns-1T", "200ns-1mT", "nonuniform", "single"],
)
def test_channel_matches_direct_sum(b_field, times):
    dot = q.DotParameters(b_field=b_field)
    quad = q.build_quadrature(dot, float(times.max()))
    chan = q.compute_channel(dot, times, quad)
    p_ref, c_ref = direct_channel(dot, times, quad)
    if times.max() > 100.0:
        assert times.min() < chan.fast_term_cutoff_ns < times.max()
    assert np.abs(chan.p - p_ref).max() <= 1e-13
    assert np.abs(chan.c - c_ref).max() <= 1e-13


def test_channel_single_time_matches_grid():
    # runs, anchors and node blocks differ between the two calls
    dot = q.DotParameters(b_field=0.001)
    times = build_time_grid(200.0)
    quad = q.build_quadrature(dot, 200.0)
    grid = q.compute_channel(dot, times, quad)
    for i in (1, 777, 2501, 2510, times.size - 1):  # dense, coarse fast, slow
        alone = q.compute_channel(dot, times[i : i + 1], quad)
        assert abs(alone.p[0] - grid.p[i]) <= 1e-13
        assert abs(alone.c[0] - grid.c[i]) <= 1e-13
