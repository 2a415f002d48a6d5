from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdspin as q
from qdspin import evolution, measures
from qdspin.channel import CP_MARGIN_TOL, P_RANGE_TOL
from qdspin.constants import HBAR_UEV_NS, InvalidParameterError
from qdspin.evolution import (
    ChannelError,
    MAX_GRID_POINTS,
    KINK_T_TOL,
    ExtremumKind,
    build_time_grid,
    find_extrema,
    find_g_crossings,
)
from qdspin.magnetometry import trajectory_for_field
from qdspin.states import HERMITICITY_TOL, PSD_TOL_CONSTRUCTION, TRACE_TOL

from conftest import bell_diagonal_discord, channel_of, k_eigh_oracle, random_density


# ---------------------------------------------------------------------------
# the product channel, one (p, c) step
# ---------------------------------------------------------------------------


def choi_kraus(p, c):
    choi = np.array(
        [[1 - p, 0, 0, c], [0, p, 0, 0], [0, 0, p, 0], [np.conj(c), 0, 0, 1 - p]], dtype=complex
    )
    w, v = np.linalg.eigh(choi)
    return [np.sqrt(wk) * v[:, k].reshape(2, 2) for k, wk in enumerate(w) if wk > 1e-14]


def superop_oracle(rho, p, c):
    out = np.zeros((4, 4), dtype=complex)
    for ka in choi_kraus(p, c):
        for kb in choi_kraus(p, c):
            big = np.kron(ka, kb)
            out += big @ rho @ big.conj().T
    return out


def one_step(state0, p, c):
    """`evolve` on a one-time channel at t = 0, where the Zeeman factor is exactly 1.

    Returns the evolved matrix of the trajectory's stack and the trajectory.
    """
    chan = q.ChannelTrajectory(times=np.zeros(1), p=np.array([p], dtype=float),
                               c=np.array([c], dtype=complex), dot=q.DotParameters(b_field=0.1))
    traj = q.evolve(state0, chan)
    return traj.rho[0], traj


def random_cp_pair(rng):
    p = rng.uniform(0.0, 1.0)
    return p, (1.0 - p) * rng.uniform() * np.exp(1j * rng.uniform(0, 2 * np.pi))


def test_one_step_identity():
    state = q.make_state(q.PhaseFamily(0.7))
    rho, _ = one_step(state, 0.0, 1.0)
    assert np.abs(rho - state.rho).max() < 1e-15


def test_one_step_full_depolarization():
    for spec in (q.Bell("psi-"), q.PhaseFamily(1.1), q.Werner(0.7)):
        rho, _ = one_step(q.make_state(spec), 0.5, 0.0)
        assert np.abs(rho - np.eye(4) / 4.0).max() < 1e-14


def test_one_step_matches_superoperator_oracle(rng):
    for _ in range(100):
        p, c = random_cp_pair(rng)
        state = random_density(rng)
        rho, _ = one_step(state, p, c)
        assert np.abs(rho - superop_oracle(state.rho, p, c)).max() < 1e-12


def test_one_step_preserves_physicality(rng):
    for _ in range(300):
        p, c = random_cp_pair(rng)
        rho, traj = one_step(random_density(rng), p, c)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert traj.min_eigenvalue[0] > -1e-12


def test_one_step_singlet_composition(rng):
    # hand-composed product channel on the singlet: a = (1-2p+2p^2)/2, b = -|c|^2/2
    for _ in range(50):
        p, c = random_cp_pair(rng)
        _, traj = one_step(q.make_state(q.Bell("psi-")), p, c)
        a, b = traj.bell_a[0], traj.bell_b[0]
        assert not np.isnan(a)
        assert a == pytest.approx(0.5 * (1 - 2 * p + 2 * p * p), abs=1e-12)
        assert b == pytest.approx(-0.5 * abs(c) ** 2, abs=1e-12)


def test_one_step_rejects_cp_violation():
    with pytest.raises(ChannelError):
        one_step(q.make_state(q.Bell("psi-")), 0.3, 0.9)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bell_traj_11mt():
    dot = q.DotParameters(b_field=0.011)
    chan = channel_of(dot, build_time_grid(20.0))
    return q.evolve(q.make_state(q.Bell("psi-")), chan)


def test_evolve_preserves_bell_diagonal_form(bell_traj_11mt):
    assert not np.any(np.isnan(bell_traj_11mt.bell_a))
    assert np.all(bell_traj_11mt.bell_a <= 0.5 + 1e-12)


def test_evolve_g_matches_channel_prediction(bell_traj_11mt):
    tr = bell_traj_11mt
    predicted = np.abs(tr.c) ** 2 / (1.0 - 2.0 * tr.p) ** 2
    assert np.abs(tr.g - predicted).max() < 1e-10


def test_evolve_bell_diagonal_discord_consistency(bell_traj_11mt):
    tr = bell_traj_11mt
    for k in range(0, tr.times.size, 97):
        ds = bell_diagonal_discord(tr.bell_a[k], tr.bell_b[k]).ds
        assert tr.ds_lower[k] == pytest.approx(ds, abs=1e-12)
        assert tr.ds_upper[k] == pytest.approx(ds, abs=1e-9)


def test_evolve_normalization_keeps_feature_times(bell_traj_11mt):
    tr = bell_traj_11mt
    raw_lo, _ = tr.normalized("none")
    half_lo, _ = tr.normalized("half")
    assert np.argmin(raw_lo) == np.argmin(half_lo)
    crossings_raw = find_g_crossings(tr.times, tr.g, tr.g_on)
    assert len(crossings_raw) == 0  # Bell states never cross unity


def test_evolve_zeeman_frame_is_local_unitary():
    # evolving on c e^{i omega t} gives the lab-frame states: a local z rotation away
    dot = q.DotParameters(b_field=0.1)
    chan = channel_of(dot, np.linspace(0.0, 10.0, 11))
    state = q.make_state(q.PhaseFamily(0.9))
    lab = replace(chan, c=chan.c * np.exp(1j * dot.zeeman_energy * chan.times / HBAR_UEV_NS))
    kept = q.evolve(state, lab)
    dropped = q.evolve(state, chan)
    assert np.abs(kept.ds_lower - dropped.ds_lower).max() < 1e-10
    assert np.abs(kept.concurrence - dropped.concurrence).max() < 1e-10
    assert np.abs(kept.purity - dropped.purity).max() < 1e-12


EVOLVE_SHORT_STATES = (q.Bell("psi-"), q.Werner(0.33), q.PhaseFamily(2.35619449), q.BellDiagonal(0.4, 0.4))


@pytest.mark.parametrize("b_field", [0.0, 0.011, 1.0])
def test_evolve_matches_per_time_oracle(b_field):
    # the stacked trajectory against single-state calls at sampled times
    chan = channel_of(q.DotParameters(b_field=b_field), build_time_grid(20.0))
    c_eff = q.evolution.effective_coherence(chan)
    for spec in EVOLVE_SHORT_STATES:
        state0 = q.make_state(spec)
        form0 = q.bloch_decompose(state0)
        tr = q.evolve(state0, chan)
        for k in range(0, chan.times.size, 50):
            rho_k, _ = one_step(state0, float(chan.p[k]), complex(c_eff[k]))
            bounds = q.discord_bounds(rho_k)
            assert abs(tr.ds_lower[k] - bounds.ds_lower) <= 1e-12
            assert abs(tr.ds_upper[k] - bounds.ds_upper) <= 1e-12
            assert tr.concurrence[k] == q.concurrence(rho_k)
            assert tr.min_eigenvalue[k] == np.linalg.eigvalsh(rho_k)[0]
            assert np.array_equal(tr.st_weights[k], q.singlet_triplet_weights(rho_k))
            # g is read off the start state's Bloch form mapped by the applied pair, not off the evolved matrix
            assert tr.g[k] == pytest.approx(q.g_ratio(rho_k), rel=0.0, abs=1e-12, nan_ok=True)
            t_one = evolution._evolved_bloch(form0, chan.p[k:k + 1], c_eff[k:k + 1]).t_corr[0]
            assert np.array_equal(tr.g[k], measures._g_of(abs(t_one[0, 0]), abs(t_one[2, 2])), equal_nan=True)


def random_cp_pairs(rng, n):
    """n random CP pairs; the first three are the edges p = 0, p = 1 and |c| = 1 - p."""
    p = rng.uniform(0.0, 1.0, n)
    c = (1.0 - p) * rng.uniform(size=n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    p[:3] = [0.0, 1.0, 0.3]
    c[:3] = [phase[0], 0.0, 0.7 * phase[1]]
    return p, c


def kron_superoperator_oracle(rho0, p, c):
    """The stack by the explicit 16x16 superoperator kron(L, L) of the one-dot transfer matrix L.

    L acts on vec(rho) = (rho_00, rho_01, rho_10, rho_11) of one dot; kron(L, L)
    acts on rho0 with its indices arranged (a, a', b, b').
    """
    vec = rho0.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(16)
    out = []
    for pk, ck in zip(p, c):
        lm = np.array([[1 - pk, 0, 0, pk], [0, ck, 0, 0], [0, 0, np.conj(ck), 0], [pk, 0, 0, 1 - pk]])
        out.append((np.kron(lm, lm) @ vec).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4))
    return np.array(out)


def test_evolved_stack_matches_the_superoperator_and_the_bloch_map(rng):
    # measured over 200 starts x 41 pairs: 1.1e-16 on rho, 3.3e-16 on (x, y, T)
    n = 41
    for _ in range(100):
        state = random_density(rng)
        p, c = random_cp_pairs(rng, n)
        stack = evolution._evolved_rho(state.rho, p, c)
        assert np.abs(stack - kron_superoperator_oracle(state.rho, p, c)).max() <= 4e-16
        # per qubit the Bloch vector maps by lam: x' = lam x, y' = lam y, T' = lam T lam^T
        lam = np.zeros((n, 3, 3))
        lam[:, 0, 0] = lam[:, 1, 1] = c.real
        lam[:, 0, 1], lam[:, 1, 0] = c.imag, -c.imag
        lam[:, 2, 2] = 1.0 - 2.0 * p
        start = q.bloch_decompose(state)
        for form in (q.bloch_decompose(stack), evolution._evolved_bloch(start, p, c)):
            assert np.abs(form.x - lam @ start.x).max() <= 1e-15
            assert np.abs(form.y - lam @ start.y).max() <= 1e-15
            assert np.abs(form.t_corr - lam @ start.t_corr @ lam.swapaxes(1, 2)).max() <= 1e-15


@pytest.mark.parametrize("state,b_field,t_max,dt", [
    ("bell:psi-", 0.1, 20.0, 0.02), ("werner:p=0.33", 0.1, 20.0, 0.02), ("phase:gamma=2.35619449", 0.1, 20.0, 0.02),
    ("belldiag:a=0.4,b=0.4", 0.1, 20.0, 0.02), ("belldiag:a=0.3,b=0.25", 0.001, 2000.0, 0.1),
    ("belldiag:a=0.3,b=0.25", 0.003, 6000.0, 0.02),  # the default long grid: dense prefix plus coarse tail
])
def test_bloch_map_matches_the_decomposed_stack(state, b_field, t_max, dt):
    # measured: 3.3e-16 on (x, y, T), 3.9e-16 on the bounds
    tr = trajectory_for_field(q.RunConfig(state=state, t_max=t_max, dt=dt), b_field)
    form, stack = tr._bloch, q.bloch_decompose(tr.rho)
    for name in ("x", "y", "t_corr"):
        assert np.abs(getattr(form, name) - getattr(stack, name)).max() <= 1e-15, name
    bounds = q.discord_bounds(tr.rho)
    assert np.abs(tr.ds_lower - bounds.ds_lower).max() <= 1e-15
    assert np.abs(tr.ds_upper - bounds.ds_upper).max() <= 1e-15
    # a time alone maps to the bits of its row of the stack
    form0 = q.bloch_decompose(tr.state0)
    for k in range(0, tr.times.size, 37):
        one = evolution._evolved_bloch(form0, tr.p[k:k + 1], tr.c[k:k + 1])
        for name in ("x", "y", "t_corr"):
            assert np.array_equal(getattr(one, name)[0], getattr(form, name)[k]), (name, k)


def two_pass_bloch_map(form0, p, c):
    """x' = lam x, y' = lam y and T' = lam T lam^T in two passes of lam = [[Re c, Im c, 0], [-Im c, Re c, 0],
    [0, 0, 1 - 2p]] along time: x, y and T's columns, then T's rows.  The reference for the s, r map."""
    cr, qz = np.real(c), 1.0 - 2.0 * p
    ci = (np.imag(c) * np.array([[1.0], [-1.0]]))[:, None]

    def lam(v):  # lam on the first axis of v; time is the last axis
        return np.concatenate([cr * v[:2] + ci * v[1::-1], qz * v[2:]])

    xyt = lam(np.column_stack([form0.x, form0.y, form0.t_corr])[..., None])  # (3, 5, n)
    return q.BlochForm(xyt[:, 0].T, xyt[:, 1].T, lam(xyt[:, 2:].swapaxes(0, 1)).transpose(2, 1, 0))


@pytest.mark.parametrize("b_field", [0.0, 0.003, 0.1, 1.0])
def test_bloch_map_matches_the_two_pass_map(rng, b_field):
    # measured: at most 3.3e-16 over these starts and channels
    starts = [random_density(rng) for _ in range(20)] + [q.make_state(spec) for spec in (
        q.PhaseFamily(2.35619449), q.EntFamily(0.3, 0.4, 1.1), q.Bell("phi+"), q.Bell("psi-"))]
    for t_max, dt in ((20.0, 0.02), (2000.0, 0.1)):
        chan = q.channel_for_field(q.RunConfig(t_max=t_max, dt=dt), b_field)
        c_eff = evolution.effective_coherence(chan)
        for state in starts:
            start = q.bloch_decompose(state)
            new, old = evolution._evolved_bloch(start, chan.p, c_eff), two_pass_bloch_map(start, chan.p, c_eff)
            for name in ("x", "y", "t_corr"):
                assert np.abs(getattr(new, name) - getattr(old, name)).max() <= 1e-15, (name, t_max)
                assert getattr(new, name).flags.c_contiguous


@pytest.mark.parametrize("state", ["bell:psi-", "bell:psi+", "werner:p=0.33", "belldiag:a=0.4,b=0.4"])
def test_x_starts_keep_their_zeros_exactly(state):
    # the only coherence is the real rho_12: T's transverse block is a multiple of the identity, all s,
    # which |c|^2 keeps one, so no entry off T or transverse in x, y is ever nonzero, and `_k_eigh` reads
    # every time's K off its diagonal with the bits `eigh` of the built K gives
    off = ~np.eye(3, dtype=bool)
    for b_field, t_max, dt in ((0.0, 20.0, 0.02), (0.003, 20.0, 0.02), (0.1, 20.0, 0.02), (1.0, 20.0, 0.02),
                               (0.001, 2000.0, 0.1)):
        form = trajectory_for_field(q.RunConfig(state=state, t_max=t_max, dt=dt), b_field)._bloch
        assert not form.x[:, :2].any() and not form.y[:, :2].any(), b_field
        assert not form.t_corr[:, off].any(), b_field
        eig = measures._k_eigh(form)
        assert eig.v is None, b_field
        assert np.array_equal(eig.a, k_eigh_oracle(form).a), b_field


@pytest.mark.parametrize("n", [37, 1001])
def test_stack_times_equal_one_time_evolve(rng, n):
    # every time of the stack gives the bits a one-time channel at that pair gives
    state0 = random_density(rng)
    p, c = random_cp_pairs(rng, n)
    # zero field: the co-rotation multiplies c by exactly 1
    tr = q.evolve(state0, q.ChannelTrajectory(times=0.02 * np.arange(n), p=p, c=c, dot=q.DotParameters(b_field=0.0)))
    assert np.array_equal(tr.c, c)
    for k in range(n):
        rho_k, one = one_step(state0, p[k], c[k])
        assert np.array_equal(tr.rho[k], rho_k)
        assert tr.min_eigenvalue[k] == one.min_eigenvalue[0]
        assert np.array_equal(tr.concurrence[k], one.concurrence[0], equal_nan=True)


def test_evolve_cp_violation_names_time_index():
    times = np.array([0.0, 1.0, 2.0])
    chan = q.ChannelTrajectory(times=times, p=np.array([0.0, 0.1, 0.3]),
                               c=np.array([1.0, 0.9, 0.9], dtype=complex), dot=q.DotParameters())
    with pytest.raises(ChannelError, match=r"time index 2 \(t=2 ns\)"):
        q.evolve(q.make_state(q.Bell("psi-")), chan)
    # p outside [0, 1] is refused even where the margin holds
    chan.p[0] = -1e-9
    with pytest.raises(ChannelError, match="flip probability"):
        q.evolve(q.make_state(q.Bell("psi-")), chan)


@pytest.mark.parametrize("name,value", [("p", np.nan), ("p", np.inf), ("p", -np.inf),
                                        ("c", np.nan), ("c", np.inf), ("c", -np.inf), ("c", complex(0.0, np.nan))])
@pytest.mark.parametrize("b_field", [0.0, 0.1])
def test_evolve_refuses_a_non_finite_channel_entry(name, value, b_field):
    # the CP audit is what certifies every evolved state, so a NaN or an infinity in p or c fails it
    chan = q.ChannelTrajectory(times=np.array([0.0, 1.0, 2.0]), p=np.array([0.0, 0.1, 0.2]),
                               c=np.array([1.0, 0.5, 0.5], dtype=complex), dot=q.DotParameters(b_field=b_field))
    getattr(chan, name)[1] = value
    with pytest.raises(ChannelError):
        q.evolve(q.make_state(q.Bell("psi-")), chan)


def _start_at_the_edges(kind, seed, trace_sign):
    """A start that validation accepts at its edges: a Bell state, or a Ginibre or pure state whose least
    eigenvalue is -PSD_TOL_CONSTRUCTION (1 - 1e-4), whose trace is off by (1 - 1e-3) TRACE_TOL and whose
    anti-Hermitian part makes an asymmetry of 0.8 HERMITICITY_TOL."""
    if kind.startswith("bell:"):
        return q.make_state(q.Bell(kind[5:]))
    rng = np.random.default_rng(seed)
    if kind == "ginibre":
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
    else:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = np.outer(v, v.conj())
    w, u = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    w[0] = -PSD_TOL_CONSTRUCTION * (1.0 - 1e-4)
    w[1:] *= (1.0 + trace_sign * (1.0 - 1e-3) * TRACE_TOL - w[0]) / w[1:].sum()
    skew = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    skew -= skew.conj().T
    np.fill_diagonal(skew, 0.0)  # an imaginary diagonal would move the trace off the real axis
    return q.TwoQubitState((u * w) @ u.conj().T + 0.4 * HERMITICITY_TOL / np.abs(skew).max() * skew)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["ginibre", "pure", "bell:phi+", "bell:phi-", "bell:psi+", "bell:psi-"]),
       st.integers(0, 2**32 - 1), st.sampled_from([1.0, -1.0]), st.sampled_from([0.0, 0.1]))
def test_inputs_at_their_tolerance_edges_keep_every_evolved_state_physical(kind, seed, trace_sign, b_field):
    """The validated start and the CP-audited channel certify every evolved state (see EVOLVED_PSD_TOL).

    Both sit on the accepted side of every input tolerance: the start at PSD_TOL_CONSTRUCTION, TRACE_TOL
    and HERMITICITY_TOL, each channel pair at |c| = 1 - p + CP_MARGIN_TOL (1 - 1e-6) with a random phase,
    and p uniform plus -P_RANGE_TOL, 0, 0.5 and 1 + P_RANGE_TOL.  The derived bound is
    -(CP_MARGIN_TOL + PSD_TOL_CONSTRUCTION) ~ -1.1e-9; over 300 such starts, 1000 pairs each, the worst
    evolved eigenvalue measured -1.000e-9 and the worst |Tr rho - 1| 1.0001e-12.
    """
    state0 = _start_at_the_edges(kind, seed, trace_sign)
    rng = np.random.default_rng(seed)
    p = np.concatenate([rng.uniform(size=60), [-P_RANGE_TOL, 0.0, 0.5, 1.0 + P_RANGE_TOL]])
    c = (1.0 - p + CP_MARGIN_TOL * (1.0 - 1e-6)) * np.exp(2j * np.pi * rng.uniform(size=p.size))
    chan = q.ChannelTrajectory(times=0.02 * np.arange(p.size), p=p, c=c, dot=q.DotParameters(b_field=b_field))
    tr = q.evolve(state0, chan)
    assert tr.min_eigenvalue.min() >= -(CP_MARGIN_TOL + PSD_TOL_CONSTRUCTION)
    assert tr.min_eigenvalue.min() >= -evolution.EVOLVED_PSD_TOL
    assert np.abs(np.trace(tr.rho, axis1=-2, axis2=-1) - 1.0).max() <= TRACE_TOL + 1e-14


def test_evolve_trajectory_csv(tmp_path, bell_traj_11mt):
    path = tmp_path / "traj.csv"
    bell_traj_11mt.to_csv(path, header_lines=["x=1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# x=1"
    header = lines[1].split(",")
    assert header == [
        "t_ns", "p", "c_re", "c_im", "a", "b_re", "b_im", "purity", "ds_lo", "ds_hi",
        "d_lo", "d_hi", "g", "concurrence", "wTm1", "wT0", "wTp1", "wS0",
    ]
    assert len(lines) == 2 + bell_traj_11mt.times.size


# ---------------------------------------------------------------------------
# feature detection
# ---------------------------------------------------------------------------


def test_find_g_crossings_synthetic():
    t = np.linspace(0.0, 10.0, 101)
    f = lambda x: 1.5 - 0.1 * x  # crosses unity at t = 5
    events = find_g_crossings(t, f(t), f)
    assert len(events) == 1
    # the midpoint of a bracket at most KINK_T_TOL wide; no cut point t_lo + k*step from t_lo = 4.9 is 5 itself
    assert events[0].t_cross_ns == pytest.approx(5.0, abs=KINK_T_TOL / 2)
    assert events[0].direction == "down"


def test_find_g_crossings_ignores_touch():
    t = np.linspace(0.0, 10.0, 101)
    assert find_g_crossings(t, np.ones_like(t), lambda x: 1.0) == []
    # tangential touch without sign change
    f = lambda x: 1.0 + 0.1 * (x - 5.0) ** 2
    assert find_g_crossings(t, f(t), f) == []


def test_find_g_crossings_ignores_boundary_noise():
    t = np.linspace(0.0, 10.0, 101)
    rng = np.random.default_rng(5)
    g = 1.0 + 1e-9 * rng.normal(size=t.size)
    assert find_g_crossings(t, g, lambda x: 1.0) == []


def test_find_g_crossings_refines_between_coarse_samples():
    t = np.linspace(0.0, 10.0, 11)  # coarse grid
    f = lambda x: 1.5 - 0.1 * x**1.3
    events = find_g_crossings(t, f(t), f)
    assert len(events) == 1
    root = (0.5 / 0.1) ** (1 / 1.3)
    assert events[0].t_cross_ns == pytest.approx(root, abs=1e-6)


def test_g_on_is_an_evolution_on_the_trajectory_model():
    dot = q.DotParameters(b_field=0.1)
    times = build_time_grid(10.0)
    quad = q.build_quadrature(dot, 10.0)
    state0 = q.make_state(q.BellDiagonal(0.4, 0.4))
    chan = q.compute_channel(quad, times)
    traj = q.evolve(state0, chan)
    assert chan.model is quad and traj.model is quad

    def g_exact(t):
        return q.evolve(state0, q.compute_channel(quad, t)).g

    assert traj.g_on(np.array([4.67])) == g_exact(np.array([4.67]))
    expected = find_g_crossings(traj.times, traj.g, g_exact)
    assert len(expected) == 1
    assert find_g_crossings(traj.times, traj.g, traj.g_on) == expected


def test_g_on_needs_a_model():
    chan = channel_of(q.DotParameters(b_field=0.1), np.linspace(0.0, 5.0, 6))
    traj = q.evolve(q.make_state(q.BellDiagonal(0.4, 0.4)), replace(chan, model=None))
    with pytest.raises(InvalidParameterError, match="no model"):
        traj.g_on(np.array([1.0]))


def test_find_extrema_basic():
    t = np.linspace(0.0, 2.0 * np.pi, 201)
    events = find_extrema(t, np.sin(t))
    kinds = [(e.kind, round(e.t_ns, 2)) for e in events]
    assert (ExtremumKind.MAXIMUM, round(np.pi / 2, 2)) in kinds
    assert (ExtremumKind.MINIMUM, round(3 * np.pi / 2, 2)) in kinds


def test_find_extrema_constant_series():
    t = np.linspace(0.0, 1.0, 50)
    assert find_extrema(t, np.ones_like(t)) == []


def test_find_extrema_plateau_center():
    t = np.arange(9.0)
    v = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, 0.0])
    events = find_extrema(t, v)
    assert len(events) == 1
    assert events[0].kind is ExtremumKind.MAXIMUM
    assert events[0].t_ns == pytest.approx(4.0)


def test_find_extrema_prominence_filter():
    t = np.linspace(0.0, 10.0, 2001)
    v = np.sin(t) + 0.005 * np.sin(60 * t)
    assert len(find_extrema(t, v)) > 4  # ripples detected without a filter
    filtered = find_extrema(t, v, min_prominence=0.05)
    assert len(filtered) == 3  # two real maxima and one real minimum in [0, 10]


def test_find_extrema_parabolic_refinement():
    t = np.linspace(0.0, 1.0, 21)
    v = -((t - 0.512) ** 2)
    events = find_extrema(t, v)
    assert len(events) == 1
    assert events[0].t_ns == pytest.approx(0.512, abs=1e-12)


def test_parabolic_refine_is_the_vertex_at_any_spacing(rng):
    # samples 0, 1, 0 at t = 0, 1, 3: the parabola's vertex, not the equal-step one at (1, 1)
    assert evolution._parabolic_refine(np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0, 0.0]), 1) == (1.5, 1.125)
    worst = 0.0
    for _ in range(500):
        t = np.cumsum(rng.uniform(0.1, 1.0, 3))
        v = rng.normal(size=3)
        v[1] = max(v[0], v[2]) + rng.uniform(0.1, 1.0)
        v *= rng.choice([-1.0, 1.0])  # a maximum or a minimum
        coef = np.polyfit(t, v, 2)
        t_vertex = -0.5 * coef[1] / coef[0]
        t_ref, v_ref = evolution._parabolic_refine(t, v, 1)
        worst = max(worst, abs(t_ref - t_vertex), abs(v_ref - np.polyval(coef, t_vertex)))
    assert worst < 1e-12
    # a vertex outside the three samples is held at the nearer end, on the parabola
    assert evolution._parabolic_refine(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 3.0]), 1) == (0.0, 0.0)


def test_build_time_grid():
    short = build_time_grid(20.0)
    assert short.size == 1001 and short[0] == 0.0 and short[-1] == pytest.approx(20.0)
    long = build_time_grid(12000.0)
    assert long[0] == 0.0 and long[-1] == pytest.approx(12000.0)
    steps = np.diff(long)
    assert steps.min() == pytest.approx(0.02, abs=1e-9)
    assert steps.max() == pytest.approx(2.0, abs=1e-9)
    assert np.all(steps > 0)


def test_build_time_grid_refuses_an_end_short_of_t_max():
    # the dense count rounds down, and the coarse tail's last step past t_max is dropped
    for kwargs, last, allowed in (({"t_max": 1.0, "dt": 0.7}, "0.7", "a whole number of dt steps"),
                                  ({"t_max": 151.0}, "150", "50 ns plus a whole number of 2 ns steps")):
        with pytest.raises(InvalidParameterError, match=f"t_max={kwargs['t_max']:g} ns at dt=.* ends at {last} ns"
                                                        f".* t_max must be {allowed}$"):
            build_time_grid(**kwargs)
    # a whole number of steps ends on t_max
    for args in ((20.0, 0.02), (1.0, 0.02), (25.0, 0.1), (50.0, 0.1), (200.0, 0.1), (2000.0, 0.1), (6000.0,),
                 (12000.0,)):
        assert build_time_grid(*args)[-1] == pytest.approx(args[0], rel=0.0, abs=1e-9)


def test_build_time_grid_refuses_times_that_do_not_increase():
    # 50 ns rounds to 6 steps of 9 ns: the dense part would end at 54 ns, past the tail's 52 ns
    with pytest.raises(InvalidParameterError, match="dense part end at 54 ns, not before the coarse tail's "
                                                    "first time at 52 ns"):
        build_time_grid(150.0, dt=9.0)
    for dt in (0.7, 4.0, 30.0, 200.0):
        try:
            grid = build_time_grid(150.0, dt=dt)
        except InvalidParameterError:
            continue
        assert np.all(np.diff(grid) > 0.0), dt


def test_build_time_grid_bounds_its_point_count():
    assert build_time_grid(99.9999, dt=1e-4).size == MAX_GRID_POINTS
    # one time more, counts past memory on either part of a long grid, and counts that overflow a float
    for kwargs in ({"t_max": 100.0, "dt": 1e-4}, {"t_max": 200.0, "dt": 5e-5},
                   {"t_max": 2.1e6}, {"t_max": 20.0, "dt": 1e-300}, {"t_max": 1e300}):
        with pytest.raises(InvalidParameterError, match="MAX_GRID_POINTS"):
            build_time_grid(**kwargs)


def test_build_time_grid_long_layout():
    # past LONG_GRID_THRESHOLD_NS: DENSE_PREFIX_NS at dt, then DT_LONG_NS steps to t_max
    grid = build_time_grid(120.0, dt=0.1)
    assert grid.size == 501 + 35
    assert np.array_equal(grid[:501], np.linspace(0.0, 50.0, 501))
    assert np.array_equal(grid[501:], 50.0 + 2.0 * np.arange(1, 36))
    assert (evolution.DENSE_PREFIX_NS, evolution.DT_LONG_NS) == (50.0, 2.0)
    assert build_time_grid(evolution.LONG_GRID_THRESHOLD_NS, dt=0.1).size == 1001


# ---------------------------------------------------------------------------
# columns computed on first read
# ---------------------------------------------------------------------------


def _eager_columns(tr) -> dict:
    """Every measure column computed at once: g, purity and the bounds from the start state's Bloch form
    mapped by the applied channel, the others by the public functions from the trajectory's stack."""
    form = evolution._evolved_bloch(q.bloch_decompose(tr.state0), tr.p, tr.c)
    eig = measures._k_eigh(form)
    lower = measures._lower_bound(eig.a)
    upper = measures._upper_bound(eig, lower)
    pur = 0.25 * (1.0 + np.einsum("ni,ni->n", form.x, form.x) + np.einsum("ni,ni->n", form.y, form.y)
                  + np.einsum("nij,nij->n", form.t_corr, form.t_corr))
    # measured: at most 6.7e-16 from Tr rho^2 of the stack
    assert np.abs(pur - q.purity(tr.rho)).max() <= 1e-15
    bell_a, bell_b = q.bell_diagonal_params(tr.rho, q.bell_ordering(tr.state0))
    return {"ds_lower": lower, "ds_upper": upper, "d_lower": q.rescaled_discord(lower, pur),
            "d_upper": q.rescaled_discord(upper, pur), "purity": pur,
            "g": measures._g_of(np.abs(form.t_corr[:, 0, 0]), np.abs(form.t_corr[:, 2, 2])),
            "concurrence": q.concurrence(tr.rho), "st_weights": q.singlet_triplet_weights(tr.rho),
            "bell_a": bell_a, "bell_b": bell_b}


@pytest.mark.parametrize("state,b_field,t_max", [
    ("bell:psi-", 0.1, 20.0), ("werner:p=0.33", 0.1, 20.0), ("phase:gamma=2.35619449", 0.1, 20.0),
    ("belldiag:a=0.4,b=0.4", 0.1, 20.0), ("belldiag:a=0.3,b=0.25", 0.003, 6000.0), ("bell:phi+", 0.003, 20.0),
])
def test_lazy_columns_equal_the_eager_measures(state, b_field, t_max):
    tr = trajectory_for_field(q.RunConfig(state=state, t_max=t_max), b_field)
    assert "ds_lower" not in vars(tr) and "concurrence" not in vars(tr)
    eager = _eager_columns(tr)
    # read in an order that has the upper bound before the lower one it depends on
    for name in ("d_upper", "concurrence", "bell_b", "ds_lower", *eager):
        assert np.array_equal(getattr(tr, name), eager[name], equal_nan=True), name
        assert getattr(tr, name) is getattr(tr, name)  # computed once, then kept


@pytest.mark.parametrize("state,b_field,diagonal", [
    ("bell:psi-", 0.003, True), ("bell:phi+", 0.0, True), ("bell:phi+", 0.003, False),
    ("phase:gamma=2.35619449", 0.003, False),
])
def test_k_eigh_reads_a_diagonal_k_or_takes_eigh(state, b_field, diagonal):
    # bell:psi- keeps T exactly diagonal; bell:phi+ in a field carries Im conj(c)^2 in T_xy = T_yx, and
    # the phase state has x, y off z: those two take eigh
    tr = trajectory_for_field(q.RunConfig(state=state), b_field)
    form = tr._bloch
    eig = measures._k_eigh(form)
    assert (eig.v is None) == diagonal
    if diagonal:
        assert np.array_equal(eig.a, k_eigh_oracle(form).a)
    elif state.startswith("bell"):
        # T = diag(1, -1, 1): the transverse block is all r = 1, which the channel multiplies by conj(c)^2
        off = form.t_corr[:, [0, 1], [1, 0]]
        turn = np.conj(tr.c)
        assert np.abs(off - (turn * turn).imag[:, None]).max() <= 1e-15
        assert np.abs(off).max() > 0.05  # measured 0.0535 at 3 mT: a correlation, not round-off


@pytest.mark.parametrize("spec", [q.Bell("psi-"), q.PhaseFamily(2.35619449)], ids=["bell:psi-", "phase"])
def test_evolve_builds_no_stack_before_any_column_is_read(spec, monkeypatch):
    # the validated start and the CP-audited channel certify every evolved state, so evolve builds no
    # stack and factors nothing, X start or not; the first read of `rho` builds it
    chan = channel_of(q.DotParameters(b_field=0.1), np.linspace(0.0, 2.0, 11))
    state0 = q.make_state(spec)
    factored, cholesky, eigvalsh = [], np.linalg.cholesky, np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a.shape) or cholesky(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: factored.append(a.shape) or eigvalsh(a))
    tr = q.evolve(state0, chan)
    assert factored == []
    assert not {"rho", "min_eigenvalue", "ds_lower", "ds_upper", "g", "purity", "concurrence"} & set(vars(tr))
    assert np.array_equal(tr.rho, evolution._evolved_rho(state0.rho, tr.p, tr.c))
    assert tr.rho.shape == (11, 4, 4) and tr.rho is tr.rho
    assert np.array_equal(tr.min_eigenvalue, np.linalg.eigvalsh(tr.rho)[:, 0])
