import numpy as np
import pytest

import qdspin as q
from qdspin.constants import InvalidParameterError
from qdspin.evolution import (
    ChannelError,
    ExtremumKind,
    apply_channel,
    build_time_grid,
    find_extrema,
    find_g_crossings,
    refined_g_crossings,
)

from conftest import random_density


# ---------------------------------------------------------------------------
# apply_channel
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


def test_apply_identity():
    state = q.make_state(q.PhaseFamily(0.7))
    out = apply_channel(state, 0.0, 1.0)
    assert np.abs(out.rho - state.rho).max() < 1e-15


def test_apply_full_depolarization():
    for spec in (q.Bell("psi-"), q.PhaseFamily(1.1), q.Werner(0.7)):
        out = apply_channel(q.make_state(spec), 0.5, 0.0)
        assert np.abs(out.rho - np.eye(4) / 4.0).max() < 1e-14


def test_apply_matches_superoperator_oracle(rng):
    for _ in range(100):
        p = rng.uniform(0.0, 1.0)
        c = (1.0 - p) * rng.uniform() * np.exp(1j * rng.uniform(0, 2 * np.pi))
        state = random_density(rng)
        mine = apply_channel(state, p, c).rho
        ref = superop_oracle(state.rho, p, c)
        assert np.abs(mine - ref).max() < 1e-12


def test_apply_preserves_physicality(rng):
    for _ in range(300):
        p = rng.uniform(0.0, 1.0)
        c = (1.0 - p) * rng.uniform() * np.exp(1j * rng.uniform(0, 2 * np.pi))
        out = apply_channel(random_density(rng), p, c)
        assert abs(np.trace(out.rho) - 1.0) < 1e-12
        assert out.min_eigenvalue > -1e-12


def test_apply_singlet_composition(rng):
    # hand-composed product channel on the singlet: a = (1-2p+2p^2)/2, b = -|c|^2/2
    for _ in range(50):
        p = rng.uniform(0.0, 1.0)
        c = (1.0 - p) * rng.uniform() * np.exp(1j * rng.uniform(0, 2 * np.pi))
        out = apply_channel(q.make_state(q.Bell("psi-")), p, c)
        a, b = q.bell_diagonal_params(out)
        assert not np.isnan(a)
        assert a == pytest.approx(0.5 * (1 - 2 * p + 2 * p * p), abs=1e-12)
        assert b == pytest.approx(-0.5 * abs(c) ** 2, abs=1e-12)


def test_apply_rejects_cp_violation():
    with pytest.raises(ChannelError):
        apply_channel(q.make_state(q.Bell("psi-")), 0.3, 0.9)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bell_traj_11mt():
    dot = q.DotParameters(b_field=0.011)
    chan = q.compute_channel(dot, build_time_grid(20.0))
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
        ds = q.bell_diagonal_discord(tr.bell_a[k], tr.bell_b[k]).ds
        assert tr.ds_lower[k] == pytest.approx(ds, abs=1e-12)
        assert tr.ds_upper[k] == pytest.approx(ds, abs=1e-9)


def test_evolve_normalization_keeps_feature_times(bell_traj_11mt):
    tr = bell_traj_11mt
    raw_lo, _ = tr.normalized("none")
    half_lo, _ = tr.normalized("half")
    assert np.argmin(raw_lo) == np.argmin(half_lo)
    crossings_raw = find_g_crossings(tr.times, tr.g)
    assert len(crossings_raw) == 0  # Bell states never cross unity


def test_evolve_drop_zeeman_phase_is_local_unitary():
    dot = q.DotParameters(b_field=0.1)
    chan = q.compute_channel(dot, np.linspace(0.0, 10.0, 11))
    state = q.make_state(q.PhaseFamily(0.9))
    kept = q.evolve(state, chan, drop_zeeman_phase=False)
    dropped = q.evolve(state, chan, drop_zeeman_phase=True)
    assert np.abs(kept.ds_lower - dropped.ds_lower).max() < 1e-10
    assert np.abs(kept.concurrence - dropped.concurrence).max() < 1e-10
    assert np.abs(kept.purity - dropped.purity).max() < 1e-12


EVOLVE_SHORT_STATES = (q.Bell("psi-"), q.Werner(0.33), q.PhaseFamily(2.35619449), q.BellDiagonal(0.4, 0.4))


@pytest.mark.parametrize("b_field", [0.0, 0.011, 1.0])
def test_evolve_matches_per_time_oracle(b_field):
    # the stacked trajectory against single-state calls at sampled times
    chan = q.compute_channel(q.DotParameters(b_field=b_field), build_time_grid(20.0))
    c_eff = q.evolution.effective_coherence(chan)
    for spec in EVOLVE_SHORT_STATES:
        state0 = q.make_state(spec)
        tr = q.evolve(state0, chan)
        for k in range(0, chan.times.size, 50):
            st_k = apply_channel(state0, float(chan.p[k]), complex(c_eff[k]))
            bounds = q.discord_bounds(st_k)
            assert abs(tr.ds_lower[k] - bounds.ds_lower) <= 1e-12
            assert abs(tr.ds_upper[k] - bounds.ds_upper) <= 1e-12
            assert tr.concurrence[k] == q.concurrence(st_k)
            assert tr.min_eigenvalue[k] == st_k.min_eigenvalue
            assert np.array_equal(tr.st_weights[k], q.singlet_triplet_weights(st_k))
            assert tr.g[k] == q.g_ratio(st_k) or np.isnan(tr.g[k]) and np.isnan(q.g_ratio(st_k))


def test_evolve_cp_violation_names_time_index():
    times = np.array([0.0, 1.0, 2.0])
    chan = q.ChannelTrajectory(times=times, p=np.array([0.0, 0.1, 0.3]),
                               c=np.array([1.0, 0.9, 0.9], dtype=complex), dot=q.DotParameters())
    with pytest.raises(ChannelError, match=r"time index 2 \(t=2 ns\)"):
        q.evolve(q.make_state(q.Bell("psi-")), chan, drop_zeeman_phase=False)
    # p outside [0, 1] is refused even where the margin holds
    chan.p[0] = -1e-9
    with pytest.raises(ChannelError, match="flip probability"):
        q.evolve(q.make_state(q.Bell("psi-")), chan, drop_zeeman_phase=False)


def test_evolve_psd_violation_names_time_index():
    # full depolarization at the first two times, identity at the third: only
    # the third state keeps the start state's negative eigenvalue
    rho = np.diag([0.6, 0.3, 0.2, -0.1]).astype(complex)
    state0 = q.TwoQubitState(rho, psd_tol=1.0)
    chan = q.ChannelTrajectory(times=np.array([0.0, 1.0, 2.0]), p=np.array([0.5, 0.5, 0.0]),
                               c=np.array([0.0, 0.0, 1.0], dtype=complex), dot=q.DotParameters())
    with pytest.raises(InvalidParameterError, match=r"time index 2 \(t=2 ns\).*positive semidefinite"):
        q.evolve(state0, chan, drop_zeeman_phase=False)


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
    g = 1.5 - 0.1 * t  # crosses unity at t = 5
    events = find_g_crossings(t, g)
    assert len(events) == 1
    assert events[0].t_cross_ns == pytest.approx(5.0, abs=1e-9)
    assert events[0].direction == "down"


def test_find_g_crossings_ignores_touch():
    t = np.linspace(0.0, 10.0, 101)
    assert find_g_crossings(t, np.ones_like(t)) == []
    # tangential touch without sign change
    g = 1.0 + 0.1 * (t - 5.0) ** 2
    assert find_g_crossings(t, g) == []


def test_find_g_crossings_ignores_boundary_noise():
    t = np.linspace(0.0, 10.0, 101)
    rng = np.random.default_rng(5)
    g = 1.0 + 1e-9 * rng.normal(size=t.size)
    assert find_g_crossings(t, g) == []


def test_find_g_crossings_bisection_refine():
    t = np.linspace(0.0, 10.0, 11)  # coarse grid
    f = lambda x: 1.5 - 0.1 * x**1.3
    events = find_g_crossings(t, f(t), refine=f, t_tol=1e-8)
    assert len(events) == 1
    root = (0.5 / 0.1) ** (1 / 1.3)
    assert events[0].t_cross_ns == pytest.approx(root, abs=1e-6)


def test_refined_g_crossings_matches_hand_rolled_bisection():
    dot = q.DotParameters(b_field=0.1)
    times = build_time_grid(10.0)
    quad = q.build_quadrature(dot, 10.0)
    state0 = q.make_state(q.BellDiagonal(0.4, 0.4))
    traj = q.evolve(state0, q.compute_channel(dot, times, quad))

    def g_exact(t):
        return float(q.evolve(state0, q.compute_channel(dot, np.array([t]), quad)).g[0])

    expected = find_g_crossings(traj.times, traj.g, refine=g_exact)
    assert len(expected) == 1
    assert refined_g_crossings(traj, quad) == expected


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


def test_build_time_grid():
    short = build_time_grid(20.0)
    assert short.size == 1001 and short[0] == 0.0 and short[-1] == pytest.approx(20.0)
    long = build_time_grid(12000.0)
    assert long[0] == 0.0 and long[-1] == pytest.approx(12000.0)
    steps = np.diff(long)
    assert steps.min() == pytest.approx(0.02, abs=1e-9)
    assert steps.max() == pytest.approx(2.0, abs=1e-9)
    assert np.all(steps > 0)


def test_build_time_grid_dense_prefix_bounds():
    # a prefix past t_max is cut at t_max, so the grid never outruns its quadrature
    grid = build_time_grid(120.0, dt=0.1, dense_prefix=200.0)
    assert grid[-1] == pytest.approx(120.0)
    assert np.diff(grid).max() == pytest.approx(0.1, abs=1e-9)
    with pytest.raises(InvalidParameterError):
        build_time_grid(120.0, dense_prefix=-1.0)
