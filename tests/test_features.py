"""Feature scanners (g crossings, extrema with prominence, ESD) against their per-sample loop oracles."""
from fractions import Fraction

import numpy as np
import pytest
from conftest import loop_esd_time, loop_find_extrema, loop_find_g_crossings, loop_prominence
from hypothesis import given, settings
from hypothesis import strategies as st

import qdspin as q
from qdspin import evolution, measures
from qdspin.evolution import ExtremumKind, _prominence, find_extrema, find_g_crossings
from qdspin.magnetometry import G_EXTREMUM_PROMINENCE, esd_time, first_min_then_max, trajectory_for_field

PROMINENCES = (0.0, G_EXTREMUM_PROMINENCE, 0.5)

# exact repeats make plateaus; the values near 1 sit inside and just outside g's boundary band
_SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-12, 2e-12, 0.5, 1.0, 1.0 - 1e-7, 1.0 + 1e-7, 1.0 - 1e-5, 1.0 + 1e-5,
                     2.0, np.nan, np.inf, -np.inf]),
    st.floats(-3.0, 3.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def series(draw, sample=_SAMPLE) -> np.ndarray:
    """A sample series made of runs of 1-4 equal values."""
    runs = draw(st.lists(st.tuples(sample, st.integers(1, 4)), max_size=40))
    return np.repeat(np.array([v for v, _ in runs], dtype=float), [k for _, k in runs])


def _events(events) -> list:
    """Bit-exact comparable form of a list of extrema or kink events."""
    return [tuple(repr(x) if isinstance(x, float) else x for x in vars(e).values()) for e in events]


def _same_features(times, values):
    with np.errstate(all="ignore"):  # the parabolic vertex of extreme samples may overflow, on both sides
        for prominence in PROMINENCES:
            assert _events(find_extrema(times, values, prominence)) == \
                _events(loop_find_extrema(times, values, prominence))


def _g_at(t: float) -> float:
    return 1.0 + np.cos(3.0 * t)


def _same_crossings(times, g):
    calls, oracle_calls = [], []
    events = find_g_crossings(times, g, lambda t: calls.append(t) or _g_at(t))
    expected = loop_find_g_crossings(times, g, lambda t: oracle_calls.append(t) or _g_at(t))
    assert events == expected
    assert calls == oracle_calls


@settings(max_examples=300, deadline=None)
@given(series())
def test_extrema_match_the_loop_oracle(values):
    _same_features(0.02 * np.arange(values.size), values)


@settings(max_examples=300, deadline=None)
@given(series())
def test_prominence_matches_the_loop_oracle(values):
    with np.errstate(all="ignore"):
        for j in range(1, values.size - 1):
            if not np.isfinite(values[j]):
                continue
            for kind in ExtremumKind:
                # a zero prominence may differ in sign only; it enters find_extrema as `< min_prominence`
                assert _prominence(values, j, kind) == loop_prominence(values, j, kind)


@settings(max_examples=300, deadline=None)
@given(series())
def test_g_crossings_match_the_loop_oracle(g):
    _same_crossings(0.02 * np.arange(g.size), g)


@settings(max_examples=300, deadline=None)
@given(series(st.sampled_from([0.0, -0.0, 1e-12, 2e-12, 1e-3, 0.3, np.nan, np.inf, -np.inf])))
def test_esd_time_matches_the_loop_oracle(conc):
    times = 0.02 * np.arange(conc.size)
    assert esd_time(times, conc) == loop_esd_time(times, conc)


@pytest.fixture(scope="module", params=[0.0, 0.003], ids=["0mT", "3mT"])
def long_trajectory(request):
    """Trajectories on the default long grid (5476 times): g is noisy at 0 mT and crosses 1 three times at 3 mT."""
    return trajectory_for_field(q.RunConfig(t_max=6000.0, state="belldiag:a=0.3,b=0.25"), request.param)


def test_real_6000ns_series_match_the_loop_oracles(long_trajectory):
    tr = long_trajectory
    if tr.dot.b_field == 0.0:
        assert len(find_extrema(tr.times, tr.g)) > 1000  # the noise the prominence filter has to reject
        assert first_min_then_max(tr.times, tr.g) == (None, None)
    for values in (tr.g, tr.d_lower, tr.concurrence, tr.purity):
        finite = np.isfinite(values)
        _same_features(tr.times[finite], values[finite])
    assert esd_time(tr.times, tr.concurrence) == loop_esd_time(tr.times, tr.concurrence)
    _same_crossings(tr.times, tr.g)


def test_g_at_computes_only_g(monkeypatch):
    state0 = q.make_state(q.BellDiagonal(0.4, 0.4))
    traj = q.evolve(state0, q.channel_for_field(q.RunConfig(t_max=10.0), 0.1))
    grid_times = [float(t) for t in traj.times[::50]]
    one_time = [q.evolve(state0, q.compute_channel(traj.model, np.array([t]))).g[0] for t in grid_times]

    def forbidden(*args, **kwargs):
        raise AssertionError("g_at computed a measure other than g, or an evolved state")

    for name in ("_k_eigh", "concurrence", "singlet_triplet_weights", "bell_diagonal_params",
                 "evolve", "_evolved_rho", "_audit_evolved"):
        monkeypatch.setattr(evolution, name, forbidden)
    monkeypatch.setattr(measures, "g_ratio", forbidden)
    for k, t in enumerate(grid_times):
        assert traj.g_at(t) == one_time[k]
        # the channel at one time and inside the grid's factored sum agree to rounding
        assert traj.g_at(t) == pytest.approx(traj.g[50 * k], rel=0.0, abs=1e-12)


def test_g_column_is_exact_to_rounding_on_the_long_grid(long_trajectory):
    # exact rational g of the trajectory's own start-state T and applied (p, c), cell by cell
    tr = long_trajectory
    t = [[Fraction(float(x)) for x in row] for row in q.bloch_decompose(tr.state0).t_corr]
    finite = np.flatnonzero(np.isfinite(tr.g))
    assert finite.size > 5000
    worst = 0.0
    for k in finite:
        cr, ci, p = (Fraction(float(x)) for x in (tr.c[k].real, tr.c[k].imag, tr.p[k]))
        txx = cr * cr * t[0][0] + cr * ci * (t[0][1] + t[1][0]) + ci * ci * t[1][1]
        exact = abs(txx) / ((1 - 2 * p) ** 2 * abs(t[2][2]))
        worst = max(worst, abs(float(Fraction(float(tr.g[k])) - exact)))
    assert worst <= 4e-15
