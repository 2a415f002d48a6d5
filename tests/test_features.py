"""Feature scanners (g crossings, extrema with prominence, ESD) against their per-sample loop oracles."""
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    loop_esd_time,
    loop_find_extrema,
    loop_find_g_crossings,
    loop_prominence,
    whole_series_prominence,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import qdspin as q
from qdspin.channel import _uniform_runs
from qdspin.evolution import (
    KINK_SECTIONS,
    KINK_T_TOL,
    ExtremumKind,
    KinkEvent,
    _prominences,
    find_extrema,
    find_g_crossings,
)
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


def _same_crossings(times, g, t0):
    # g_on crosses 1 once, at t0, so no bracket holds two roots and both refinements end at the same one
    def g_on(t):
        return 1.0 + 0.3 * (t0 - np.asarray(t))

    events = find_g_crossings(times, g, g_on)
    expected = loop_find_g_crossings(times, g, g_on)
    assert [e.direction for e in events] == [e.direction for e in expected]
    for e, x in zip(events, expected):
        assert abs(e.t_cross_ns - x.t_cross_ns) <= KINK_T_TOL


@settings(max_examples=300, deadline=None)
@given(series())
def test_extrema_match_the_loop_oracle(values):
    _same_features(0.02 * np.arange(values.size), values)


@settings(max_examples=300, deadline=None)
@given(series())
def test_prominence_matches_the_loop_oracle(values):
    peaks = np.array([j for j in range(1, values.size - 1) if np.isfinite(values[j])], dtype=int)
    with np.errstate(all="ignore"):
        for kind in ExtremumKind:
            got = _prominences(values, peaks, np.full(peaks.size, kind is ExtremumKind.MAXIMUM))
            for j, prominence in zip(peaks, got):
                # a zero prominence may differ in sign only; it enters find_extrema as `< min_prominence`
                assert prominence == loop_prominence(values, j, kind) == whole_series_prominence(values, j, kind)


def test_prominence_search_reads_the_whole_series_where_it_must():
    # ascending maxima: no left side holds a higher sample, so each search passes every window to the
    # series' start; each right side ends at the next maximum, and the last one's at the end
    n = 1001
    values = np.where(np.arange(n) % 2 == 1, 1.0 + 1e-3 * np.arange(n), -1e-3 * np.arange(n))
    peaks = np.arange(1, n - 1)
    maxima = values[peaks] > 0.0
    got = _prominences(values, peaks, maxima)
    kinds = np.where(maxima, ExtremumKind.MAXIMUM, ExtremumKind.MINIMUM)
    assert got.tolist() == [whole_series_prominence(values, j, kind) for j, kind in zip(peaks, kinds)]


@settings(max_examples=300, deadline=None)
@given(series(), st.floats(0.0, 1.0))
def test_g_crossings_match_the_loop_oracle(g, root):
    times = 0.02 * np.arange(g.size)
    _same_crossings(times, g, root * (times[-1] if g.size else 0.0))


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
        # and against the search of each side's whole series, the events `first_min_then_max` reads
        expected = loop_find_extrema(tr.times[finite], values[finite], G_EXTREMUM_PROMINENCE, whole_series_prominence)
        assert _events(find_extrema(tr.times[finite], values[finite], G_EXTREMUM_PROMINENCE)) == _events(expected)
    assert esd_time(tr.times, tr.concurrence) == loop_esd_time(tr.times, tr.concurrence)
    for t0 in (23.3913, 1234.5678):  # on the dense prefix and in the coarse tail
        _same_crossings(tr.times, tr.g, t0)


def test_g_on_is_evolve_on_the_model():
    state0 = q.make_state(q.BellDiagonal(0.4, 0.4))
    traj = q.evolve(state0, q.channel_for_field(q.RunConfig(t_max=10.0), 0.1))
    grid_times = traj.times[::50]
    off_grid = np.array([4.67, 4.6701, 0.013, 9.999])
    for times in (grid_times, off_grid, off_grid[:1]):
        assert np.array_equal(traj.g_on(times), q.evolve(state0, q.compute_channel(traj.model, times)).g)
    # the channel at a few times and inside the grid's factored sum agree to rounding
    assert np.abs(traj.g_on(grid_times) - traj.g[::50]).max() <= 1e-12


# the models the refinement is held to the bisection oracle on: check 2's field, two crossings at
# 1 mT, and the 200 ns grid, whose 2 ns coarse-tail brackets hold four of its six crossings
REFINED_FIELDS = [("belldiag:a=0.4,b=0.4", 20.0, 0.1), ("belldiag:a=0.3,b=0.25", 50.0, 0.001),
                  ("entfam:a=0.1,alpha=0.5,beta=0.3", 200.0, 0.001)]


def _refined_like_the_oracle(tr) -> list:
    """The kinks of `tr` against the bisection oracle on its model; returns the evaluator's batches.

    Each open bracket's times in a batch, its left end and interior cut points in round 1 and the
    interior ones later, are one uniform run of the channel.
    """
    batches = []
    events = find_g_crossings(tr.times, tr.g, lambda t: batches.append(t) or tr.g_on(t))
    for k, batch in enumerate(batches):
        assert len(_uniform_runs(batch)) == batch.size // (KINK_SECTIONS if k == 0 else KINK_SECTIONS - 1)
    expected = loop_find_g_crossings(tr.times, tr.g, lambda t: float(tr.g_on(np.array([t]))[0]))
    assert [e.direction for e in events] == [e.direction for e in expected]
    for e, x in zip(events, expected):
        step = np.diff(tr.times)[np.searchsorted(tr.times, x.t_cross_ns) - 1]
        assert abs(e.t_cross_ns - x.t_cross_ns) <= (1e-12 if step <= 0.02 + 1e-12 else KINK_T_TOL)
    return batches


@pytest.mark.parametrize("state,t_max,b", REFINED_FIELDS)
def test_refined_kinks_match_the_bisection_oracle(state, t_max, b):
    tr = trajectory_for_field(q.RunConfig(t_max=t_max, state=state), b)
    batches = _refined_like_the_oracle(tr)
    assert len(batches) == (5 if t_max == 200.0 else 3)  # 2 ns brackets take five rounds, 0.02 ns three


def test_refined_long_grid_kinks_match_the_bisection_oracle(long_trajectory):
    tr = long_trajectory
    batches = _refined_like_the_oracle(tr)
    # three crossings cost three evaluator calls, no crossing none
    assert len(batches) == (3 if tr.dot.b_field else 0)
    if batches:
        assert [b.size for b in batches] == [3 * KINK_SECTIONS, 3 * (KINK_SECTIONS - 1), 3 * (KINK_SECTIONS - 1)]


@pytest.mark.parametrize("root", [0.001, 0.3, 0.97, 0.99, 0.9999])
def test_a_root_in_any_sub_interval_is_found(root):
    # 0.97 and beyond lie in the last of the first round's sub-intervals, 0.001 in the first
    times, g = np.array([0.0, 1.0]), np.array([2.0, 0.5])

    def g_on(t):
        return 1.0 + 0.5 * (root - np.asarray(t))

    (event,) = find_g_crossings(times, g, g_on)
    assert event.direction == "down"
    assert abs(event.t_cross_ns - root) <= KINK_T_TOL
    # on [0, 1] both refinements cut at the same dyadic points, exactly
    assert [event] == loop_find_g_crossings(times, g, g_on)


def test_an_exact_root_collapses_its_bracket():
    batches = []

    def g_on(t):  # exactly 1 at t = 0.5, the first round's 16th cut point
        batches.append(t)
        return 1.0 + (0.5 - np.asarray(t))

    assert find_g_crossings(np.array([0.0, 1.0]), np.array([2.0, 0.0]), g_on) == [KinkEvent(0.5, "down")]
    assert len(batches) == 1


def test_a_bracket_that_stops_narrowing_ends():
    # near 1e10 ns neighbouring doubles lie 1.9e-6 ns apart, wider than KINK_T_TOL, and no double is the root
    t0 = 1e10 + 0.0123
    batches = []

    def g_on(t):
        batches.append(t)
        assert len(batches) <= 10, "the refinement does not end"
        return 1.0 + ((t0 - t) - 1e-7)

    (event,) = find_g_crossings(np.array([1e10, 1e10 + 0.02]), np.array([2.0, 0.0]), g_on)
    assert abs(event.t_cross_ns - t0) <= 4 * np.spacing(t0)


@pytest.mark.parametrize("g_on,expected", [
    (lambda t: np.where(np.asarray(t) < 0.3, 2.0, np.nan), 0.3),  # above, then nan: a crossing down
    (lambda t: np.where(np.asarray(t) < 0.3, np.nan, 2.0), 0.3),  # a nan left end is below
])
def test_nan_counts_as_below_one(g_on, expected):
    times, g = np.array([0.0, 1.0]), np.array([2.0, 0.5])
    (event,) = find_g_crossings(times, g, g_on)
    assert abs(event.t_cross_ns - expected) <= KINK_T_TOL
    assert [event] == loop_find_g_crossings(times, g, lambda t: float(g_on(t)))


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
