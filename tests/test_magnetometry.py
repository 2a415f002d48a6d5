import numpy as np
import pytest

import qdspin as q
from qdspin.evolution import build_time_grid
from qdspin.magnetometry import (
    MonotonicityError,
    NormalizationError,
    SweepRequest,
    first_min_then_max,
    rescaled_integral,
    run_sweep,
    trajectory_for_field,
)
from qdspin.constants import InvalidParameterError


@pytest.fixture(scope="module")
def werner_traj_10mt():
    request = SweepRequest(state_spec=q.Werner(0.33), b_fields=(0.01,), metrics=("M",))
    return trajectory_for_field(request, 0.01)


def test_m_normalization_sanity():
    # constant D(t) = D(0) over the window integrates to the window length
    tr = trajectory_for_field(
        SweepRequest(state_spec=q.Werner(0.33), b_fields=(0.0,), metrics=("M",)), 0.0
    )
    tr.d_lower = np.full_like(tr.d_lower, tr.d_lower[0])
    tr.d_upper = tr.d_lower.copy()
    m_lo, m_hi = rescaled_integral(tr)
    assert m_lo == pytest.approx(20.0, rel=1e-12)
    assert m_hi == pytest.approx(20.0, rel=1e-12)


def test_m_requires_initial_discord(werner_traj_10mt):
    tr = werner_traj_10mt
    tr_zero = trajectory_for_field(
        SweepRequest(state_spec=q.Werner(0.0), b_fields=(0.01,), metrics=("M",)), 0.01
    )
    with pytest.raises(NormalizationError):
        rescaled_integral(tr_zero)
    assert rescaled_integral(tr)[0] > 0.0


def test_m_integration_step_convergence():
    request = SweepRequest(state_spec=q.Werner(0.33), b_fields=(0.02,), metrics=("M",), dt=0.02)
    request_fine = SweepRequest(state_spec=q.Werner(0.33), b_fields=(0.02,), metrics=("M",), dt=0.01)
    m_coarse = rescaled_integral(trajectory_for_field(request, 0.02))[0]
    m_fine = rescaled_integral(trajectory_for_field(request_fine, 0.02))[0]
    assert abs(m_coarse - m_fine) < 1e-4 * m_coarse


def test_esd_time_rules():
    times = np.arange(10.0)
    conc = np.array([0.5, 0.4, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert q.esd_time(times, conc) == 3.0
    # short dip does not count as death
    conc2 = np.array([0.5, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    assert q.esd_time(times, conc2) is None
    # separable input is dead from the start
    conc3 = np.zeros(10)
    assert q.esd_time(times, conc3) == 0.0


def test_esd_separable_werner():
    tr = trajectory_for_field(
        SweepRequest(state_spec=q.Werner(0.2), b_fields=(0.011,), metrics=("esd",)), 0.011
    )
    assert q.esd_time(tr.times, tr.concurrence) == 0.0


def test_first_min_then_max_b0_returns_none():
    tr = trajectory_for_field(
        SweepRequest(state_spec=q.Bell("psi-"), b_fields=(0.0,), metrics=("g-extrema",), t_max=50.0),
        0.0,
    )
    g_min, g_max = first_min_then_max(tr.times, tr.g)
    assert g_min is None and g_max is None


def test_sweep_table_and_csv(tmp_path):
    request = SweepRequest(
        state_spec=q.Werner(0.33),
        b_fields=(0.0, 0.02, 0.05),
        metrics=("M", "esd", "kinks"),
    )
    table = run_sweep(request)
    assert [r.b_field for r in table.rows] == [0.0, 0.02, 0.05]
    ms = table.column("m_lower")
    assert ms[0] < ms[1] < ms[2]
    path = tmp_path / "sweep.csv"
    table.to_csv(path, header_lines=["h=1"])
    lines = path.read_text().splitlines()
    assert lines[1].startswith("B_T,M,g_min_t,")
    assert len(lines) == 2 + 3


def test_sweep_rejects_bad_requests():
    with pytest.raises(InvalidParameterError):
        SweepRequest(state_spec=q.Werner(0.33), b_fields=(), metrics=("M",))
    with pytest.raises(InvalidParameterError):
        SweepRequest(state_spec=q.Werner(0.33), b_fields=(0.1, 0.0), metrics=("M",))
    with pytest.raises(InvalidParameterError):
        SweepRequest(state_spec=q.Werner(0.33), b_fields=(0.0, 0.0, 0.001), metrics=("M",))
    with pytest.raises(InvalidParameterError):
        SweepRequest(state_spec=q.Werner(0.33), b_fields=(0.0,), metrics=("bogus",))


def test_sweep_workers_do_not_change_results():
    request = SweepRequest(
        state_spec=q.Werner(0.33), b_fields=(0.0, 0.03), metrics=("M",), dt=0.05
    )
    serial = run_sweep(request, workers=1)
    parallel = run_sweep(request, workers=2)
    for a, b in zip(serial.rows, parallel.rows):
        assert a.m_lower == b.m_lower and a.m_upper == b.m_upper


def test_calibration_curve_and_inversion():
    b = np.array([0.0, 1.0, 2.0, 3.0]) * 1e-3
    curve = q.CalibrationCurve(quantity="M", b_knots=b, values=np.array([1.0, 2.0, 4.0, 8.0]),
                               monotone=True)
    exact = q.invert_field(curve, 4.0)
    assert exact.b_estimate == pytest.approx(2e-3)
    assert exact.bracket == (2e-3, 2e-3)
    mid = q.invert_field(curve, 3.0)
    assert 1e-3 < mid.b_estimate < 2e-3
    assert mid.bracket == (1e-3, 2e-3)
    with pytest.raises(InvalidParameterError):
        q.invert_field(curve, 9.0)


def test_inversion_refuses_non_monotone():
    curve = q.CalibrationCurve(
        quantity="g_min_value",
        b_knots=np.array([0.0, 1.0, 2.0]),
        values=np.array([0.5, 0.1, 0.3]),
        monotone=False,
    )
    with pytest.raises(MonotonicityError, match="two quantities"):
        q.invert_field(curve, 0.2)


def test_calibration_from_sweep_g_extrema():
    # the g-minimum depth is non-monotone in field; the g-maximum value is monotone
    request = SweepRequest(
        state_spec=q.Bell("psi-"),
        b_fields=(0.5e-3, 1.5e-3, 3e-3, 5e-3),
        metrics=("g-extrema",),
        t_max=50.0,
    )
    table = run_sweep(request)
    max_curve = q.calibration_curve(table, "g_max_value")
    assert max_curve.monotone
    est = q.invert_field(max_curve, float(np.mean(max_curve.values[1:3])))
    assert max_curve.b_knots[0] < est.b_estimate < max_curve.b_knots[-1]
    min_curve = q.calibration_curve(table, "g_min_value")
    assert not min_curve.monotone
    with pytest.raises(MonotonicityError):
        q.invert_field(min_curve, 0.2)


def test_long_time_discord_requires_coverage(werner_traj_10mt):
    with pytest.raises(InvalidParameterError):
        q.long_time_discord(werner_traj_10mt)
