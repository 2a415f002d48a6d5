import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

import qdspin as q
from qdspin import evolution, magnetometry
from qdspin.config import RunConfig
from qdspin.cli import main
from qdspin.magnetometry import (
    BOUND_SPLIT_FRACTION,
    CHANNEL_MEMO_SIZE,
    REVIVAL_WINDOW,
    MonotonicityError,
    NormalizationError,
    _simpson,
    bound_separation_onset,
    channel_for_field,
    first_min_then_max,
    low_field_revival,
    rescaled_integral,
    run_sweep,
    trajectory_for_field,
)
from qdspin.constants import InvalidParameterError
from qdspin.evolution import find_g_crossings


@pytest.fixture(scope="module")
def werner_traj_10mt():
    return trajectory_for_field(RunConfig(state="werner:p=0.33"), 0.01)


def test_channel_for_field_applies_the_run_description():
    # t_max / dt = 1000.75 rounds the grid up to 20.02 ns; the model is sized from that last time
    config = RunConfig(g_factor=0.5, t_max=20.015)
    chan = channel_for_field(config, 0.01)
    assert chan.times[-1] == pytest.approx(20.02) and chan.model.t_max_ns == chan.times[-1]
    assert chan.model.dot == chan.dot == config.dot(0.01)
    # the node rule's counts for that dot and last time
    rule = q.build_quadrature(config.dot(0.01), float(chan.times[-1])).node_counts
    assert (chan.m_count, chan.q_count) == chan.model.node_counts == rule == (32, 32)


@pytest.fixture
def empty_memo():
    magnetometry._channel_memo.cache_clear()
    yield magnetometry._channel_memo
    magnetometry._channel_memo.cache_clear()


def test_channel_memo_hit_keeps_the_bits_and_is_read_only(empty_memo):
    config = RunConfig(t_max=5.0)
    chan = channel_for_field(config, 0.02)
    assert channel_for_field(replace(config, state="werner:p=0.33"), 0.02) is chan  # the start state is no key
    assert empty_memo.cache_info()[:2] == (1, 1)  # one hit, one miss
    times = evolution.build_time_grid(5.0, 0.02)
    direct = q.compute_channel(q.build_quadrature(config.dot(0.02), float(times[-1])), times)
    for name in ("times", "p", "c"):
        assert getattr(chan, name).tobytes() == getattr(direct, name).tobytes(), name
    for array in (chan.times, chan.p, chan.c, chan.model.p.freq, chan.model.slow.sin, chan.model.fast.vers):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # a trajectory on the shared channel holds writable copies of its columns
    tr = q.evolve(q.make_state(q.Bell("psi-")), chan)
    tr.p[0] = 0.5
    assert chan.p[0] == 0.0


def test_channel_memo_keys_on_what_the_channel_depends_on(empty_memo):
    config = RunConfig(t_max=2.0)
    base = channel_for_field(config, 0.0)
    for other, b in ((config, -0.0), (replace(config, t_max=3.0), 0.0), (replace(config, dt=0.05), 0.0),
                     (replace(config, g_factor=0.5), 0.0), (config, 1e-3)):
        assert channel_for_field(other, b) is not base
    assert empty_memo.cache_info().misses == 6
    # -0.0 keeps its own entry, and its channel carries the sign the dot was given
    assert str(channel_for_field(config, -0.0).dot.b_field) == "-0.0"
    assert str(channel_for_field(config, 0.0).dot.b_field) == "0.0"


def test_channel_memo_evicts_at_its_bound(empty_memo):
    config = RunConfig(t_max=1.0)
    fields = [1e-3 * k for k in range(CHANNEL_MEMO_SIZE + 1)]
    first = channel_for_field(config, fields[0])
    for b in fields[1:]:
        channel_for_field(config, b)
    info = empty_memo.cache_info()
    assert (info.currsize, info.maxsize, info.misses) == (CHANNEL_MEMO_SIZE, CHANNEL_MEMO_SIZE, len(fields))
    again = channel_for_field(config, fields[0])  # the least recently used entry went
    assert again is not first and empty_memo.cache_info().misses == len(fields) + 1
    assert channel_for_field(config, fields[-1]) is channel_for_field(config, fields[-1])


@pytest.mark.parametrize("b", ["0", "-0.0"])
def test_memo_keeps_each_signed_zero_field_s_output(b, tmp_path, empty_memo):
    # each zero prints its own sign; the other one in the memo first changes no byte
    args = ["evolve", "--state", "werner:p=0.33", "--tmax", "2"]
    assert main([*args, f"--b={b}", "--out", str(tmp_path / "alone.csv"),
                 "--channel-out", str(tmp_path / "alone-chan.csv")]) == 0
    empty_memo.cache_clear()
    other = "-0.0" if b == "0" else "0"
    assert main([*args, f"--b={other}", "--out", str(tmp_path / "other.csv")]) == 0
    assert main([*args, f"--b={b}", "--out", str(tmp_path / "after.csv"),
                 "--channel-out", str(tmp_path / "after-chan.csv")]) == 0
    assert empty_memo.cache_info().currsize == 2
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
    assert (tmp_path / "after-chan.csv").read_bytes() == (tmp_path / "alone-chan.csv").read_bytes()
    sign = "-" if b.startswith("-") else ""
    assert f"# b_tesla={sign}0\n" in (tmp_path / "after.csv").read_text()


def test_repeated_evolve_writes_the_same_bytes(tmp_path, empty_memo):
    args = ["evolve", "--state", "belldiag:a=0.4,b=0.4", "--b", "0.1", "--tmax", "10"]
    for name in ("first", "second"):
        assert main([*args, "--out", str(tmp_path / f"{name}.csv"),
                     "--channel-out", str(tmp_path / f"{name}-chan.csv")]) == 0
    assert empty_memo.cache_info()[:2] == (1, 1)
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
    assert (tmp_path / "first-chan.csv").read_bytes() == (tmp_path / "second-chan.csv").read_bytes()


def test_sweep_workers_and_the_memo_write_the_same_bytes(tmp_path, empty_memo):
    # workers fill their own memos first; then the parent computes afresh, and then workers start from its memo
    args = ["sweep", "--metric", "all", "--b", "0.011,0.0165", "--state", "belldiag:a=0.4,b=0.4", "--tmax", "10"]
    outputs = []
    for k, workers in enumerate(("2", "1", "2")):
        assert main([*args, "--workers", workers, "--out", str(tmp_path / f"{k}.csv")]) == 0
        outputs.append((tmp_path / f"{k}.csv").read_bytes())
    assert empty_memo.cache_info().misses == 2
    assert outputs[0] == outputs[1] == outputs[2]


def test_m_normalization_sanity():
    # constant D(t) = D(0) over the window integrates to the window length
    tr = trajectory_for_field(RunConfig(state="werner:p=0.33"), 0.0)
    tr.d_lower = np.full_like(tr.d_lower, tr.d_lower[0])
    assert rescaled_integral(tr) == pytest.approx(20.0, rel=1e-12)


def test_m_requires_initial_discord(werner_traj_10mt):
    tr = werner_traj_10mt
    tr_zero = trajectory_for_field(RunConfig(state="werner:p=0"), 0.01)
    with pytest.raises(NormalizationError) as err:
        rescaled_integral(tr_zero)
    assert isinstance(err.value, InvalidParameterError)
    assert rescaled_integral(tr) > 0.0


@pytest.mark.parametrize("n", [*range(3, 41), 1001, 1002])
def test_simpson_is_scipy_to_the_bit(n):
    # scipy is the reference: the same arithmetic in the same order gives the same float
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    uniform = np.linspace(rng.uniform(-5, 5), rng.uniform(6, 30), n)
    spread = rng.uniform(-5, 5) + np.cumsum(rng.uniform(1e-3, 2.0, n))
    for x in (uniform, spread):
        assert _simpson(y, x) == float(simpson(y, x=x))


def test_m_is_scipy_simpson_over_d0(werner_traj_10mt):
    tr = werner_traj_10mt
    mask = tr.times <= 20.0 + 1e-12
    assert rescaled_integral(tr) == float(simpson(tr.d_lower[mask], x=tr.times[mask])) / tr.d_lower[0]


def test_m_integration_step_convergence():
    config = RunConfig(state="werner:p=0.33", dt=0.02)
    config_fine = RunConfig(state="werner:p=0.33", dt=0.01)
    m_coarse = rescaled_integral(trajectory_for_field(config, 0.02))
    m_fine = rescaled_integral(trajectory_for_field(config_fine, 0.02))
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
    tr = trajectory_for_field(RunConfig(state="werner:p=0.2", metric="esd"), 0.011)
    assert q.esd_time(tr.times, tr.concurrence) == 0.0


def test_first_min_then_max_b0_returns_none():
    tr = trajectory_for_field(RunConfig(state="bell:psi-", metric="g-extrema", t_max=50.0), 0.0)
    g_min, g_max = first_min_then_max(tr.times, tr.g)
    assert g_min is None and g_max is None


def test_long_grid_sweep_of_every_metric_finds_the_features(tmp_path):
    # `sweep --metric all` at defaults runs the 6000 ns grid; g is noisy at 0 mT and crosses 1 three
    # times at 3 mT, and a RuntimeWarning on the way fails the test (pyproject's filter)
    out = tmp_path / "features.csv"
    assert main(["sweep", "--metric", "all", "--b", "0,0.003", "--state", "belldiag:a=0.3,b=0.25",
                 "--out", str(out)]) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [float(r["B_T"]) for r in rows] == [0.0, 0.003]
    zero, three = rows
    assert zero["g_min_t"] == zero["g_max_t"] == zero["kink_times"] == ""
    assert float(zero["esd_t"]) == pytest.approx(2.62) and float(zero["d_longtime"]) > 0.0
    assert len(three["kink_times"].split(";")) == 3
    assert all(three[name] != "" for name in ("g_min_t", "g_min_val", "g_max_t", "g_max_val"))


def test_sweep_table_and_csv(tmp_path):
    config = RunConfig(
        state="werner:p=0.33",
        b_fields=[0.0, 0.02, 0.05],
        metric="all",
        longtime_window=[15.0, 20.0],
    )
    table = run_sweep(config)
    assert [r["B_T"] for r in table.rows] == [0.0, 0.02, 0.05]
    ms = [r["M"] for r in table.rows]
    assert ms[0] < ms[1] < ms[2]
    path = tmp_path / "sweep.csv"
    table.to_csv(path, header_lines=["h=1"])
    lines = path.read_text().splitlines()
    assert lines[1].startswith("B_T,M,g_min_t,")
    assert len(lines) == 2 + 3


def test_sweep_kink_cell_is_the_evolve_kink_header(tmp_path):
    # one refinement on the channel model answers both commands, crossing for crossing;
    # the window's end stretches the sweep to the 30 ns grid that holds all three crossings
    state, b = "belldiag:a=0.3,b=0.25", 0.003
    config = RunConfig(state=state, b_fields=[b], metric="all", longtime_window=[15.0, 30.0])
    (row,) = run_sweep(config).rows
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--state", state, "--b", repr(b), "--tmax", "30", "--out", str(out)]) == 0
    header = next(l for l in out.read_text().splitlines() if "kink_times_ns=" in l)
    assert len(row["kink_times"].split(";")) == 3
    assert row["kink_times"] == header.split("kink_times_ns=")[1]


def test_sweep_rejects_bad_requests():
    with pytest.raises(InvalidParameterError):
        run_sweep(RunConfig(state="werner:p=0.33", b_fields=[]))
    with pytest.raises(InvalidParameterError):
        run_sweep(RunConfig(state="werner:p=0.33", b_fields=[0.1, 0.0]))
    with pytest.raises(InvalidParameterError):
        run_sweep(RunConfig(state="werner:p=0.33", b_fields=[0.0, 0.0, 0.001]))
    with pytest.raises(InvalidParameterError):
        RunConfig(state="werner:p=0.33", metric="bogus")


def test_sweep_workers_do_not_change_results():
    config = RunConfig(state="werner:p=0.33", b_fields=[0.0, 0.03], dt=0.05, workers=1)
    serial = run_sweep(config)
    parallel = run_sweep(replace(config, workers=2))
    for a, b in zip(serial.rows, parallel.rows):
        assert a["M"] == b["M"]


def test_sweep_rejects_non_positive_worker_count():
    with pytest.raises(InvalidParameterError, match="workers must be a positive integer"):
        run_sweep(RunConfig(state="werner:p=0.33", workers=0))


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
    with pytest.raises(MonotonicityError, match=r"'g_min_value' stops falling at B = 1 T, .*only a monotone stretch"):
        q.invert_field(curve, 0.2)


def test_calibration_from_sweep_g_extrema():
    # the g-minimum depth is non-monotone in field; the g-maximum value is monotone
    config = RunConfig(
        state="bell:psi-",
        b_fields=[0.5e-3, 1.5e-3, 3e-3, 5e-3],
        metric="g-extrema",
        t_max=50.0,
    )
    table = run_sweep(config)
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


def test_long_time_window_keeps_a_sample_rounded_past_its_end():
    # t_max stretches to the window's end, 3.3 ns, and the grid ends on 3.3000000000000003
    config = RunConfig(state="bell:psi-", b_fields=[0.01], metric="longtime", t_max=1.0, longtime_window=[3.0, 3.3])
    table = run_sweep(config)
    (row,) = table.rows
    tr = trajectory_for_field(table.config, 0.01)
    assert tr.times[-1] > 3.3
    window = tr.times >= 3.0 - 1e-12
    assert window.sum() == 16
    assert row["d_longtime"] == q.long_time_discord(tr, (3.0, 3.3)) == float(np.mean(tr.d_lower[window]))


def test_longtime_window_off_a_step_is_named():
    # the window's end becomes t_max, so a grid that cannot end there names the window, not a t_max never set
    config = RunConfig(state="bell:psi-", b_fields=[0.0], metric="longtime", longtime_window=[4000.0, 6001.0])
    with pytest.raises(InvalidParameterError, match=r"longtime_window=\[4000.*6001.*\]: a time grid to "
                                                    r"t_max=6001 ns .* ends at 6000 ns.* 50 ns plus a whole "
                                                    r"number of 2 ns steps"):
        run_sweep(config)


def test_m_sweep_echoes_the_window_it_integrated(tmp_path):
    # the 1 ns grid ends inside the default 20 ns window: M integrates [0, 1] ns, and the echo says so
    out = tmp_path / "m.csv"
    assert main(["sweep", "--metric", "M", "--tmax", "1", "--b", "0.01", "--state", "werner:p=0.33",
                 "--out", str(out)]) == 0
    echo = next(l for l in out.read_text().splitlines() if l.startswith("# config="))
    assert json.loads(echo.removeprefix("# config="))["m_window"] == [0.0, 1.0]
    tr = trajectory_for_field(RunConfig(state="werner:p=0.33", t_max=1.0), 0.01)
    m = float(out.read_text().splitlines()[-1].split(",")[1])
    assert m == rescaled_integral(tr, (0.0, 20.0)) == rescaled_integral(tr, (0.0, 1.0))
    # a window the grid holds is applied and echoed as given
    config = RunConfig(state="werner:p=0.33", b_fields=[0.01], metric="M", t_max=1.0, m_window=[0.0, 0.5])
    assert run_sweep(config).config.m_window == [0.0, 0.5]


def test_m_window_past_the_grid_end_is_named():
    config = RunConfig(state="werner:p=0.33", b_fields=[0.01], metric="M", t_max=1.0, m_window=[1.0, 3.0])
    with pytest.raises(InvalidParameterError,
                       match=r"m_window=\[1\.0, 3\.0\] starts at or past the time grid's end at 1 ns"):
        run_sweep(config)


def _forbid(monkeypatch, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep computed a measure its metric does not read")

    for name in names:
        monkeypatch.setattr(evolution, name, forbidden)


@pytest.mark.parametrize("metric", ["M", "longtime"])
def test_discord_metrics_skip_the_other_measures(monkeypatch, metric):
    config = RunConfig(state="belldiag:a=0.4,b=0.4", b_fields=[0.0, 0.02], metric=metric,
                       longtime_window=[150.0, 200.0])
    expected = run_sweep(config).rows
    _forbid(monkeypatch, "concurrence", "_g_of", "singlet_triplet_weights", "bell_diagonal_params",
            "_upper_bound")
    assert run_sweep(config).rows == expected


def test_esd_metric_skips_the_discord_bounds(monkeypatch):
    config = RunConfig(state="bell:psi-", b_fields=[0.0, 0.05], metric="esd", t_max=50.0)
    expected = run_sweep(config).rows
    assert expected[1]["esd_t"] is not None
    _forbid(monkeypatch, "_k_eigh", "_lower_bound", "_upper_bound", "_evolved_bloch")
    assert run_sweep(config).rows == expected


def test_m_sweep_of_x_form_starts_runs_no_eigh(monkeypatch):
    # the M sweep of a Bell psi, Werner or Bell-diagonal start reads every K off its diagonal;
    # the phase state is not of X form and takes one batched eigh per field
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    for spec in ("werner:p=0.33", "bell:psi-", "belldiag:a=0.4,b=0.4", "phase:gamma=2.35619449"):
        calls.clear()
        run_sweep(RunConfig(state=spec, b_fields=[0.0, 0.0123], metric="M"))
        assert calls == ([(2, 1001, 3, 3)] * 2 if spec.startswith("phase") else []), spec


@pytest.mark.parametrize("spec", ["bell:psi-", "werner:p=0.33", "belldiag:a=0.4,b=0.4", "bell:phi+",
                                  "phase:gamma=2.35619449"])
def test_x_form_rows_build_no_stack(spec, monkeypatch):
    # M, longtime, g-extrema and kink rows read the Bloch map alone: no start, of X form or not (the
    # phase state), builds an (n, 4, 4) stack or factors anything
    built, factored = [], []
    evolved_rho, cholesky = evolution._evolved_rho, np.linalg.cholesky
    monkeypatch.setattr(evolution, "_evolved_rho", lambda rho0, p, c: built.append(p.size) or evolved_rho(rho0, p, c))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a.shape) or cholesky(a))
    config = RunConfig(state=spec, b_fields=[0.0, 0.003, 0.1], t_max=50.0, longtime_window=[40.0, 50.0])
    for metric in ("M", "longtime", "g-extrema"):
        run_sweep(replace(config, metric=metric))
    traj = trajectory_for_field(config, 0.1)
    kinks = find_g_crossings(traj.times, traj.g, traj.g_on)
    assert bool(kinks) == (spec == "belldiag:a=0.4,b=0.4")
    assert built == [] and factored == []
    assert "rho" not in vars(traj)


def test_run_paths_decompose_only_start_states(monkeypatch, tmp_path):
    # the bounds and g read the start state's Bloch form mapped along the channel, never a decomposed stack
    shapes = []

    def start_only(state):
        shapes.append(np.shape(getattr(state, "rho", state)))
        return q.bloch_decompose(state)

    monkeypatch.setattr(evolution, "bloch_decompose", start_only)
    assert main(["evolve", "--state", "bell:psi-", "--b", "0.003", "--out", str(tmp_path / "t.csv")]) == 0
    for metric in ("M", "longtime", "all"):
        run_sweep(RunConfig(state="belldiag:a=0.3,b=0.25", b_fields=[0.0, 0.003], metric=metric, t_max=50.0,
                            longtime_window=[150.0, 200.0]))
    tr = trajectory_for_field(RunConfig(state="werner:p=0.33"), 0.01)
    tr.g_on(np.array([3.0, 3.01]))
    assert shapes and set(shapes) == {(4, 4)}


def test_bound_separation_onset_is_the_first_gap_past_its_fraction():
    assert BOUND_SPLIT_FRACTION == 0.01
    chan = channel_for_field(RunConfig(t_max=20.0), 1.0)
    traj = q.evolve(q.make_state(q.PhaseFamily(0.75 * np.pi)), chan)
    onset = bound_separation_onset(traj)
    split = traj.ds_upper - traj.ds_lower > 0.01 * traj.ds_lower[0]
    k = int(np.argmax(split))
    assert split[k] and not split[:k].any() and onset == traj.times[k]
    # the real-phase member's bounds never part
    assert bound_separation_onset(q.evolve(q.make_state(q.PhaseFamily(np.pi)), chan)) is None


def test_low_field_revival_reads_the_minimum_in_its_window_and_the_maximum_after_it():
    traj = trajectory_for_field(RunConfig(t_max=200.0), 0.0)
    rev = low_field_revival(traj)
    inside = (traj.times > REVIVAL_WINDOW[0]) & (traj.times < REVIVAL_WINDOW[1])
    assert rev.d_min == traj.d_lower[inside].min() and REVIVAL_WINDOW[0] < rev.t_min < REVIVAL_WINDOW[1]
    after = traj.times >= rev.t_min
    assert rev.d_max == traj.d_lower[after].max() and rev.t_max >= rev.t_min
    assert traj.d_lower[traj.times == rev.t_max] == rev.d_max


def test_low_field_revival_refuses_a_trajectory_with_no_time_in_its_window():
    # a 0.4 ns grid ends before the window opens at 0.5 ns
    traj = trajectory_for_field(RunConfig(t_max=0.4), 0.0)
    with pytest.raises(InvalidParameterError, match=r"revival window \(0\.5, 100\.0\)"):
        low_field_revival(traj)
