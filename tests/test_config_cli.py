import contextlib
import inspect
import io
import json
import os
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdspin as q
from qdspin import channel, cli, magnetometry
from qdspin.channel import MAX_QUADRATURE_NODES, build_quadrature
from qdspin.cli import main
from qdspin.config import (
    COMMAND_FIELDS,
    MAX_FIELD_POINTS,
    NORMALIZE_MODES,
    RunConfig,
    header_lines,
    parse_b_values,
    parse_state_spec,
)
from qdspin.constants import DotParameters, InvalidParameterError
from qdspin.evolution import build_time_grid
from qdspin.magnetometry import METRIC_SETS


def _loaded(command: str, data, *flags: str) -> RunConfig:
    """The configuration `command` applies from a config file holding `data`, with `flags` set over it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(data))
        return cli._load_config(cli._build_parser().parse_args([command, "--config", str(path), *flags]))


def _echo(config: RunConfig, command: str) -> dict:
    """The config echo of a CSV that `command` writes for `config`."""
    return json.loads(header_lines(config, command)[1].removeprefix("config="))


def test_config_roundtrip_default():
    # a header echo is a config file that loads back to the configuration it echoes
    for command in COMMAND_FIELDS:
        assert _loaded(command, _echo(RunConfig(), command)) == RunConfig()


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=200.0),
    st.floats(min_value=1e3, max_value=1e7),
    st.sampled_from(["none", "initial", "half"]),
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=4),
)
def test_config_roundtrip_random(a_total, n_nuclei, normalize, b_fields):
    config = RunConfig(a_total=a_total, n_nuclei=n_nuclei, normalize=normalize, b_fields=b_fields)
    assert _loaded("evolve", _echo(config, "evolve")) == config


def test_config_defaults_reproduce_material_parameters():
    config = RunConfig()
    dot = config.dot(0.0)
    assert dot.a_total == 83.0
    assert dot.n_nuclei == 1.5e6
    assert dot.i_nuclear == 1.5
    assert dot.g_factor == 0.44


def test_material_and_grid_defaults_are_written_once():
    config, dot = RunConfig(), DotParameters()
    for name in ("a_total", "n_nuclei", "i_nuclear", "g_factor"):
        assert getattr(config, name) == getattr(dot, name)
    defaults = {name: p.default for name, p in inspect.signature(build_time_grid).parameters.items()
                if p.default is not inspect.Parameter.empty}
    assert defaults == {"dt": config.dt}


def test_config_rejects_unknown_keys():
    for command in COMMAND_FIELDS:
        with pytest.raises(InvalidParameterError, match=r"^unknown config keys \['bogus'\]$"):
            _loaded(command, {"bogus": 1})


def test_config_overrides_win():
    config = _loaded("evolve", {"t_max": 20.0}, "--tmax", "50")
    assert config.t_max == 50.0 and config.dt == 0.02


def test_parse_state_specs():
    assert parse_state_spec("bell:psi-") == q.Bell("psi-")
    assert parse_state_spec("werner:p=0.33") == q.Werner(0.33)
    assert parse_state_spec("belldiag:a=0.4,b=0.4") == q.BellDiagonal(0.4, complex(0.4, 0.0))
    spec = parse_state_spec("phase:gamma=1.5707963")
    assert spec.gamma == pytest.approx(np.pi / 2, abs=1e-6)
    assert parse_state_spec("entfam:a=0.25").a == 0.25
    with pytest.raises(InvalidParameterError):
        parse_state_spec("nonsense:1")
    with pytest.raises(InvalidParameterError):
        parse_state_spec("werner:q=0.1")


def test_parse_b_values():
    assert parse_b_values("0.011") == [0.011]
    assert parse_b_values("0,0.003,1.0") == [0.0, 0.003, 1.0]
    vals = parse_b_values("0:0.1:0.005")
    assert len(vals) == 21 and vals[0] == 0.0 and vals[-1] == pytest.approx(0.1)
    with pytest.raises(InvalidParameterError):
        parse_b_values("")
    with pytest.raises(InvalidParameterError):
        parse_b_values("0:1:-0.1")


def test_cli_evolve_row_count_and_header(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["evolve", "--state", "bell:psi-", "--b", "0.011", "--tmax", "20", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    headers = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0].startswith("t_ns,")
    assert len(rows) - 1 == 1001
    joined = "\n".join(headers)
    assert "qdspin_version=" in joined
    assert "b_mt=11" in joined
    assert "kink_times_ns=none" in joined
    # the channel sums 590 of its 32 x 32 nodes; the rest weigh below 1e-20 together
    i = headers.index("# quadrature_m_nodes=32")
    assert headers[i + 1 : i + 3] == ["# quadrature_q_nodes=32", "# quadrature_nodes_summed=590"]


def test_cli_evolve_kink_header(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        ["evolve", "--state", "belldiag:a=0.4,b=0.4", "--b", "0.1", "--tmax", "20", "--out", str(out)]
    )
    assert code == 0
    header = [l for l in out.read_text().splitlines() if "kink_times_ns=" in l][0]
    t_kink = float(header.split("kink_times_ns=")[1].split(";")[0])
    assert t_kink == pytest.approx(4.67, abs=0.05)


def test_cli_evolve_phase_state_bounds_coincide(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        ["evolve", "--state", "phase:gamma=1.5707963", "--b", "0.0165", "--tmax", "5",
         "--out", str(out)]
    )
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    d_lo = np.array([float(r[10]) for r in rows])
    d_hi = np.array([float(r[11]) for r in rows])
    assert np.abs(d_hi - d_lo).max() < 1e-9


def test_cli_evolve_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--state", "werner:p=0.33", "--b", "0.005", "--tmax", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sweep_monotone_m(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--metric", "M", "--b", "0:0.1:0.02", "--state", "werner:p=0.33",
         "--out", str(out)]
    )
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    ms = [float(r[1]) for r in rows]
    assert len(ms) == 6
    assert all(m2 > m1 for m1, m2 in zip(ms, ms[1:]))


def test_cli_sweep_workers_byte_identical(tmp_path):
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    args = ["sweep", "--metric", "esd", "--b", "0.011,0.0165", "--state", "bell:psi-", "--dt", "0.05"]
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(args + ["--workers", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("value", ["abc", "2"])
def test_cli_sweep_ignores_the_environment(value, tmp_path, monkeypatch):
    # the worker count comes only from --workers, the config file or RunConfig
    unset, env = tmp_path / "unset.csv", tmp_path / "env.csv"
    args = ["sweep", "--metric", "M", "--b", "0.01,0.02", "--tmax", "1", "--state", "werner:p=0.33"]
    monkeypatch.delenv("QDSPIN_WORKERS", raising=False)
    assert main(args + ["--out", str(unset)]) == 0
    monkeypatch.setenv("QDSPIN_WORKERS", value)
    assert main(args + ["--out", str(env)]) == 0
    assert env.read_bytes() == unset.read_bytes()


def test_cli_sweep_empty_b_is_usage_error(capsys):
    code = main(["sweep", "--metric", "M", "--b", "", "--state", "werner:p=0.33"])
    assert code == 2
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "InvalidParameterError"


def test_cli_sweep_repeated_b_is_usage_error(capsys):
    code = main(["sweep", "--metric", "M", "--b", "0,0,0.001", "--state", "werner:p=0.33"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "InvalidParameterError"
    assert "strictly increasing" in record["message"]


def test_cli_sweep_sizes_its_quadrature_from_its_grid(tmp_path, monkeypatch):
    # t_max / dt = 1000.75 rounds the grid up to 20.02 ns, past --tmax
    kept = []
    original = magnetometry.trajectory_for_field
    monkeypatch.setattr(magnetometry, "trajectory_for_field",
                        lambda *args: kept.append(original(*args)) or kept[-1])
    flags = ["--b", "0.01", "--tmax", "20.015", "--state", "werner:p=0.33"]
    assert main(["sweep", "--metric", "M", *flags, "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["evolve", *flags, "--out", str(tmp_path / "evolve.csv")]) == 0
    (traj,) = kept
    assert traj.times[-1] == pytest.approx(20.02)
    traj.to_csv(tmp_path / "sweep-traj.csv")

    def rows(name):
        return [l for l in (tmp_path / name).read_text().splitlines() if not l.startswith("#")]

    assert rows("sweep-traj.csv") == rows("evolve.csv")


@pytest.mark.parametrize("source", ["config", "echo"])
def test_cli_removed_grid_keys_are_unknown_config_keys(source, tmp_path, capsys):
    # the long grid's dense prefix and coarse step are constants of build_time_grid, not settings
    data = {"t_max": 120.0, "dt_long": 2.0, "dense_prefix": 50.0}
    if source == "echo":  # a header echo of an earlier version, copied verbatim
        data = {**asdict(RunConfig()), **data}
        del data["out"], data["workers"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data))
    code = main(["sweep", "--config", str(cfg), "--metric", "M", "--b", "0.001",
                 "--state", "bell:psi-", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "InvalidParameterError",
                      "message": "unknown config keys ['dense_prefix', 'dt_long']"}
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv", [["sweep", "--metric", "M"], ["evolve", "--normalize", "initial"]])
def test_cli_sweep_m_of_a_state_without_discord_is_usage_error(argv, tmp_path, capsys):
    # werner:p=0 is the maximally mixed state: M(B) and the normalized trajectory have no initial discord
    # to divide by, and one check says so for both
    code = main([*argv, "--state", "werner:p=0", "--b", "0.01", "--tmax", "2", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "NormalizationError",
                      "message": "initial rescaled discord is zero: M(B) and normalized discord are undefined"}
    assert not (tmp_path / "s.csv").exists()


def test_cli_validity_error_exit_code(tmp_path, capsys):
    code = main(["evolve", "--state", "bell:psi-", "--b", "0", "--tmax", "20000",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValidityWindowError"


def test_cli_quadrature_past_scipy_node_limit_is_numerical_error(tmp_path, capsys):
    # roots_laguerre returns NaN weights at this count; the weight-sum check catches them
    code = main(["evolve", "--state", "bell:psi-", "--b", "0.1", "--q-nodes", "400",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "QuadratureResolutionError"
    assert "q_weights of 400 nodes" in record["message"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag,value", [("--m-nodes", "0"), ("--m-nodes", "2"), ("--q-nodes", "-5")])
def test_cli_node_count_below_three_is_usage_error(flag, value, tmp_path, capsys):
    code = main(["evolve", "--state", "bell:psi-", "--b", "0.1", "--tmax", "1", flag, value,
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"{flag[2]}_nodes must be an integer of at least 3" in _usage_error(capsys)["message"]


@pytest.mark.parametrize("flags", [["--m-nodes", "1000000"], ["--m-nodes", "20000", "--q-nodes", "64"]])
def test_cli_quadrature_past_node_cap_is_usage_error(flags, tmp_path, capsys, monkeypatch):
    def bounded_nodes(dot, n_m, n_q):
        assert n_m * n_q <= MAX_QUADRATURE_NODES, "nodes computed before the node count was bounded"
        return real_nodes(dot, n_m, n_q)

    real_nodes = channel._bath_nodes
    monkeypatch.setattr(channel, "_bath_nodes", bounded_nodes)
    code = main(["evolve", "--state", "bell:psi-", "--b", "0.1", "--tmax", "1", *flags,
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"MAX_QUADRATURE_NODES = {MAX_QUADRATURE_NODES}" in _usage_error(capsys)["message"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command,flags", [
    ("evolve", ["--i-nuclear", "1e160"]), ("evolve", ["--i-nuclear", "1e200"]),
    ("evolve", ["--n-nuclei", "1e308"]), ("sweep", ["--i-nuclear", "1e200", "--metric", "all"]),
])
def test_cli_overflowing_bath_variance_is_usage_error(command, flags, tmp_path, capsys, monkeypatch):
    def no_channel_work(*args, **kwargs):
        raise AssertionError("channel work started before the bath variance was checked")

    monkeypatch.setattr(magnetometry, "build_quadrature", no_channel_work)
    code = main([command, "--state", "bell:psi-", "--b", "0,0.1" if command == "sweep" else "0.1",
                 "--tmax", "1", *flags, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    message = _usage_error(capsys)["message"]
    assert "n_nuclei" in message and "i_nuclear" in message and "overflows" in message
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["evolve", "sweep"])
@pytest.mark.parametrize("n_nuclei", ["1e306", "3e306", "1e307"])
def test_cli_bath_whose_laguerre_nodes_overflow_is_usage_error(command, n_nuclei, tmp_path, capsys):
    # the variance N*I(I+1)/3 is finite, but the largest node 2*sigma^2*y is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--state", "werner:p=0.33", "--b", "0.1", "--tmax", "1", "--n-nuclei", n_nuclei,
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    message = _usage_error(capsys)["message"]
    assert "n_nuclei" in message and "i_nuclear" in message and "overflows" in message
    assert not (tmp_path / "x.csv").exists()


def test_bath_just_below_the_node_overflow_runs_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dot = DotParameters(n_nuclei=5e305, b_field=0.1)
        _, (q_nodes, _) = channel._bath_nodes(dot, *build_quadrature(dot, 1.0).node_counts)
    assert np.all(np.isfinite(q_nodes))


def test_cli_node_count_past_the_cap_prints_short(tmp_path, capsys):
    code = main(["evolve", "--state", "bell:psi-", "--b", "0.1", "--tmax", "1", "--i-nuclear", "1e150",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    message = _usage_error(capsys)["message"]
    assert message.startswith("a quadrature of 7.57e+148 x 64 nodes holds more than MAX_QUADRATURE_NODES")


def test_node_rule_past_the_cap_builds_no_candidate(monkeypatch):
    # a huge bath on a long grid needs ~180 000 m nodes for its phase term alone
    def no_nodes(*args):
        raise AssertionError("candidate nodes computed past MAX_QUADRATURE_NODES")

    monkeypatch.setattr(channel, "_bath_nodes", no_nodes)
    with pytest.raises(InvalidParameterError, match="MAX_QUADRATURE_NODES"):
        build_quadrature(DotParameters(n_nuclei=1e12), 1e9)


@pytest.mark.parametrize("name,value", [("upper_pairing", "printed"), ("drop_zeeman_phase", True)])
def test_cli_removed_run_option_in_config_is_usage_error(name, value, tmp_path, capsys):
    # config echoes of older versions carry these keys; every run now uses the
    # printed cross pairing and the co-rotating frame
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({name: value}))
    code = main(["evolve", "--config", str(cfg), "--b", "0.01", "--tmax", "1", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert _usage_error(capsys)["message"] == f"unknown config keys ['{name}']"
    assert not (tmp_path / "o.csv").exists()


def test_cli_upper_pairing_flag_is_unknown(tmp_path, capsys):
    code = main(["evolve", "--upper-pairing", "printed", "--b", "0.01", "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "unrecognized arguments: --upper-pairing printed" in _usage_error(capsys)["message"]


def test_cli_config_file_plus_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_echo(RunConfig(state="werner:p=0.33", t_max=5.0, b_fields=[0.0]), "evolve")))
    out = tmp_path / "traj.csv"
    code = main(["evolve", "--config", str(cfg), "--b", "0.003", "--out", str(out)])
    assert code == 0
    header = "\n".join(l for l in out.read_text().splitlines() if l.startswith("#"))
    assert "b_mt=3" in header  # flag override wins over the file

def test_cli_calibration_out(tmp_path):
    out = tmp_path / "sweep.csv"
    calib = tmp_path / "curve.csv"
    code = main(
        ["sweep", "--metric", "M", "--b", "0:0.06:0.02", "--state", "werner:p=0.33",
         "--out", str(out), "--calibration-out", str(calib), "--calibration-quantity", "M"]
    )
    assert code == 0
    lines = [l for l in calib.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "B_T,M"
    assert len(lines) == 1 + 4


def _usage_error(capsys) -> dict:
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "InvalidParameterError"
    return record


@pytest.mark.parametrize("flag,value", [("--tmax", "nan"), ("--tmax", "inf"), ("--dt", "nan")])
def test_cli_evolve_non_finite_grid_is_usage_error(flag, value, tmp_path, capsys):
    code = main(["evolve", "--state", "bell:psi-", "--b", "0.01", flag, value,
                 "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "finite and positive" in _usage_error(capsys)["message"]


@pytest.mark.parametrize("argv", [
    ["evolve", "--state", "bell:psi-", "--b", "0.1", "--tmax", "0.005"],
    ["evolve", "--state", "bell:psi-", "--b", "0.1", "--tmax", "1", "--dt", "5"],
    ["sweep", "--metric", "esd", "--b", "0.1", "--tmax", "0.005"],
], ids=["evolve-tmax", "evolve-dt", "sweep-tmax"])
def test_cli_one_time_grid_is_usage_error(argv, tmp_path, capsys):
    # t_max/dt rounds to no step: the grid would hold t = 0 alone
    out = tmp_path / "t.csv"
    assert main([*argv, "--out", str(out)]) == 2
    message = _usage_error(capsys)["message"]
    assert "t_max=" in message and "dt=" in message and "only t = 0" in message
    assert not out.exists()


@pytest.mark.parametrize("dt", ["100", "200"])
def test_cli_long_grid_without_a_dense_step_is_usage_error(dt, tmp_path, capsys):
    # 50 ns / dt rounds to no step: the grid would go from t = 0 straight onto the 2 ns tail
    out = tmp_path / "t.csv"
    assert main(["evolve", "--state", "bell:psi-", "--b", "0.01", "--tmax", "150", "--dt", dt,
                 "--out", str(out)]) == 2
    message = _usage_error(capsys)["message"]
    assert f"dt={dt} ns" in message and "no dt step in its 50 ns dense prefix" in message
    assert "dt must be below 100 ns" in message
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "sweep"])
def test_cli_grid_short_of_t_max_is_usage_error(command, tmp_path, capsys):
    # 1 / 0.7 rounds to one step, which ends the grid at 0.7 ns
    out = tmp_path / "t.csv"
    assert main([command, "--state", "bell:psi-", "--b", "0.1", "--tmax", "1", "--dt", "0.7", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InvalidParameterError"
    message = json.loads(lines[0])["message"]
    assert "t_max=1 ns" in message and "dt=0.7 ns" in message and "ends at 0.7 ns" in message
    assert not out.exists()


def test_build_time_grid_refuses_one_time():
    # t_max/dt rounding to 0
    for kwargs in ({"t_max": 0.005}, {"t_max": 1.0, "dt": 5.0}):
        with pytest.raises(InvalidParameterError, match="only t = 0"):
            build_time_grid(**kwargs)


def test_build_time_grid_rejects_non_finite():
    for kwargs in ({"t_max": float("nan")}, {"t_max": float("inf")}, {"t_max": 20.0, "dt": float("nan")},
                   {"t_max": 200.0, "dt": 0.0}):
        with pytest.raises(InvalidParameterError):
            build_time_grid(**kwargs)


@pytest.mark.parametrize("flag,value", [("--config", "absent.json"), ("--state", "raw:absent.json")])
def test_cli_missing_input_file_is_usage_error(flag, value, tmp_path, capsys):
    value = value.replace("absent.json", str(tmp_path / "absent.json"))
    code = main(["evolve", flag, value, "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "absent.json" in _usage_error(capsys)["message"]


@pytest.mark.parametrize("name,text", [("junk.csv", "abc,0\n"), ("junk.json", "not json")])
def test_cli_malformed_raw_state_is_usage_error(name, text, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    code = main(["evolve", "--state", f"raw:{path}", "--b", "0.1", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "malformed raw-state" in _usage_error(capsys)["message"]
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("text", [b"{not json", b"5", b"\xff\xfe{}"])  # the last is not UTF-8
def test_cli_malformed_config_is_usage_error(text, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(text)
    code = main(["sweep", "--config", str(cfg), "--metric", "M", "--b", "0.01",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    _usage_error(capsys)


@pytest.mark.parametrize(
    "command,flag",
    [("evolve", "--out"), ("evolve", "--channel-out"), ("sweep", "--out"), ("sweep", "--calibration-out")],
)
def test_cli_output_into_missing_directory_is_usage_error(command, flag, tmp_path, capsys, monkeypatch):
    def no_channel_work(*args, **kwargs):
        raise AssertionError("channel work started before the output check")

    monkeypatch.setattr("qdspin.cli.channel_for_field", no_channel_work)
    monkeypatch.setattr("qdspin.cli.run_sweep", no_channel_work)
    args = [command, "--state", "bell:psi-", "--b", "0.01", "--tmax", "1",
            "--out", str(tmp_path / "ok.csv"), flag, str(tmp_path / "missing" / "x.csv")]
    code = main(args)
    assert code == 2
    assert "missing" in _usage_error(capsys)["message"]
    assert not (tmp_path / "ok.csv").exists()


@pytest.mark.parametrize("command,flag", [("evolve", "--channel-out"), ("sweep", "--calibration-out")])
def test_cli_two_outputs_to_one_file_is_usage_error(command, flag, tmp_path, capsys, monkeypatch):
    def no_channel_work(*args, **kwargs):
        raise AssertionError("channel work started before the output check")

    monkeypatch.setattr("qdspin.cli.channel_for_field", no_channel_work)
    monkeypatch.setattr("qdspin.cli.run_sweep", no_channel_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "same.csv").write_text("earlier\n")
    code = main([command, "--state", "bell:psi-", "--b", "0.01", "--tmax", "1",
                 "--out", "same.csv", flag, "./same.csv"])
    assert code == 2
    assert "same file" in _usage_error(capsys)["message"]
    assert (tmp_path / "same.csv").read_text() == "earlier\n"


@pytest.mark.parametrize("command", ["evolve", "sweep"])
def test_cli_bad_state_spec_exits_before_channel_work(command, tmp_path, capsys, monkeypatch):
    def no_channel_work(*args, **kwargs):
        raise AssertionError("channel work started before the state was made")

    monkeypatch.setattr("qdspin.cli.channel_for_field", no_channel_work)
    monkeypatch.setattr("qdspin.magnetometry.channel_for_field", no_channel_work)
    code = main([command, "--state", "bogus:1", "--b", "1", "--tmax", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "bogus" in _usage_error(capsys)["message"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["evolve", "sweep"])
@pytest.mark.parametrize("b", ["nan:1:0.1", "1:2:nan", "0:inf:1", "abc", "0.01,x"])
def test_cli_non_finite_field_is_usage_error(command, b, tmp_path, capsys):
    code = main([command, "--state", "bell:psi-", "--b", b, "--tmax", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "not a finite number" in _usage_error(capsys)["message"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["evolve", "sweep"])
@pytest.mark.parametrize("flag,value", [("--dt", "1e-300"), ("--tmax", "1e300")])
def test_cli_grid_past_the_point_bound_is_usage_error(command, flag, value, tmp_path, capsys):
    code = main([command, "--state", "bell:psi-", "--b", "0.1", flag, value,
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "MAX_GRID_POINTS" in _usage_error(capsys)["message"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["evolve", "sweep"])
@pytest.mark.parametrize("value", ["0", "-0.44"])
def test_cli_non_positive_g_factor_is_usage_error(command, value, tmp_path, capsys):
    code = main([command, "--b", "0.1", "--g-factor", value, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "g_factor must be positive" in _usage_error(capsys)["message"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command,b", [("evolve", "1e200"), ("evolve", "1e300"), ("sweep", "1e200"),
                                       ("sweep", "1e300"), ("sweep", "0.1,1e300")])
def test_cli_field_whose_block_energies_overflow_is_usage_error(command, b, tmp_path, capsys):
    code = main([command, "--b", b, "--tmax", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "b_field" in _usage_error(capsys)["message"]
    assert not (tmp_path / "x.csv").exists()


def test_dot_parameters_reject_a_field_whose_splitting_squared_overflows():
    DotParameters(b_field=-1e150)
    for b_field in (1e160, -1e160):
        with pytest.raises(InvalidParameterError, match="b_field"):
            DotParameters(b_field=b_field)
    with pytest.raises(InvalidParameterError, match="b_field"):
        RunConfig(b_fields=[0.0, 1e160])


def test_dot_parameters_reject_a_non_positive_g_factor():
    with pytest.raises(InvalidParameterError, match="g_factor must be positive"):
        q.DotParameters(g_factor=0.0)


def test_parse_b_values_bounds_the_point_count():
    assert len(parse_b_values(f"0:{MAX_FIELD_POINTS - 1}:1")) == MAX_FIELD_POINTS
    # one field more, a count beyond memory, and a count that overflows a float
    for text in (f"0:{MAX_FIELD_POINTS}:1", "0:1:1e-12", "0:1e308:1e-308"):
        with pytest.raises(InvalidParameterError, match="MAX_FIELD_POINTS"):
            parse_b_values(text)


@pytest.mark.parametrize("command", ["evolve", "sweep"])
def test_cli_field_range_past_the_point_bound_is_usage_error(command, tmp_path, capsys):
    code = main([command, "--state", "bell:psi-", "--b", "0:1e308:1e-308", "--tmax", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "MAX_FIELD_POINTS" in _usage_error(capsys)["message"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("spec", ["belldiag:a=0.4,b=nan", "phase:gamma=nan", "entfam:a=nan",
                                  "entfam:a=0.25,alpha=inf", "raw"])
def test_cli_non_finite_state_is_usage_error(spec, tmp_path, capsys):
    if spec == "raw":
        rho = np.eye(4) / 4.0
        rho[1, 1] = np.nan
        path = tmp_path / "nan.csv"
        path.write_text("\n".join(f"{x},0" for x in rho.ravel().tolist()) + "\n")
        spec = f"raw:{path}"
    code = main(["evolve", "--state", spec, "--b", "0.1", "--tmax", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "not finite" in _usage_error(capsys)["message"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command,config,flags,side", [
    ("sweep", {"t_max": 120.0, "dt": 0.1, "m_window": [0.0, 10.0], "longtime_window": [100.0, 120.0]},
     ["--metric", "all", "--b", "0.001,0.01"], "--calibration-out"),
    ("evolve", {"t_max": 120.0, "dt": 0.1}, ["--normalize", "half", "--b", "0.001"], "--channel-out"),
])
def test_cli_sweep_config_echo_reproduces_the_run(command, config, flags, side, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))

    def run(name: str, *args: str) -> list[bytes]:
        outs = [tmp_path / f"{name}.csv", tmp_path / f"{name}-{side[2:]}.csv"]
        assert main([command, *args, "--out", str(outs[0]), side, str(outs[1])]) == 0
        return [out.read_bytes() for out in outs]

    first = run("first", "--config", str(cfg), *flags, "--state", "werner:p=0.33")
    echo = next(l for l in first[0].decode().splitlines() if l.startswith("# config="))
    applied = json.loads(echo.removeprefix("# config="))
    assert sorted(applied) == sorted(COMMAND_FIELDS[command])
    defaults = RunConfig()
    for name in (*config, flags[0][2:]):  # the file's keys and the first flag's field
        assert applied[name] != getattr(defaults, name)
    (tmp_path / "echo.json").write_text(json.dumps(applied))
    assert run("again", "--config", str(tmp_path / "echo.json")) == first


@pytest.mark.parametrize("kind", ["directory", "fifo"])
def test_cli_output_not_a_regular_file_is_usage_error(kind, tmp_path, capsys, monkeypatch):
    def no_channel_work(*args, **kwargs):
        raise AssertionError("channel work started before the output check")

    monkeypatch.setattr("qdspin.cli.channel_for_field", no_channel_work)
    out = tmp_path / "out.csv"
    out.mkdir() if kind == "directory" else os.mkfifo(out)
    code = main(["evolve", "--state", "bell:psi-", "--b", "0.01", "--tmax", "1", "--out", str(out)])
    assert code == 2
    assert "not a regular file" in _usage_error(capsys)["message"]


@pytest.mark.parametrize(
    "command,config,field",
    [("evolve", {"a_total": "x"}, "a_total"), ("sweep", {"m_window": [5]}, "m_window"),
     ("sweep", {"workers": "two"}, "workers"), ("sweep", {"metric": "bogus"}, "metric"),
     ("evolve", {"i_nuclear": float("nan")}, "i_nuclear"), ("evolve", {"i_nuclear": 9e307}, "i_nuclear"),
     # a valid value of a field its command does not apply
     ("evolve", {"metric": "M"}, "evolve does not apply the config keys ['metric']"),
     ("evolve", {"m_window": [0.0, 10.0]}, "evolve does not apply the config keys ['m_window']"),
     ("evolve", {"longtime_window": [100.0, 120.0]}, "evolve does not apply the config keys ['longtime_window']"),
     ("evolve", {"workers": 3}, "evolve does not apply the config keys ['workers']"),
     ("sweep", {"normalize": "half"}, "sweep does not apply the config keys ['normalize']")],
)
def test_cli_bad_config_value_is_usage_error(command, config, field, tmp_path, capsys, monkeypatch):
    _forbid_channel_work(monkeypatch, "the config was checked")

    def no_output_check(*paths):
        raise AssertionError("outputs checked before the config")

    monkeypatch.setattr(cli, "_check_outputs", no_output_check)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg), "--b", "0.01", "--tmax", "1",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1  # one record
    record = json.loads(err)
    assert record["error"] == "InvalidParameterError" and field in record["message"]
    assert not (tmp_path / "o.csv").exists()


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.floats(-1.0, 30.0), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_VALID = {
    "a_total": st.floats(1.0, 200.0),
    "n_nuclei": st.floats(1e3, 1e7),
    "i_nuclear": st.sampled_from([0.5, 1.5, 2]),
    "g_factor": st.floats(0.1, 2.0),
    "state": st.sampled_from(["bell:psi-", "werner:p=0.33"]),
    "b_fields": st.lists(st.floats(0.0, 1.0), max_size=3),
    "t_max": st.floats(0.1, 100.0),
    "dt": st.floats(0.01, 1.0),
    "m_nodes": st.none() | st.integers(3, 300),
    "q_nodes": st.none() | st.integers(3, 100),
    "normalize": st.sampled_from(NORMALIZE_MODES),
    "m_window": st.lists(st.floats(0.0, 20.0), min_size=2, max_size=2, unique=True).map(sorted),
    "longtime_window": st.lists(st.floats(0.0, 6000.0), min_size=2, max_size=2, unique=True).map(sorted),
    "metric": st.sampled_from(sorted(METRIC_SETS)),
    "out": st.none() | st.text(min_size=1, max_size=5),
    "workers": st.none() | st.integers(1, 4),
}


@st.composite
def config_dicts(draw) -> dict:
    """Valid values for some fields, then arbitrary JSON values for up to two."""
    data = draw(st.fixed_dictionaries({}, optional=_VALID))
    for name in draw(st.lists(st.sampled_from(sorted(_VALID)), max_size=2, unique=True)):
        data[name] = draw(_JUNK)
    return data


# the keys a command's config file may hold: the fields it applies, and those its flags set that it does not echo
_SETTABLE = {"evolve": {*COMMAND_FIELDS["evolve"], "out"}, "sweep": {*COMMAND_FIELDS["sweep"], "out", "workers"}}


@settings(max_examples=500, deadline=None)
@given(config_dicts(), st.sampled_from(sorted(COMMAND_FIELDS)))
def test_config_json_rejects_exactly_what_the_dataclass_rejects(data, command):
    # a file is refused exactly when RunConfig(**data) refuses it or when it holds a key its command does not take
    def build(make):
        try:
            return make()
        except InvalidParameterError:
            return None

    direct = build(lambda: RunConfig(**data))
    loaded = build(lambda: _loaded(command, data))
    assert (loaded is None) == (direct is None or not data.keys() <= _SETTABLE[command])
    if loaded is not None:
        assert loaded == direct
        # the echo reloads to the same configuration, but for the two settings it leaves out
        assert _loaded(command, _echo(direct, command)) == replace(direct, out=None, workers=None)
        # what the commands derive from an accepted config builds without error
        for b in direct.b_fields:
            direct.dot(b)
        assert len(direct.m_window) == len(direct.longtime_window) == 2
        assert METRIC_SETS[direct.metric] and (direct.workers is None or direct.workers >= 1)


@pytest.mark.parametrize("only", ["x", "99", "0", "3,15", ","])
def test_cli_verify_only_out_of_range_is_usage_error(only, capsys, monkeypatch):
    def no_checks(*args, **kwargs):
        raise AssertionError("acceptance checks started before --only was validated")

    monkeypatch.setattr("qdspin.acceptance.run_checks", no_checks)
    assert main(["verify", "--only", only]) == 2
    assert "1-14" in _usage_error(capsys)["message"]


@pytest.mark.parametrize("flag", [["--tmax", "5"], ["--workers", "3"], ["--out", "/nonexistent/x.csv"]])
def test_cli_verify_rejects_every_flag_but_only(flag, monkeypatch, capsys):
    def no_checks(*args, **kwargs):
        raise AssertionError("acceptance checks started despite an unknown flag")

    monkeypatch.setattr("qdspin.acceptance.run_checks", no_checks)
    assert main(["verify", *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in _usage_error(capsys)["message"]


@pytest.mark.parametrize("argv,message", [
    (["evolve", "--tmax", "abc"], "argument --tmax: invalid float value: 'abc'"),
    (["sweep", "--metric", "bogus"], "argument --metric: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    # each flag belongs to the one command that applies it
    (["sweep", "--normalize", "half"], "unrecognized arguments: --normalize half"),
    (["evolve", "--workers", "2"], "unrecognized arguments: --workers 2"),
])
def test_cli_argument_errors_print_one_record(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1  # the record alone, no usage text
    record = json.loads(err)
    assert record["error"] == "InvalidParameterError" and message in record["message"]


# (valid, invalid) values per flag; every grid ends by 2 ns, so an example costs milliseconds
_CLI_VALUES = {
    "--tmax": (["0.5", "1", "2"], ["0", "-1", "nan", "abc"]),
    "--state": (["bell:psi-", "werner:p=0.33", "belldiag:a=0.4,b=0.4", "phase:gamma=2.35"],
                ["werner:p=0", "bell:chi", "phase:gamma=nan", "werner:p=2", ""]),
    "--b": (["0", "-0.0", "0.1", "0,0.011", "0:0.02:0.01"], ["0.1,0.05", "abc", "nan", "1e200", ""]),
    "--dt": (["0.02", "0.1", "0.5"], ["0", "-0.1", "inf", "1e-300", "abc"]),
    "--m-nodes": (["32", "40", "3"], ["2", "1000000", "abc"]),
    "--q-nodes": (["32", "64"], ["2", "400"]),
    "--metric": (["M", "g-extrema", "esd"], ["kinks", "bogus"]),
    "--normalize": (["none", "initial", "half"], ["bogus"]),
    "--workers": (["1", "2"], ["0", "-1", "abc"]),
    "--bogus-flag": ([], ["1"]),
}


@st.composite
def cli_argvs(draw) -> list[str]:
    """An evolve or sweep command line on a grid of at most 2 ns: --tmax and up to four more flags,
    each value invalid one time in four."""
    argv = [draw(st.sampled_from(["evolve", "sweep"]))]
    flags = draw(st.lists(st.sampled_from(sorted(set(_CLI_VALUES) - {"--tmax"})), max_size=4, unique=True))
    for flag in ["--tmax", *flags]:
        valid, invalid = _CLI_VALUES[flag]
        argv += [flag, draw(st.sampled_from(invalid if not valid or draw(st.integers(0, 3)) == 0 else valid))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cli_argvs())
def test_cli_contract_on_drawn_argument_lists(argv):
    # exit 0, 2 or 3; a failure prints one JSON record and leaves no partial file behind
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        extra = ["--channel-out", str(Path(tmp) / "chan.csv")] if argv[0] == "evolve" else []
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(out), *extra])
        assert code in (0, 2, 3), argv
        if code == 0:
            assert out.is_file() and err.getvalue() == ""
        else:
            lines = err.getvalue().strip().splitlines()
            assert len(lines) == 1, (argv, lines)
            record = json.loads(lines[0])
            assert set(record) == {"error", "message"} and record["message"], argv
        assert not [f.name for f in Path(tmp).iterdir() if f.name.endswith(".tmp")], argv


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["sweep", "--help"]])
def test_cli_help_and_version_still_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["evolve", "sweep"])
def test_cli_output_name_too_long_is_usage_error(command, tmp_path, capsys):
    out = tmp_path / ("x" * 296 + ".csv")
    assert main([command, "--tmax", "1", "--b", "0.1", "--out", str(out)]) == 2
    record = _usage_error(capsys)
    assert str(out) in record["message"] and "too long" in record["message"]
    assert list(tmp_path.iterdir()) == []


def test_cli_calibration_failure_writes_nothing(tmp_path, capsys):
    out, calib = tmp_path / "sweep.csv", tmp_path / "cal.csv"
    code = main(["sweep", "--metric", "M", "--b", "0.01,0.02", "--tmax", "1", "--state", "werner:p=0.33",
                 "--out", str(out), "--calibration-out", str(calib), "--calibration-quantity", "g_max_value"])
    assert code == 2
    assert "g_max_value" in _usage_error(capsys)["message"]
    assert not out.exists() and not calib.exists()


def test_cli_g_extrema_calibration_without_enough_knots_writes_nothing(tmp_path, capsys):
    # g(t) has no minimum at B = 0, so one of the two fields gives a knot
    out, calib = tmp_path / "sweep.csv", tmp_path / "cal.csv"
    code = main(["sweep", "--metric", "g-extrema", "--b", "0,0.0005", "--tmax", "50", "--state", "bell:psi-",
                 "--out", str(out), "--calibration-out", str(calib), "--calibration-quantity", "g_max_value"])
    assert code == 2
    assert "not enough knots" in _usage_error(capsys)["message"]
    assert not out.exists() and not calib.exists()


def _forbid_channel_work(monkeypatch, what: str) -> None:
    def no_channel_work(*args, **kwargs):
        raise AssertionError(f"channel work started before {what}")

    monkeypatch.setattr("qdspin.magnetometry.channel_for_field", no_channel_work)
    monkeypatch.setattr("qdspin.cli.channel_for_field", no_channel_work)


@pytest.mark.parametrize("metric,quantity", [("M", "g_max_value"), ("g-extrema", "M"),
                                             ("esd", "d_longtime"), ("longtime", "g_min_value")])
def test_cli_calibration_quantity_the_metric_never_computes_exits_before_channel_work(
        metric, quantity, tmp_path, capsys, monkeypatch):
    _forbid_channel_work(monkeypatch, "the calibration quantity was checked")
    out, calib = tmp_path / "sweep.csv", tmp_path / "cal.csv"
    code = main(["sweep", "--metric", metric, "--b", "0.001,0.002,0.003,0.004", "--state", "werner:p=0.33",
                 "--out", str(out), "--calibration-out", str(calib), "--calibration-quantity", quantity])
    assert code == 2
    assert quantity in _usage_error(capsys)["message"]
    assert not out.exists() and not calib.exists()


@pytest.mark.parametrize("name", ["m_window", "longtime_window"])
@pytest.mark.parametrize("window", [[200.0, 100.0], [20.0, 0.0], [-50.0, -10.0], [10.0, 10.0]])
def test_cli_window_not_ordered_from_zero_exits_before_channel_work(name, window, tmp_path, capsys, monkeypatch):
    _forbid_channel_work(monkeypatch, "the windows were checked")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({name: window}))
    code = main(["sweep", "--config", str(cfg), "--metric", "all", "--b", "0.001", "--tmax", "1",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert name in _usage_error(capsys)["message"]
    assert not (tmp_path / "s.csv").exists()


def test_cli_longtime_sweep_echoes_the_t_max_it_ran_to(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"longtime_window": [100.0, 120.0]}))
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    code = main(["sweep", "--config", str(cfg), "--metric", "longtime", "--tmax", "20", "--b", "0.001",
                 "--state", "bell:psi-", "--out", str(first)])
    assert code == 0
    echo = next(l for l in first.read_text().splitlines() if l.startswith("# config="))
    assert '"t_max": 120.0' in echo
    (tmp_path / "echo.json").write_text(echo.removeprefix("# config="))
    assert main(["sweep", "--config", str(tmp_path / "echo.json"), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_cli_phi_type_starts_print_their_bell_diagonal_cells(tmp_path):
    # the a/b columns are read in the arrangement the start matrix fits, whatever spec made it
    def run(state: str) -> list[list[str]]:
        out = tmp_path / "t.csv"
        assert main(["evolve", "--state", state, "--b", "0.011", "--tmax", "2", "--out", str(out)]) == 0
        return [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")][1:]

    rho = q.make_state(q.Bell("phi+")).rho
    raw = tmp_path / "phi.json"
    raw.write_text(json.dumps([[[v.real, v.imag] for v in row] for row in rho.tolist()]))
    bell = run("bell:phi+")
    assert run(f"raw:{raw}") == bell
    assert all(r[4:7] != ["", "", ""] for r in bell)
    # entfam:a=0.5 is (|00> - |11>)/sqrt(2), phi- up to round-off
    entfam, phi_minus = run("entfam:a=0.5"), run("bell:phi-")
    for r, s in zip(entfam, phi_minus):
        assert "" not in r[4:7] and np.allclose([float(x) for x in r[4:7]], [float(x) for x in s[4:7]],
                                                rtol=0.0, atol=1e-15)


def test_cli_parser_is_built_once_and_behaves_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    argvs = (
        ["evolve", "--tmax", "1", "--b", "0.1", "--out", str(tmp_path / "e.csv")],
        ["sweep", "--metric", "M", "--tmax", "1", "--b", "0.01,0.02", "--out", str(tmp_path / "s.csv")],
        ["sweep", "--bogus", "1"],
        ["--version"],
    )

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # --version exits through argparse
            code = exc.code
        out, err = capsys.readouterr()
        written = argv[argv.index("--out") + 1] if "--out" in argv else None
        return code, out, err, written and Path(written).read_bytes()

    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert [r[0] for r in fresh] == [0, 0, 2, 0] and fresh[3][1].startswith("qdspin ")
    assert "unrecognized arguments: --bogus 1" in json.loads(fresh[2][2])["message"]
    cli._build_parser.cache_clear()
    for _ in range(2):
        for argv, expected in zip(argvs, fresh):
            assert run(argv) == expected
    assert cli._build_parser.cache_info().misses == 1
    # help text takes the terminal width when it is printed, not when the parser was built
    helps = {}
    for columns in ("50", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        helps[columns] = run(["evolve", "--help"])
        assert helps[columns][0] == 0
    assert cli._build_parser.cache_info().misses == 1
    assert max(map(len, helps["50"][1].splitlines())) < max(map(len, helps["200"][1].splitlines()))
    cli._build_parser.cache_clear()
    assert run(["evolve", "--help"]) == helps["200"]
