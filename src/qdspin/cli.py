"""Command-line front end: evolve / sweep / verify.

Exit codes: 0 ok, 2 usage, 3 numerical or validity error, 4 acceptance
failure.  Errors print a machine-readable JSON record to stderr.  All
outputs are deterministic for a fixed configuration; the worker count
(`sweep --workers` or the config file's "workers") changes wall time only,
never results.  A command's config file may set the `RunConfig` fields
that `COMMAND_FIELDS` names for it and those its flags set, and its CSV
headers echo the former, less a sweep's windows that its metric does not
read.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NoReturn

from . import __version__
from .config import (
    COMMAND_FIELDS,
    METRIC_SETS,
    NORMALIZE_MODES,
    RunConfig,
    header_lines,
    parse_b_values,
    parse_state_spec,
)
from .constants import InvalidParameterError, QdspinError
from .evolution import evolve, find_g_crossings, kink_text
from .magnetometry import CURVE_QUANTITIES, calibration_curve, channel_for_field, run_sweep
from .states import make_state

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def run_reporting_errors(run: Callable[[], int | None]) -> int:
    """The exit status of `run()`, 0 for None.  A QdspinError prints its JSON record
    to stderr and gives 2 (InvalidParameterError) or 3 (any other); `main` and the scripts exit with it."""
    try:
        return run() or EXIT_OK
    except QdspinError as exc:
        print(_error_record(exc), file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, InvalidParameterError) else EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as an InvalidParameterError, so it exits 2 with the JSON record."""

    def error(self, message: str) -> NoReturn:
        raise InvalidParameterError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged, and help
    text reads the terminal width when it is formatted, not here."""
    parser = _Parser(
        prog="qdspin",
        description="Hyperfine decoherence of two quantum-dot spin qubits: "
        "discord trajectories and field-sensing sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"qdspin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--state", help="state spec, e.g. bell:psi-, werner:p=0.33, belldiag:a=0.4,b=0.4")
    common.add_argument("--a-total", type=float, dest="a_total", help="total hyperfine energy A, ueV")
    common.add_argument("--n-nuclei", type=float, dest="n_nuclei", help="nuclei per dot")
    common.add_argument("--i-nuclear", type=float, dest="i_nuclear", help="nuclear spin quantum number")
    common.add_argument("--g-factor", type=float, dest="g_factor", help="|g| of the electron")
    common.add_argument("--m-nodes", type=int, dest="m_nodes", help="polarization quadrature nodes")
    common.add_argument("--q-nodes", type=int, dest="q_nodes", help="transverse-invariant quadrature nodes")
    common.add_argument("--tmax", type=float, dest="t_max", help="evolution time, ns")
    common.add_argument("--dt", type=float, help="grid step, ns")
    common.add_argument("--out", help="output CSV path")

    p_evolve = sub.add_parser("evolve", parents=[common], help="one trajectory at one field")
    p_evolve.add_argument("--b", help="field in Tesla (single value)")
    p_evolve.add_argument("--channel-out", dest="channel_out", help="also write the channel CSV here")
    p_evolve.add_argument("--normalize", choices=NORMALIZE_MODES)

    p_sweep = sub.add_parser("sweep", parents=[common], help="field sweep with sensing metrics")
    p_sweep.add_argument("--b", help="fields in Tesla: start:stop:step, comma list, or value")
    p_sweep.add_argument(
        "--metric",
        choices=tuple(METRIC_SETS),
        help="which sensing metrics to extract",
    )
    p_sweep.add_argument("--workers", type=int, help="parallel workers (wall time only)")
    p_sweep.add_argument("--calibration-out", dest="calibration_out", help="two-column calibration CSV")
    p_sweep.add_argument(
        "--calibration-quantity",
        dest="calibration_quantity",
        choices=tuple(CURVE_QUANTITIES),
        default="M",
    )

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--only", help="comma-separated criterion indices, e.g. 1,3,6")

    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file with every set flag laid over it; a file key its command neither applies nor flags exits 2."""
    try:
        data = json.loads(Path(args.config).read_text()) if args.config else {}
    except OSError as exc:
        raise InvalidParameterError(f"cannot read config file {args.config!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise InvalidParameterError(f"malformed config JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParameterError(f"config JSON must be an object, got {type(data).__name__}")
    known = {f.name for f in fields(RunConfig)}
    if data.keys() - known:
        raise InvalidParameterError(f"unknown config keys {sorted(data.keys() - known)}")
    # every flag whose dest names a config field sets that field
    flags = vars(args).keys() & known
    ignored = data.keys() - flags - set(COMMAND_FIELDS[args.command])
    if ignored:
        raise InvalidParameterError(f"{args.command} does not apply the config keys {sorted(ignored)}")
    data.update((name, getattr(args, name)) for name in flags if getattr(args, name) is not None)
    if args.b is not None:
        data["b_fields"] = parse_b_values(args.b)
    return RunConfig(**data)


def _check_outputs(*paths: str | None) -> None:
    """Refuse output paths that cannot be written, or that name one file twice, before any work is done."""
    seen: dict[Path, str] = {}
    for path in paths:
        if path is None:
            continue
        target = Path(path)
        try:
            if not target.parent.is_dir():
                raise InvalidParameterError(f"output directory {str(target.parent)!r} does not exist")
            if target.exists() and not target.is_file():
                raise InvalidParameterError(f"output path {path!r} is not a regular file")
            # the writer replaces a path's directory entry, never a link's target: compare entries
            entry = target.parent.resolve() / target.name
        except OSError as exc:  # a name too long for the file system, a directory that cannot be searched
            raise InvalidParameterError(f"output path {path!r} cannot be used: {exc.strerror or exc}") from exc
        if entry in seen:
            raise InvalidParameterError(f"output paths {seen[entry]!r} and {path!r} are the same file")
        seen[entry] = path


def _cmd_evolve(args: argparse.Namespace) -> int:
    config = _load_config(args)
    state0 = make_state(parse_state_spec(config.state))
    if len(config.b_fields) != 1:
        raise InvalidParameterError(f"evolve takes exactly one field value, got {len(config.b_fields)} "
                                    "(from --b or the config file's b_fields)")
    out = config.out or "trajectory.csv"
    _check_outputs(out, args.channel_out)
    chan = channel_for_field(config, config.b_fields[0])
    traj = evolve(state0, chan)
    kinks = find_g_crossings(traj.times, traj.g, traj.g_on)
    extra = {
        "quadrature_m_nodes": chan.m_count,
        "quadrature_q_nodes": chan.q_count,
        "quadrature_nodes_summed": chan.model.p.freq.size,
        "kink_times_ns": kink_text(kinks) or "none",
    }
    headers = header_lines(config, "evolve", extra)
    traj.to_csv(out, header_lines=headers, normalize=config.normalize)
    if args.channel_out:
        chan.to_csv(args.channel_out, header_lines=headers)
    print(f"wrote {out} ({traj.times.size} rows); kinks: {extra['kink_times_ns']}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out = config.out or "sweep.csv"
    _check_outputs(out, args.calibration_out)
    quantity = args.calibration_quantity
    needs = CURVE_QUANTITIES[quantity][0]
    if args.calibration_out and needs not in METRIC_SETS[config.metric]:
        raise InvalidParameterError(
            f"--metric {config.metric} does not compute the calibration quantity {quantity!r}; "
            f"use --metric {needs} or all"
        )
    table = run_sweep(config)
    curve = calibration_curve(table, quantity) if args.calibration_out else None
    headers = header_lines(table.config, "sweep")
    table.to_csv(out, header_lines=headers)
    if curve is not None:
        curve.to_csv(args.calibration_out, header_lines=headers)
    print(f"wrote {out} ({len(table.rows)} rows)")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance import CHECKS, run_checks

    only = None
    if args.only:
        try:
            only = [int(x) for x in args.only.split(",") if x.strip()]
        except ValueError:
            only = []
        if not only or not all(1 <= k <= len(CHECKS) for k in only):
            raise InvalidParameterError(
                f"--only takes comma-separated check indices in 1-{len(CHECKS)}, got {args.only!r}"
            )
    results = run_checks(only=only)
    return EXIT_OK if all(r.passed for r in results) else EXIT_ACCEPTANCE


def main(argv: list[str] | None = None) -> int:
    def run() -> int:
        args = _build_parser().parse_args(argv)
        return {"evolve": _cmd_evolve, "sweep": _cmd_sweep, "verify": _cmd_verify}[args.command](args)

    return run_reporting_errors(run)


if __name__ == "__main__":
    sys.exit(main())
