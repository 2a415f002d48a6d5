#!/usr/bin/env python3
"""g(t) observable at low fields plus the extrema-versus-field calibration table.

g = |<sx sx>| / |<sz sz>| stays pinned at 1 for zero field and develops a
deep minimum followed by a partial recovery at small fields; the value of
the recovery maximum falls monotonically with the field and serves as a
calibration curve.
"""
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from qdspin import RunConfig, calibration_curve, run_sweep
from qdspin.cli import _Parser, run_reporting_errors
from qdspin.config import header_lines
from qdspin.magnetometry import trajectory_for_field

CURVE_FIELDS_T = (0.0, 0.5e-3, 1.5e-3, 5e-3)


def main() -> None:
    parser = _Parser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--b-start-mt", type=float, default=0.25)
    parser.add_argument("--b-stop-mt", type=float, default=5.0)
    parser.add_argument("--points", type=int, default=20)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    config = RunConfig(
        state="bell:psi-",
        b_fields=np.linspace(args.b_start_mt * 1e-3, args.b_stop_mt * 1e-3, args.points).tolist(),
        t_max=50.0,
        metric="g-extrema",
        workers=args.workers,
    )

    for b in CURVE_FIELDS_T:
        traj = trajectory_for_field(config, b)
        path = args.outdir / f"g_curve_b{1e3 * b:g}mT.csv"
        traj.to_csv(path, header_lines=header_lines(replace(config, b_fields=[b]), "evolve"))
        print(f"wrote {path}")

    table = run_sweep(config)
    sweep_path = args.outdir / "g_extrema_sweep.csv"
    table.to_csv(sweep_path, header_lines=header_lines(table.config, "sweep"))
    print(f"wrote {sweep_path}")

    curve = calibration_curve(table, "g_max_value")
    curve_path = args.outdir / "g_max_calibration.csv"
    curve.to_csv(curve_path,
                 header_lines=header_lines(table.config, "sweep", {"monotone": curve.monotone}))
    print(f"wrote {curve_path} (monotone={curve.monotone})")


if __name__ == "__main__":
    sys.exit(run_reporting_errors(main))
