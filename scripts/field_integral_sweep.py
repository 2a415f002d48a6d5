#!/usr/bin/env python3
"""Windowed discord integral M(B) for a separable but discordant Werner state.

M(B) integrates the rescaled discord over the first 20 ns, normalized by
its initial value; it grows monotonically with the field, so it inverts
cleanly into a field estimate without any entanglement in the input.
"""
import sys
from pathlib import Path

import numpy as np

from qdspin import RunConfig, calibration_curve, invert_field, run_sweep
from qdspin.cli import _Parser, run_reporting_errors
from qdspin.config import header_lines


def main() -> None:
    parser = _Parser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--p", type=float, default=0.33, help="Werner mixing (separable for p<=1/3)")
    parser.add_argument("--b-stop-mt", type=float, default=100.0)
    parser.add_argument("--points", type=int, default=21)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    config = RunConfig(
        state=f"werner:p={args.p!r}",
        b_fields=np.linspace(0.0, args.b_stop_mt * 1e-3, args.points).tolist(),
        metric="M",
        workers=args.workers,
    )
    table = run_sweep(config)
    sweep_path = args.outdir / "m_of_b_sweep.csv"
    table.to_csv(sweep_path, header_lines=header_lines(table.config, "sweep"))
    print(f"wrote {sweep_path}")

    curve = calibration_curve(table, "M")
    curve.to_csv(args.outdir / "m_calibration.csv",
                 header_lines=header_lines(table.config, "sweep", {"monotone": curve.monotone}))
    demo = 0.5 * (curve.values[0] + curve.values[-1])
    estimate = invert_field(curve, float(demo))
    print(
        f"monotone={curve.monotone}; example inversion: M={demo:.3f} ns -> "
        f"B={1e3 * estimate.b_estimate:.2f} mT (bracket {1e3 * estimate.bracket[0]:.2f}"
        f"..{1e3 * estimate.bracket[1]:.2f} mT)"
    )


if __name__ == "__main__":
    sys.exit(run_reporting_errors(main))
