#!/usr/bin/env python3
"""Bell-state discord decay at several fields, short window plus long-time tail.

Writes one trajectory CSV per field and a compact summary of the revival
structure (post-decay minimum and recovered level) for the low fields.
"""
import argparse
from pathlib import Path

from qdspin import RunConfig
from qdspin.config import header_lines
from qdspin.magnetometry import low_field_revival, trajectory_for_field

SHORT_FIELDS_T = [0.0, 0.011, 0.0165, 1.0]
LONG_FIELDS_T = [0.0, 0.003]


def run(outdir: Path, t_short: float, t_long: float) -> None:
    outdir.mkdir(parents=True, exist_ok=True)

    for b in SHORT_FIELDS_T:
        config = RunConfig(state="bell:psi-", b_fields=[b], t_max=t_short)
        traj = trajectory_for_field(config, b)
        path = outdir / f"bell_discord_b{1e3 * b:g}mT.csv"
        traj.to_csv(path, header_lines=header_lines(config, "evolve"))
        print(f"wrote {path}")

    print("\nlong-time tail (dense prefix + coarse grid):")
    for b in LONG_FIELDS_T:
        config = RunConfig(state="bell:psi-", b_fields=[b], t_max=t_long)
        traj = trajectory_for_field(config, b)
        path = outdir / f"bell_discord_long_b{1e3 * b:g}mT.csv"
        traj.to_csv(path, header_lines=header_lines(config, "evolve"))
        rev = low_field_revival(traj)
        print(f"  B={1e3 * b:g} mT: D_min={rev.d_min:.3e} at {rev.t_min:.1f} ns, "
              f"recovers to {rev.d_max:.3e}; wrote {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--t-short", type=float, default=20.0)
    parser.add_argument("--t-long", type=float, default=12000.0)
    args = parser.parse_args()
    run(args.outdir, args.t_short, args.t_long)


if __name__ == "__main__":
    main()
