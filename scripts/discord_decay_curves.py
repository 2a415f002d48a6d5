#!/usr/bin/env python3
"""Bell-state discord decay at several fields, short window plus long-time tail.

Writes one trajectory CSV per field and a compact summary of the revival
structure (post-decay minimum and recovered level) for the low fields.
"""
import argparse
from pathlib import Path

import numpy as np

from qdspin import RunConfig, channel_for_field, evolve, make_state
from qdspin.states import Bell

SHORT_FIELDS_T = [0.0, 0.011, 0.0165, 1.0]
LONG_FIELDS_T = [0.0, 0.003]


def run(outdir: Path, t_short: float, t_long: float) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    state = make_state(Bell("psi-"))

    for b in SHORT_FIELDS_T:
        traj = evolve(state, channel_for_field(RunConfig(t_max=t_short), b))
        path = outdir / f"bell_discord_b{1e3 * b:g}mT.csv"
        traj.to_csv(path, header_lines=[f"b_tesla={b}", f"b_mt={1e3 * b:g}"])
        print(f"wrote {path}")

    print("\nlong-time tail (dense prefix + coarse grid):")
    for b in LONG_FIELDS_T:
        traj = evolve(state, channel_for_field(RunConfig(t_max=t_long), b))
        path = outdir / f"bell_discord_long_b{1e3 * b:g}mT.csv"
        traj.to_csv(path, header_lines=[f"b_tesla={b}", f"b_mt={1e3 * b:g}"])
        early = (traj.times > 0.5) & (traj.times < 100.0)
        i_min = int(np.argmin(traj.d_lower[early])) + int(np.nonzero(early)[0][0])
        recovered = float(traj.d_lower[i_min:].max())
        print(
            f"  B={1e3 * b:g} mT: D_min={traj.d_lower[i_min]:.3e} at {traj.times[i_min]:.1f} ns, "
            f"recovers to {recovered:.3e}; wrote {path}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--t-short", type=float, default=20.0)
    parser.add_argument("--t-long", type=float, default=12000.0)
    args = parser.parse_args()
    run(args.outdir, args.t_short, args.t_long)


if __name__ == "__main__":
    main()
