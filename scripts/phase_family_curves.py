#!/usr/bin/env python3
"""Discord decay of the symmetric phase family (|00>+|10>+|01>+e^{ig}|11>)/2.

Shows the inter-qubit-phase sensitivity of the decay at finite field and
its absence at zero field, and the abrupt lower/upper bound separation for
imaginary-phase members (a level crossing in the correlation matrix makes
the closed-form upper bound leave the lower one).
"""
import argparse
import math
from pathlib import Path

from qdspin import RunConfig, channel_for_field, evolve, make_state
from qdspin.config import header_lines
from qdspin.magnetometry import bound_separation_onset
from qdspin.states import PhaseFamily

FIELDS_T = (0.0, 0.011, 0.0165, 1.0)
GAMMAS = {"pi": math.pi, "pi_over_2": math.pi / 2, "3pi_over_4": 0.75 * math.pi,
          "2pi_over_3": 2 * math.pi / 3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    parser.add_argument("--tmax", type=float, default=20.0)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for b in FIELDS_T:
        chan = channel_for_field(RunConfig(t_max=args.tmax), b)
        for name, gamma in GAMMAS.items():
            traj = evolve(make_state(PhaseFamily(gamma)), chan)
            path = args.outdir / f"phase_{name}_b{1e3 * b:g}mT.csv"
            # the config echo reproduces this one trajectory: its state, field, grid and normalization
            config = RunConfig(state=f"phase:gamma={gamma!r}", b_fields=[b], t_max=args.tmax, normalize="half")
            traj.to_csv(path, header_lines=header_lines(config, "evolve", {"gamma": gamma}),
                        normalize=config.normalize)
            onset = bound_separation_onset(traj)
            print(f"B={1e3 * b:7g} mT gamma={name:11s}: bound-separation onset = {onset}")


if __name__ == "__main__":
    main()
