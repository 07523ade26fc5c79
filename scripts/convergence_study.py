#!/usr/bin/env python3
"""Manufactured-solution convergence study on the unit square.

Couples dt ~ h^2 so the combined backward-Euler/Taylor-Hood error
O(h^2 + dt) shows up as a clean second-order slope in h.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nslsq.cli import ExperimentConfig, build_mesh, manufactured_levels  # noqa: E402
from nslsq.fem import build_space  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nu", type=float, default=0.1)
    ap.add_argument("--T", type=float, default=0.5)
    ap.add_argument("--levels", type=int, default=3, help="number of levels")
    ap.add_argument("--n0", type=int, default=4, help="coarsest cells per side")
    ap.add_argument("--steps0", type=int, default=5, help="coarsest time steps")
    args = ap.parse_args(argv)

    config = ExperimentConfig(geometry="unit_square", h=1 / args.n0, T=args.T,
                              dt=args.T / args.steps0, nu=args.nu)
    space = build_space(build_mesh(config))
    print(f"{'n':>4} {'dt':>10} {'L2(V) error':>13} {'rate':>6} {'iters':>6}")
    errors, hs = [], []
    for lev, (res, err) in enumerate(manufactured_levels(config, space, config.grid,
                                                         args.levels)):
        n = args.n0 * 2**lev
        rate = (f"{np.log2(errors[-1] / err):.2f}" if errors else "-")
        errors.append(err)
        hs.append(1 / n)
        print(f"{n:>4} {res.ops.grid.dt:>10.4g} {err:>13.4e} {rate:>6} "
              f"{res.iterations:>6}")
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    print(f"\nfitted rate in h: {slope:.2f} (expected 2.0 with dt ~ h^2)")


if __name__ == "__main__":
    main()
