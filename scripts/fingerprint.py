#!/usr/bin/env python3
"""Fingerprint a fixed set of solves, or compare two fingerprints.

A change meant to keep the arithmetic (or to move it only by roundoff)
is checked by fingerprinting the tree before and after it:

    python scripts/fingerprint.py before.npz       # on the old tree
    python scripts/fingerprint.py after.npz        # on the new tree
    python scripts/fingerprint.py --compare before.npz after.npz

The solves (under a minute in total) are the manufactured unit square
(n = 3, T = 0.5, N = 8, nu = 0.1) with each variant and step policy,
continuation over nu = 0.2, 0.05 on the semi-disk (h = 0.2, T = 0.5,
N = 5, lid data) with each variant, the desk cavity for ten levels
(h = 0.05, T = 0.2, N = 10, nu = 1/500) and the manufactured unit square
over many levels (n = 8, T = 0.5, N = 50), each with both variants.

Each solve saves its outcome, its sqrt2E, lambda and rel_increment rows
(NaN where a row has none), and its final trajectory.  The comparison
prints, per solve, whether it is bit-identical, the largest sqrt2E row
deviation in units of r_k + r_{k-1} (with r_{-1} = 0), and the largest
trajectory difference relative to the max-abs of the first trajectory.
It exits 1 when an outcome or an iteration count differs, when a sqrt2E
row deviates by more than ROW_GATE (r_k + r_{k-1}), or when a sqrt2E row
is NaN in one file only.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nslsq import manufactured as mf  # noqa: E402
from nslsq.cli import lid_profile  # noqa: E402
from nslsq.fem import build_space  # noqa: E402
from nslsq.mesh import generate_semidisk, generate_unit_square  # noqa: E402
from nslsq.newton import (  # noqa: E402
    continuation_in_nu,
    damped_newton_solve,
    residual_variant_solve,
)
from nslsq.timestepping import TimeGrid  # noqa: E402

SOLVERS = {"E": damped_newton_solve, "Etilde": residual_variant_solve}
ROWS = ("sqrt2E", "lambda", "rel_increment")
ROW_GATE = 1e-9  # largest sqrt2E row deviation, in units of r_k + r_{k-1}


def _manufactured(nu):
    return dict(f=mf.forcing(nu), u0=lambda x: mf.exact_velocity(x, 0.0))


def solves():
    """Yield (name, NewtonResult) for the fixed set of solves."""
    square3 = build_space(generate_unit_square(3))
    for variant, solve in SOLVERS.items():
        for policy in ("quartic", "cheap", "fixed1"):
            yield (f"square3-{variant}-{policy}",
                   solve(square3, TimeGrid(0.5, 8), 0.1, policy=policy,
                          **_manufactured(0.1)))
    disk = build_space(generate_semidisk(0.2))
    for variant, solve in SOLVERS.items():
        stages = continuation_in_nu(disk, TimeGrid(0.5, 5), [0.2, 0.05],
                                    variant=variant, g=lid_profile)
        for i, (_, res) in enumerate(stages):
            yield f"continuation-{variant}-stage{i}", res
    desk = build_space(generate_semidisk(0.05))
    for variant, solve in SOLVERS.items():
        yield (f"desk-{variant}",
               solve(desk, TimeGrid(0.2, 10), 1 / 500, g=lid_profile))
    square8 = build_space(generate_unit_square(8))
    for variant, solve in SOLVERS.items():
        yield (f"square8-{variant}",
               solve(square8, TimeGrid(0.5, 50), 0.1, **_manufactured(0.1)))


def record(path):
    data = {}
    names = []
    for name, res in solves():
        names.append(name)
        data[f"{name}/outcome"] = np.array(res.outcome)
        for row, attr in zip(ROWS, ("sqrt2E", "lam", "rel_increment")):
            data[f"{name}/{row}"] = np.array(
                [np.nan if getattr(r, attr) is None else getattr(r, attr)
                 for r in res.records])
        data[f"{name}/trajectory"] = res.trajectory.values
        print(f"{name}: {res.outcome} after {res.iterations} iterations")
    np.savez(path, names=np.array(names), **data)


def compare(path_a, path_b) -> int:
    a, b = np.load(path_a), np.load(path_b)
    status = 0
    print(f"{'solve':<28} {'outcome':<16} {'iters':>5} {'identical':>9} "
          f"{'row dev':>9} {'traj rel':>9} {'gate':>5}")
    for name in a["names"]:
        outcome = str(a[f"{name}/outcome"])
        ra, rb = a[f"{name}/sqrt2E"], b[f"{name}/sqrt2E"]
        ta, tb = a[f"{name}/trajectory"], b[f"{name}/trajectory"]
        same_run = outcome == str(b[f"{name}/outcome"]) and len(ra) == len(rb)
        if not same_run:
            status = 1
            print(f"{name:<28} {outcome} vs {b[f'{name}/outcome']}, "
                  f"{len(ra) - 1} vs {len(rb) - 1} iterations")
            continue
        identical = ta.tobytes() == tb.tobytes() and all(
            a[f"{name}/{row}"].tobytes() == b[f"{name}/{row}"].tobytes()
            for row in ROWS)
        dev = np.abs(ra - rb)
        scale = ra + np.concatenate([[0.0], ra[:-1]])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dev == 0.0, 0.0, dev / scale)  # NaN where both are NaN
        one_sided = np.isnan(ra) != np.isnan(rb)
        row_dev = np.nan if one_sided.any() else float(np.nanmax(ratio, initial=0.0))
        passed = not one_sided.any() and not (ratio > ROW_GATE).any()
        status = status if passed else 1
        traj_rel = float(np.abs(ta - tb).max() / max(np.abs(ta).max(), 1e-300))
        print(f"{name:<28} {outcome:<16} {len(ra) - 1:>5} "
              f"{'yes' if identical else 'no':>9} {row_dev:>9.2e} {traj_rel:>9.2e} "
              f"{'ok' if passed else 'FAIL':>5}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", nargs="?", help="fingerprint file to write (.npz)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two fingerprint files instead of solving")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        ap.error("give an output file or --compare A B")
    record(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
