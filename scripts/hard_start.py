#!/usr/bin/env python3
"""Solve the lid-driven semi-disk from a noisy start and print what it cost.

The start is the Stokes initial guess of ``prepare_problem`` with standard
normal noise (``default_rng(0)``) added on levels 1..N, the Dirichlet dofs
keeping their values; ``newton_loop`` then runs E with the quartic step to
at most 40 iterates.  The mesh is the semi-disk at h = 0.1 with T = 1 and
N = 50 (``--quick``: h = 0.2, N = 8).  For nu = 1/500 and 1/2000 it prints
the outcome and its iterate, the final sqrt(2E), the direction sweeps'
linearized LUs, lagged levels, Krylov iterations and rejected Krylov solves
(``Operators.factorizations``), and the wall time of the outer loop.

    python scripts/hard_start.py
    python scripts/hard_start.py --quick
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nslsq.cli import lid_profile  # noqa: E402
from nslsq.fem import build_space  # noqa: E402
from nslsq.mesh import generate_semidisk  # noqa: E402
from nslsq.newton import newton_loop, prepare_problem  # noqa: E402
from nslsq.timestepping import FieldTrajectory, TimeGrid  # noqa: E402

VISCOSITIES = (1 / 500, 1 / 2000)
MAX_ITER = 40


def noise_start(space, y: FieldTrajectory, seed: int = 0) -> FieldTrajectory:
    """``y`` plus standard normal noise on levels 1..N, the Dirichlet dofs
    keeping their values."""
    values = y.values.copy()
    values[1:] += np.random.default_rng(seed).standard_normal(values[1:].shape)
    values[1:, space.dirichlet_dofs] = y.values[1:, space.dirichlet_dofs]
    return FieldTrajectory(y.grid, values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="h = 0.2, N = 8")
    h, steps = (0.2, 8) if ap.parse_args(argv).quick else (0.1, 50)
    space = build_space(generate_semidisk(h))
    grid = TimeGrid(1.0, steps)
    for nu in VISCOSITIES:
        ops, loads, y0 = prepare_problem(space, grid, nu, g=lid_profile)
        start = noise_start(space, y0)
        t0 = time.perf_counter()
        res = newton_loop(ops, start, loads, max_iter=MAX_ITER)
        wall = time.perf_counter() - t0
        counts = ops.factorizations
        print(f"nu = 1/{round(1 / nu)}: {res.outcome} at k = {res.iterations}, "
              f"sqrt(2E) {res.final_sqrt2E:.4e}; {counts['linearized']} LUs, "
              f"{counts['lagged']} lagged, {counts['krylov_iterations']} Krylov its, "
              f"{counts['krylov_rejections']} rejections; {wall:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
