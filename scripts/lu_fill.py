#!/usr/bin/env python3
"""Fill and time of every LU a cavity run factorizes, for a fixed set of cases.

    python scripts/lu_fill.py

Each case is the semi-disk cavity at one mesh size, step and viscosity:
the desk mesh (h = 0.05, nu = 1/500) at dt = 0.02 and 0.01, h = 0.025
at dt = 0.02 (nu = 1/500), and the full-scale mesh (h = 0.0162) at
dt = 0.01, nu = 1/1100.  For each label it factorizes the matrix the
solver factorizes, as the solver does (``linalg.Factorization``), and
prints the matrix nnz, the ordering the LU took, whether it computed
that ordering (``fresh``) or took one held from an earlier LU of the same
pattern (``held``), its fill (``lu_nnz``, the entries SuperLU stores for
L and U) and the time of that factorization.  The LUs are the heat-type
operator (fresh symmetric ordering) and the Stokes-type operator (on the
heat LU's ordering), one LU per run each, then two linearized levels
(one LU per three levels of each direction sweep): the first at the
steady Stokes lid field, which orders the pattern by COLAMD, and a later
one at half that field, on the held ordering.  The two linearized rows
give the per-level saving of the held ordering.  It takes about 20 s on
a 2-core VM, most of it at full scale.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nslsq.cli import lid_profile  # noqa: E402
from nslsq.fem import build_space, lid_boundary_values  # noqa: E402
from nslsq.linalg import Factorization  # noqa: E402
from nslsq.mesh import generate_semidisk  # noqa: E402
from nslsq.timestepping import Operators, TimeGrid, steady_stokes_initial  # noqa: E402

# (name, h, dt, nu)
CASES = (
    ("desk", 0.05, 0.02, 1 / 500),
    ("desk", 0.05, 0.01, 1 / 500),
    ("h=0.025", 0.025, 0.02, 1 / 500),
    ("full scale", 0.0162, 0.01, 1 / 1100),
)


def main():
    print(f"{'case':<11} {'dt':>6} {'nu':>9} {'label':<11} {'nnz(A)':>10} "
          f"{'ordering':<8} {'source':<6} {'nnz(L+U)':>11} {'LU s':>8}")
    spaces = {}
    for name, h, dt, nu in CASES:
        if h not in spaces:
            spaces = {h: build_space(generate_semidisk(h))}
        space = spaces[h]
        ops = Operators(space, TimeGrid(dt, 1), nu)
        lid = steady_stokes_initial(ops, lid_boundary_values(space, lid_profile))
        for label, fact in (("heat", ops.heat.fact), ("stokes", ops.stokes.fact),
                            ("linearized", ops.linearized(lid).fact),
                            ("linearized", ops.linearized(0.5 * lid).fact)):
            t0 = time.perf_counter()
            lu = Factorization.reusing(fact.held, fact.matrix, label)
            secs = time.perf_counter() - t0
            source = "held" if lu.order is lu.held else "fresh"
            print(f"{name:<11} {dt:>6} {f'1/{round(1 / nu)}':>9} {label:<11} "
                  f"{fact.matrix.nnz:>10} {lu.ordering:<8} {source:<6} {lu.lu_nnz:>11} "
                  f"{secs:>8.3f}", flush=True)


if __name__ == "__main__":
    main()
