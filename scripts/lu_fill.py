#!/usr/bin/env python3
"""Fill and time of every LU a cavity run factorizes, for a fixed set of cases.

    python scripts/lu_fill.py

Each case is the semi-disk cavity at one mesh size, step and viscosity:
the desk mesh (h = 0.05, nu = 1/500) at dt = 0.02 and 0.01, h = 0.025
at dt = 0.02 (nu = 1/500), and the full-scale mesh (h = 0.0162) at
dt = 0.01, nu = 1/1100.  For each label it takes the LU the solver
makes (``linalg.Factorization`` on the matrix's ``EliminatedPattern``)
and prints the matrix nnz, the ordering the LU took, whether it computed
that ordering (``fresh``) or took the one its pattern holds from the
pattern's first LU (``held``), and its fill (``lu_nnz``, the entries
SuperLU stores for L and U).  It then times a fresh LU of the same
matrix and one on the pattern's held ordering, three of each,
interleaved, and prints the median of each side by side.  The LUs are
the heat-type operator (the first LU of its pattern), the Stokes-type
operator (on the heat LU's ordering; one LU per run each), then two
linearized levels (``Operators.linearized``, factorized on the levels
``timestepping._direction_level`` picks): the first at the steady Stokes
lid field, which orders the linearized pattern by COLAMD, and a later
one at half that field, on the held ordering.  The linearized rows give
the per-level saving of the held ordering.  It takes about 45 s on a
2-core VM, most of it at full scale.
"""

import statistics
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


def median_seconds(makers: dict, repeats: int = 3) -> dict:
    """Median time of each LU maker, over ``repeats`` interleaved rounds."""
    times = {name: [] for name in makers}
    for _ in range(repeats):
        for name, make in makers.items():
            t0 = time.perf_counter()
            make()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(t) for name, t in times.items()}


def main():
    print(f"{'case':<11} {'dt':>6} {'nu':>9} {'label':<11} {'nnz(A)':>10} "
          f"{'ordering':<8} {'source':<6} {'nnz(L+U)':>11} {'fresh s':>8} {'held s':>8}")
    spaces = {}
    for name, h, dt, nu in CASES:
        if h not in spaces:
            spaces = {h: build_space(generate_semidisk(h))}
        space = spaces[h]
        ops = Operators(space, TimeGrid(dt, 1), nu)
        lid = steady_stokes_initial(ops, lid_boundary_values(space, lid_profile))
        linearized = ops.linearized_pattern
        lus = (("heat", ops.heat.pattern, lambda: ops.heat.fact),
               ("stokes", ops.stokes.pattern, lambda: ops.stokes.fact),
               ("linearized", linearized, lambda: linearized.factorize(
                   ops.linearized(lid), "linearized")),
               ("linearized", linearized, lambda: linearized.factorize(
                   ops.linearized(0.5 * lid), "linearized")))
        for label, pattern, make_lu in lus:
            fact = make_lu()
            source = "held" if fact.order is fact.held else "fresh"
            secs = median_seconds({
                "fresh": lambda: Factorization(fact.matrix, label),
                "held": lambda: pattern.factorize(fact.matrix, label)})
            print(f"{name:<11} {dt:>6} {f'1/{round(1 / nu)}':>9} {label:<11} "
                  f"{fact.matrix.nnz:>10} {fact.ordering:<8} {source:<6} "
                  f"{fact.lu_nnz:>11} {secs['fresh']:>8.3f} {secs['held']:>8.3f}",
                  flush=True)
            del fact  # one linearized level alive at a time


if __name__ == "__main__":
    main()
