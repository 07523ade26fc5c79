#!/usr/bin/env python3
"""Fill and time of every LU a run factorizes, for a fixed set of cases.

    python scripts/lu_fill.py

Four cases are the semi-disk cavity at one mesh size, step and
viscosity: the desk mesh (h = 0.05, nu = 1/500) at dt = 0.02 and 0.01,
h = 0.025 at dt = 0.02 (nu = 1/500), and the full-scale mesh
(h = 0.0162) at dt = 0.01, nu = 1/1100.  The fifth is the unit square of
the manufactured runs (n = 8, dt = 0.01, nu = 0.1).  For each label it
takes the LU the solver makes (``linalg.Factorization`` on the matrix's
``EliminatedPattern``) and prints the matrix nnz, the ordering the LU
took, whether it computed that ordering (``fresh``), took the one its
pattern holds (``held``) or was the fill rule's fresh symmetric trial
(``trial``), its fill (``lu_nnz``, the entries SuperLU stores for L and
U), and the ordering a later LU would take (``kept``: the one the
linearized pattern holds after it; the heat and Stokes pattern makes
no other LU and holds none, so for those the LU's own).  It then times
a fresh LU of the same matrix (on the symmetric path for a trial) and
one on the kept ordering, three of each, interleaved, and prints the
median of each side by side in milliseconds, to 0.1 ms (the unit
square's LUs take a few ms).  A held LU is timed as a run makes every
held LU after an ordering's first: a symmetric ordering is laid out
once (``linalg.symmetric_layout``), outside the timed LUs, and each
held LU gathers by that layout.  The LUs are the heat-type
and Stokes-type operators (the first LUs of their pattern, each fresh,
made side by side; one LU per run each), then two linearized levels
(``Operators.linearized``), the first two a direction sweep factorizes:
on the semi-disk the first at the steady Stokes lid field, which orders
the linearized pattern by COLAMD, and a later one at half that field,
on the held ordering; on the square the manufactured velocity at levels
1 and 4.  There the first, COLAMD LU overfills, so the second is the
fill rule's symmetric trial, side by side with it, and ``kept`` shows
which ordering the pattern keeps.  It takes about 45 s on a 2-core VM,
most of it at full scale.
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nslsq.cli import lid_profile  # noqa: E402
from nslsq.fem import build_space, interpolate_velocity, lid_boundary_values  # noqa: E402
from nslsq.linalg import Factorization, symmetric_layout  # noqa: E402
from nslsq.manufactured import exact_velocity  # noqa: E402
from nslsq.mesh import generate_semidisk, generate_unit_square  # noqa: E402
from nslsq.timestepping import Operators, TimeGrid, steady_stokes_initial  # noqa: E402

# (name, geometry, size, dt, nu): size is h for the semi-disk, n for the square
CASES = (
    ("desk", "semidisk", 0.05, 0.02, 1 / 500),
    ("desk", "semidisk", 0.05, 0.01, 1 / 500),
    ("h=0.025", "semidisk", 0.025, 0.02, 1 / 500),
    ("full scale", "semidisk", 0.0162, 0.01, 1 / 1100),
    ("square n=8", "unit_square", 8, 0.01, 0.1),
)


def median_ms(makers: dict, repeats: int = 3) -> dict:
    """Median time of each LU maker in milliseconds, over ``repeats``
    interleaved rounds."""
    times = {name: [] for name in makers}
    for _ in range(repeats):
        for name, make in makers.items():
            t0 = time.perf_counter()
            make()
            times[name].append(1e3 * (time.perf_counter() - t0))
    return {name: statistics.median(t) for name, t in times.items()}


def linearized_fields(ops: Operators, geometry: str) -> tuple:
    """The velocities of the two linearized levels of a case."""
    space = ops.space
    if geometry == "semidisk":
        lid = steady_stokes_initial(ops, lid_boundary_values(space, lid_profile))
        return lid, 0.5 * lid
    return tuple(interpolate_velocity(space, exact_velocity, n * ops.grid.dt) for n in (1, 4))


def main():
    print(f"{'case':<11} {'dt':>6} {'nu':>9} {'label':<11} {'nnz(A)':>10} "
          f"{'ordering':<8} {'source':<6} {'nnz(L+U)':>11} {'kept':<8} "
          f"{'fresh ms':>8} {'held ms':>8}")
    spaces = {}
    for name, geometry, size, dt, nu in CASES:
        if (geometry, size) not in spaces:
            mesh = (generate_semidisk(size) if geometry == "semidisk"
                    else generate_unit_square(size))
            spaces = {(geometry, size): build_space(mesh)}
        space = spaces[geometry, size]
        ops = Operators(space, TimeGrid(dt, 1), nu)
        first, later = linearized_fields(ops, geometry)
        linearized = ops.linearized_pattern
        lus = (("heat", lambda: ops.heat.fact),
               ("stokes", lambda: ops.stokes.fact),
               ("linearized", lambda: linearized.factorize(
                   ops.linearized(first), "linearized")),
               ("linearized", lambda: linearized.factorize(
                   ops.linearized(later), "linearized")))
        for label, make_lu in lus:
            fact = make_lu()
            kept = linearized.order if label == "linearized" else fact.order
            if kept.symmetric:  # laid out once, as a run's first held LU does
                kept.layout = symmetric_layout(fact.matrix, kept.columns)
            source = ("held" if fact.order is fact.held
                      else "trial" if fact.symmetric_path else "fresh")
            fresh = Factorization.symmetric if fact.symmetric_path else Factorization
            ms = median_ms({
                "fresh": lambda: fresh(fact.matrix, label),
                "held": lambda: Factorization.reusing(kept, fact.matrix, label)})
            print(f"{name:<11} {dt:>6} {f'1/{round(1 / nu)}':>9} {label:<11} "
                  f"{fact.matrix.nnz:>10} {fact.ordering:<8} {source:<6} "
                  f"{fact.lu_nnz:>11} {kept.name:<8} "
                  f"{ms['fresh']:>8.1f} {ms['held']:>8.1f}", flush=True)
            del fact  # one linearized level alive at a time


if __name__ == "__main__":
    main()
