#!/usr/bin/env python3
"""Full-scale driven-cavity reproduction (long-running mode).

Discretization: semi-disk with h ~ 1.62e-2 (~9000 triangles), T = 10,
dt = 1e-2, stopping at sqrt(2E) <= 1e-8.  One run performs 1000
backward-Euler levels per auxiliary solve.  The direction sweep of each
outer iterate factorizes the linearized operator on 334 of its 1000
levels and solves the others by GMRES on the held LU, as
``timestepping._direction_level`` decides (``Operators.factorizations``
counts both).  On a 2-core VM, with nu = 1/500 and the Stokes initial
guess, a linearized LU took 1.02-1.06 s (nnz(L+U) 13.8M) and a lagged
level 27-38 ms with no GMRES iterations, so the first outer iterate
spends about 6 min factorizing and 20 s on the lagged levels; later
iterates add GMRES iterations to the lagged levels.  Use --nu to run a
single case.

With --check the computed sqrt(2E) column is compared row-by-row against
the reference histories (2 significant figures); mismatches are reported,
not fatal, since the reference used an unstructured mesh of the same
nominal size.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nslsq.cli import lid_profile, peak_rss_mb, write_history_csv  # noqa: E402
from nslsq.fem import build_space  # noqa: E402
from nslsq.mesh import generate_semidisk  # noqa: E402
from nslsq.newton import POLICIES, damped_newton_solve  # noqa: E402
from nslsq.timestepping import TimeGrid  # noqa: E402

# reference sqrt(2E) histories at h~1.62e-2, dt=1e-2, T=10 (quartic policy)
REFERENCE = {
    "1/500": [2.690e-2, 1.077e-2, 3.653e-3, 7.794e-4, 2.564e-5, 3.180e-8,
              6.384e-11],
    "1/1000": [2.690e-2, 1.493e-2, 7.608e-3, 5.477e-3, 3.814e-3, 2.295e-3,
               8.679e-4, 4.153e-5, 9.931e-8, 4.000e-11],
    "1/1100": [2.691e-2, 1.530e-2, 8.025e-3, 5.982e-3, 4.543e-3, 3.221e-3,
               1.944e-3, 5.937e-4, 1.081e-5, 1.332e-8, 4.611e-11],
}


def two_sig(x):
    return float(f"{x:.1e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--nu", choices=list(REFERENCE), default="1/500")
    ap.add_argument("--policy", default="quartic", choices=POLICIES)
    ap.add_argument("--h", type=float, default=1.62e-2)
    ap.add_argument("--T", type=float, default=10.0)
    ap.add_argument("--dt", type=float, default=1e-2)
    ap.add_argument("--out", default="out/full_scale")
    ap.add_argument("--check", action="store_true",
                    help="compare sqrt(2E) against the reference history")
    args = ap.parse_args()

    num, den = args.nu.split("/")
    nu = float(num) / float(den)
    mesh = generate_semidisk(args.h)
    space = build_space(mesh)
    grid = TimeGrid(args.T, round(args.T / args.dt))
    print(f"mesh: {mesh.n_triangles} triangles, {mesh.n_vertices} vertices, "
          f"{space.n_velocity} velocity dofs; N={grid.N} time levels")
    print(f"nu={args.nu}, policy={args.policy}; this will take a while...")

    t0 = time.time()
    res = damped_newton_solve(space, grid, nu, g=lid_profile, tol=1e-8,
                              policy=args.policy)
    print(f"outcome: {res.outcome} after {res.iterations} iterations "
          f"({time.time() - t0:.0f}s)")
    for r in res.records:
        lam = f"{r.lam:.4f}" if r.lam is not None else "-"
        print(f"  k={r.k:2d}  sqrt2E={r.sqrt2E:.3e}  lam={lam}")

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = args.nu.replace("/", "_")
    write_history_csv(res.records, outdir / f"history_{tag}_{args.policy}.csv")
    print(f"history written to {outdir}")

    if args.check and args.policy == "quartic":
        ref = REFERENCE[args.nu]
        rows = min(len(ref), len(res.records))
        bad = [(k, res.records[k].sqrt2E, ref[k]) for k in range(rows)
               if two_sig(res.records[k].sqrt2E) != two_sig(ref[k])]
        if bad:
            print(f"{len(bad)}/{rows} rows deviate from the reference at 2 "
                  "significant figures:")
            for k, got, want in bad:
                print(f"  k={k}: got {got:.3e}, reference {want:.3e}")
        else:
            print(f"all {rows} sqrt(2E) rows match the reference to 2 "
                  "significant figures")

    counts = res.ops.factorizations
    print(f"LUs: {counts['linearized']} linearized, {counts['heat']} heat, "
          f"{counts['stokes']} stokes; lagged levels: {counts['lagged']}, "
          f"Krylov iterations: {counts['krylov_iterations']}; "
          f"peak RSS: {peak_rss_mb():.0f} MB")


if __name__ == "__main__":
    main()
