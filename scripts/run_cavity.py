#!/usr/bin/env python3
"""Driven-cavity experiment at configurable scale.

Prints the per-iterate convergence table (relative increment, residual
sqrt(2E), step length) and optionally writes history/report/snapshots via
the package's experiment driver.

Examples:
    python scripts/run_cavity.py --nu 1/500
    python scripts/run_cavity.py --nu 1/3000 --policy fixed1
    python scripts/run_cavity.py --schedule "1/500, 1/1000" --out out/cont
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nslsq.cli import ExperimentConfig, run_experiment, _PARSERS  # noqa: E402
from nslsq.newton import POLICIES, VARIANTS  # noqa: E402


def print_table(records):
    print(f"{'k':>3} {'rel increment':>15} {'sqrt(2E)':>12} {'lambda':>8}")
    for r in records:
        ri = f"{r['rel_increment']:.3e}" if r["rel_increment"] is not None else "-"
        lam = f"{r['lambda']:.4f}" if r["lambda"] is not None else "-"
        print(f"{r['k']:>3} {ri:>15} {r['sqrt2E']:>12.3e} {lam:>8}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--nu", default="1/500", help="viscosity (fractions allowed)")
    ap.add_argument("--h", type=float, default=0.05, help="target mesh size")
    ap.add_argument("--T", type=float, default=2.0, help="final time")
    ap.add_argument("--dt", type=float, default=0.02, help="time step")
    ap.add_argument("--policy", default="quartic", choices=POLICIES)
    ap.add_argument("--variant", default="E", choices=VARIANTS)
    ap.add_argument("--schedule", default=None,
                    help="decreasing viscosity list, e.g. '1/500, 1/1000'")
    ap.add_argument("--snapshots", default="", help="comma-separated times")
    ap.add_argument("--out", default="out/cavity", help="output directory")
    args = ap.parse_args()

    cfg = ExperimentConfig(
        geometry="semidisk", h=args.h, T=args.T, dt=args.dt,
        nu=_PARSERS["nu"](args.nu), policy=args.policy, variant=args.variant,
        schedule=_PARSERS["schedule"](args.schedule) if args.schedule else None,
        snapshots=_PARSERS["snapshots"](args.snapshots) if args.snapshots else [],
        outdir=args.out)
    report = run_experiment(cfg)
    print_table(report.records)
    print(f"\noutcome: {report.outcome}   final sqrt(2E): {report.final_sqrt2E:.3e}")
    print(f"mesh: {report.n_triangles} triangles, {report.n_vertices} vertices, "
          f"{report.n_velocity_dofs} velocity dofs")
    print(f"wall time: {report.wall_time:.1f}s   outputs: {cfg.outdir}")
    return 0 if report.converged else (2 if report.outcome == "diverged" else 3)


if __name__ == "__main__":
    sys.exit(main())
