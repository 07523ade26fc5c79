"""One solve of one workload in a fresh interpreter.

    python3 perfbench/once.py --workload NAME --seed N --trace 0|1 --out DIR

Prints one JSON line: the run's timings and peak memory, what the
correctness checks need (history, outcome, divergence, error against the
exact solution, problems found in the written outputs), problem sizes,
the environment and, with ``--trace 1``, the per-layer metrics and spans.
``run.py`` starts this once per repetition, so that peak memory and
set-up time belong to a single solve, and pins BLAS and OpenMP to one
thread through the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, instrument, layer_metrics, solve_window  # noqa: E402
from workloads import WORKLOADS, Workload, generate_mesh, perturb  # noqa: E402


def _solve_cli(w: Workload, seed: int, outdir: Path):
    """``run_experiment`` on the seeded mesh; returns the solver's result,
    which the run report does not carry."""
    from nslsq import cli

    build_mesh = cli.build_mesh
    cli.build_mesh = lambda config: perturb(build_mesh(config), seed)
    name = "damped_newton_solve" if w.variant == "E" else "residual_variant_solve"
    solver = getattr(cli, name)
    captured = {}

    def capture(*args, **kwargs):
        captured["result"] = solver(*args, **kwargs)
        return captured["result"]

    setattr(cli, name, capture)
    config = cli.ExperimentConfig(
        geometry=w.geometry, h=w.size, T=w.T, dt=w.T / w.N, nu=w.nu, tol=w.tol,
        variant=w.variant, snapshots=list(w.snapshots), outdir=str(outdir))
    cli.run_experiment(config)
    return captured["result"]


def _solve_direct(w: Workload, seed: int):
    from nslsq import cli, fem, newton
    from nslsq import manufactured as mf
    from nslsq.timestepping import TimeGrid

    space = fem.build_space(perturb(generate_mesh(w), seed))
    kwargs = {"tol": w.tol, "max_iter": w.max_iter}
    if w.manufactured:
        kwargs.update(f=mf.forcing(w.nu), u0=lambda x: mf.exact_velocity(x, 0.0))
    else:
        kwargs["g"] = cli.lid_profile
    solver = (newton.damped_newton_solve if w.variant == "E"
              else newton.residual_variant_solve)
    return solver(space, TimeGrid(w.T, w.N), w.nu, **kwargs)


def output_problems(outdir: Path, result, n_snapshots: int) -> list[str]:
    """Compare the files ``run_experiment`` wrote with the returned result."""
    problems = []
    rows = (outdir / "history.csv").read_text().splitlines()[1:]
    if [float(r.split(",")[2]) for r in rows] != [r.sqrt2E for r in result.records]:
        problems.append("history.csv differs from the solver's records")
    if json.loads((outdir / "report.txt").read_text())["outcome"] != result.outcome:
        problems.append("report.txt outcome differs from the solver's")
    for name in ("mesh.node", "mesh.ele"):
        if not (outdir / name).is_file() or not (outdir / name).stat().st_size:
            problems.append(f"{name} missing or empty")
    snaps = sorted(outdir.glob("snapshot_t*.vtk"))
    if len(snaps) != n_snapshots:
        problems.append(f"{len(snaps)} snapshots written, expected {n_snapshots}")
    for path in snaps:
        text = path.read_text()
        if "VECTORS velocity" not in text or "SCALARS stream_function" not in text:
            problems.append(f"{path.name} lacks the velocity or stream function")
    return problems


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    import numpy as np
    from nslsq import manufactured as mf
    from nslsq import timestepping

    tracer = Tracer()
    instrument(tracer, layers=bool(args.trace))
    root = tracer.begin("bench.wall")
    if w.driver == "cli":
        result = _solve_cli(w, args.seed, args.out)
    else:
        result = _solve_direct(w, args.seed)
    tracer.end(root)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start, setup_end, solve_end = solve_window(tracer)
    ops, grid = result.ops, result.ops.grid
    space = ops.space
    out = {
        "timings": {"wall_s": tracer.spans[root][3] - start,
                    "setup_s": setup_end - start,
                    "solve_s": solve_end - setup_end},
        "peak_rss_mb": peak_rss_mb,
        "outcome": result.outcome,
        "sqrt2E": [r.sqrt2E for r in result.records],
        # level 0 is the given initial condition, not a solver output
        "divergence_sup": timestepping.divergence_sup(
            ops, timestepping.FieldTrajectory(grid, result.trajectory.values[1:])),
        "l2v_error": (float(np.sqrt(mf.l2v_error_sq(space, grid, result.trajectory.values)))
                      if w.manufactured else None),
        "output_problems": (output_problems(args.out, result, len(w.snapshots))
                            if w.driver == "cli" else []),
        "sizes": {"triangles": space.mesh.n_triangles,
                  "velocity_dofs": space.n_velocity,
                  "saddle_unknowns": space.n_velocity + space.n_pressure,
                  "N": grid.N},
        "env": environment(),
    }
    if args.trace:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
