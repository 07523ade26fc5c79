"""Batch front-end: configs, experiment driver, snapshots, CLI.

Configs are INI text; only the [experiment] section is read.  Each run writes
``history.csv`` (k, rel_increment, sqrt2E, lambda), ``report.txt`` (JSON),
the mesh in Triangle format, and legacy-VTK snapshots carrying the
velocity and its stream function on the P2 subtriangulation.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import manufactured as mf
from .fem import Space, build_space, vorticity_load
from .linalg import EliminatedPattern, SolverError
from .mesh import (
    Mesh,
    Tag,
    generate_semidisk,
    generate_unit_square,
    read_triangle_format,
    write_triangle_format,
)
from .newton import (
    POLICIES,
    VARIANTS,
    NewtonResult,
    continuation_in_nu,
    damped_newton_solve,
    residual_variant_solve,
)
from .timestepping import TimeGrid


def lid_profile(x):
    """Horizontal lid velocity: close to one, vanishing at x = +-1/2."""
    return (1 - np.exp(100 * (x - 0.5))) * (1 - np.exp(-100 * (x + 0.5)))


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    geometry: str = "semidisk"
    h: float = 0.05
    T: float = 2.0
    dt: float = 0.02
    nu: float = 1.0 / 500.0
    m: float = 2.0
    tol: float = 1e-8
    policy: str = "quartic"
    variant: str = "E"
    schedule: list[float] | None = None
    outdir: str = "out"
    snapshots: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.schedule is not None:
            if self.geometry == "unit_square":
                raise ConfigError("key 'schedule' is not supported with geometry "
                                  "unit_square (the manufactured-solution run)")
            if not self.schedule:
                raise ConfigError("bad value for key 'schedule': no viscosity given")
            if not all(math.isfinite(s) and s > 0 for s in self.schedule):
                raise ConfigError(f"bad value for key 'schedule': {self.schedule} "
                                  "(viscosities must be finite and positive)")
            if any(b >= a for a, b in zip(self.schedule[:-1], self.schedule[1:])):
                raise ConfigError(
                    f"schedule must be strictly decreasing, got {self.schedule}")
            if abs(self.schedule[-1] - self.nu) > 1e-15:
                # the configured nu is the target (last) viscosity
                self.nu = self.schedule[-1]
        for key in ("h", "T", "dt", "nu", "tol", "m"):
            value = getattr(self, key)
            ok = value >= 1.0 if key == "m" else value > 0.0
            if not (math.isfinite(value) and ok):
                rule = ">= 1" if key == "m" else "positive"
                raise ConfigError(
                    f"bad value for key '{key}': {value} (must be finite and {rule})")
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}, got '{self.policy}'")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got '{self.variant}'")
        ratio = self.T / self.dt
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ConfigError(f"dt={self.dt} does not divide T={self.T}")
        for t in self.snapshots:
            if not (0.0 <= t <= self.T):
                raise ConfigError(f"snapshot time {t} outside [0, {self.T}]")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.T, int(round(self.T / self.dt)))


def _parse_number(text: str) -> float:
    """Floats or fractions like 1/500."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


_PARSERS = {
    "geometry": str.strip,
    "h": _parse_number,
    "T": _parse_number,
    "dt": _parse_number,
    "nu": _parse_number,
    "m": _parse_number,
    "tol": _parse_number,
    "policy": str.strip,
    "variant": str.strip,
    "schedule": lambda s: [_parse_number(p) for p in s.split(",") if p.strip()],
    "outdir": str.strip,
    "snapshots": lambda s: [_parse_number(p) for p in s.split(",") if p.strip()],
}


def _parse_value(key: str, raw: str):
    try:
        return _PARSERS[key](raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for key '{key}': {raw!r} ({exc})") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI-style config text; unknown keys and type errors name the
    offending key."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax: {exc}") from exc
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    values = {}
    for key, raw in parser["experiment"].items():
        if key not in _PARSERS:
            raise ConfigError(f"unknown key '{key}'")
        values[key] = _parse_value(key, raw)
    return ExperimentConfig(**values)


@dataclass
class RunReport:
    """The JSON of ``report.txt``.  ``solver_counts`` is the run's
    ``Operators.factorizations``: LUs by label, lagged direction levels
    and their GMRES iterations.  ``lu_nnz`` is the fill of the run's heat
    and Stokes LUs, and ``linearized_lu`` the ``ordering`` and ``lu_nnz``
    of the LU whose ordering the linearized pattern holds
    (``Operators.linearized_lu``; None when no direction sweep ran).
    ``peak_rss_mb`` is the process's peak resident set
    size in MB when the report is made (``peak_rss_mb()``), after the
    solve and the snapshots."""

    config: dict
    records: list
    final_sqrt2E: float
    outcome: str
    converged: bool
    wall_time: float
    n_triangles: int
    n_vertices: int
    n_velocity_dofs: int
    convergence_rate: float | None = None
    errors: list[float] | None = None
    solver_counts: dict = field(default_factory=dict)
    lu_nnz: dict = field(default_factory=dict)
    linearized_lu: dict | None = None
    peak_rss_mb: float | None = None
    error: str | None = None  # ``NewtonResult.error``


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB: ``ru_maxrss``
    of ``getrusage(RUSAGE_SELF)``, which Linux reports in kB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def build_mesh(config: ExperimentConfig) -> Mesh:
    if config.geometry == "semidisk":
        return generate_semidisk(config.h)
    if config.geometry == "unit_square":
        return generate_unit_square(max(1, round(1.0 / config.h)))
    prefix = Path(config.geometry)
    node = prefix.with_suffix(".node")
    ele = prefix.with_suffix(".ele")
    if not node.exists() or not ele.exists():
        raise ConfigError(f"external mesh '{config.geometry}': missing "
                          f"{node.name} or {ele.name}")
    return read_triangle_format(node.read_text(), ele.read_text(),
                                {0: Tag.WALL, 1: Tag.LID, 2: Tag.WALL})


def stream_function(space: Space, u: np.ndarray) -> np.ndarray:
    """Scalar P2 stream function: -Lap(psi) = d2 u1 - d1 u2 weakly, psi = 0
    on the whole boundary; streamlines are its iso-contours.  ``u`` is one
    velocity or a stack of them (one per row), which share one LU."""
    k = space.scalar_stiffness.tocoo()
    pattern = EliminatedPattern(k.row, k.col, space.n_scalar, space.boundary_nodes)
    fact = pattern.factorize(pattern.matrix(k.data), "stream")
    velocities = np.reshape(u, (-1, space.n_velocity))
    psi = np.empty((len(velocities), space.n_scalar))
    for n, v in enumerate(velocities):
        b = vorticity_load(space, v)
        b[space.boundary_nodes] = 0.0
        psi[n] = fact.solve(b)
    psi[:, space.boundary_nodes] = 0.0
    return psi.reshape(np.shape(u)[:-1] + (space.n_scalar,))


def write_vtk(space: Space, fields: dict[str, np.ndarray], path):
    """Legacy ASCII VTK unstructured grid on the P2 subtriangulation.

    Each triangle is split into 4 using its midpoint nodes, so P2 fields
    are written with exact nodal values.  Velocity-length arrays become
    VECTORS, scalar-P2 arrays SCALARS; P1 (vertex) arrays are extended to
    midpoints by edge averaging.
    """
    lines = ["# vtk DataFile Version 3.0", "nslsq fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID"]
    n = space.n_scalar
    lines.append(f"POINTS {n} double")
    lines.extend(f"{x!r} {y!r} 0.0" for x, y in space.p2_coords.tolist())
    t = space.tri_p2
    sub = np.vstack([t[:, [0, 3, 5]], t[:, [1, 4, 3]], t[:, [2, 5, 4]],
                     t[:, [3, 4, 5]]])
    lines.append(f"CELLS {len(sub)} {4 * len(sub)}")
    lines.extend(f"3 {a} {b} {c}" for a, b, c in sub.tolist())
    lines.append(f"CELL_TYPES {len(sub)}")
    lines.extend(["5"] * len(sub))
    if fields:
        lines.append(f"POINT_DATA {n}")
    for name, values in fields.items():
        values = np.asarray(values, dtype=np.float64)
        if values.shape == (space.n_velocity,):
            lines.append(f"VECTORS {name} double")
            lines.extend(f"{vx!r} {vy!r} 0.0"
                         for vx, vy in zip(values[:n].tolist(), values[n:].tolist()))
            continue
        if values.shape == (space.n_pressure,):
            mid = 0.5 * (values[space.edges[:, 0]] + values[space.edges[:, 1]])
            values = np.concatenate([values, mid])
        if values.shape != (n,):
            raise ValueError(f"field '{name}' has unsupported shape {values.shape}")
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(map(repr, values.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def write_history_csv(records, path):
    lines = ["k,rel_increment,sqrt2E,lambda"]
    for r in records:
        ri = "" if r.rel_increment is None else f"{r.rel_increment:.16e}"
        lam = "" if r.lam is None else f"{r.lam:.16e}"
        lines.append(f"{r.k},{ri},{r.sqrt2E:.16e},{lam}")
    Path(path).write_text("\n".join(lines) + "\n")


def _records_as_dicts(records):
    return [{"k": r.k, "sqrt2E": r.sqrt2E, "lambda": r.lam,
             "rel_increment": r.rel_increment, "wall_time": r.wall_time,
             "predicted_sqrt2E": r.predicted_sqrt2E}
            for r in records]


def _solver_for(config: ExperimentConfig):
    return residual_variant_solve if config.variant == "Etilde" else damped_newton_solve


def write_mesh(mesh: Mesh, outdir: Path):
    """Write ``mesh.node`` and ``mesh.ele`` into ``outdir``, creating it."""
    outdir.mkdir(parents=True, exist_ok=True)
    node_text, ele_text = write_triangle_format(mesh)
    (outdir / "mesh.node").write_text(node_text)
    (outdir / "mesh.ele").write_text(ele_text)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute a configured solve and write history, report, mesh, and
    snapshots into the output directory."""
    t_start = time.perf_counter()
    outdir = Path(config.outdir)
    mesh = build_mesh(config)
    space = build_space(mesh)
    grid = config.grid
    write_mesh(mesh, outdir)

    rate = None
    errors = None
    if config.geometry == "unit_square":
        result, rate, errors = _run_manufactured(config, space, grid)
    elif config.schedule is not None:
        stages = continuation_in_nu(
            space, grid, config.schedule, g=lid_profile, variant=config.variant,
            tol=config.tol, m=config.m, policy=config.policy)
        for i, (nu, res) in enumerate(stages):
            write_history_csv(res.records, outdir / f"history_stage{i}.csv")
        result = stages[-1][1]
    else:
        solver = _solver_for(config)
        result = solver(space, grid, config.nu, g=lid_profile, tol=config.tol,
                        m=config.m, policy=config.policy)

    write_history_csv(result.records, outdir / "history.csv")
    _write_snapshots(config, space, grid, result, outdir)

    report = RunReport(
        config=asdict(config),
        records=_records_as_dicts(result.records),
        final_sqrt2E=result.final_sqrt2E,
        outcome=result.outcome,
        converged=result.converged,
        wall_time=time.perf_counter() - t_start,
        n_triangles=mesh.n_triangles,
        n_vertices=mesh.n_vertices,
        n_velocity_dofs=space.n_velocity,
        convergence_rate=rate,
        errors=errors,
        solver_counts=dict(result.ops.factorizations),
        lu_nnz={"heat": result.ops.heat.fact.lu_nnz,
                "stokes": result.ops.stokes.fact.lu_nnz},
        linearized_lu=result.ops.linearized_lu,
        peak_rss_mb=peak_rss_mb(),
        error=result.error,
    )
    (outdir / "report.txt").write_text(json.dumps(asdict(report), indent=2) + "\n")
    return report


def _run_manufactured(config: ExperimentConfig, space: Space, grid: TimeGrid):
    """Unit-square manufactured-forcing run plus one coupled refinement
    (h/2, dt/4) to measure the combined convergence rate."""
    solver = _solver_for(config)
    n_base = max(1, round(1.0 / config.h))
    errors = []
    result = None
    for n, steps in ((n_base, grid.N), (2 * n_base, 4 * grid.N)):
        sp = space if n == n_base else build_space(generate_unit_square(n))
        gr = TimeGrid(config.T, steps)
        res = solver(sp, gr, config.nu, f=mf.forcing(config.nu),
                     u0=lambda x: mf.exact_velocity(x, 0.0), tol=config.tol,
                     m=config.m, policy=config.policy)
        errors.append(float(np.sqrt(mf.l2v_error_sq(sp, gr, res.trajectory.values))))
        if result is None:
            result = res
    rate = float(np.log2(errors[0] / errors[1]))
    return result, rate, errors


def _write_snapshots(config, space, grid, result: NewtonResult, outdir: Path):
    if not config.snapshots:
        return
    levels = [min(max(round(t / grid.dt), 0), grid.N) for t in config.snapshots]
    u = result.trajectory.values[levels]
    for level, velocity, psi in zip(levels, u, stream_function(space, u)):
        write_vtk(space, {"velocity": velocity, "stream_function": psi},
                  outdir / f"snapshot_t{level * grid.dt:.6g}.vtk")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nslsq",
        description="Damped-Newton least-squares solver for the 2D unsteady "
                    "driven cavity (Taylor-Hood P2/P1, backward Euler).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to INI config")
    p_run.add_argument("--policy", choices=POLICIES, help="override step policy")
    p_run.add_argument("--variant", choices=VARIANTS, help="override functional")
    p_run.add_argument("--schedule", help="override viscosity schedule, e.g. "
                       "'1/500, 1/1000'")
    p_run.add_argument("--out", help="override output directory")

    p_mesh = sub.add_parser("mesh", help="generate a mesh and write .node/.ele")
    p_mesh.add_argument("geometry", choices=["semidisk", "unit_square"])
    p_mesh.add_argument("--h", type=float, required=True, help="target mesh size")
    p_mesh.add_argument("--out", required=True, help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "mesh":
            mesh = build_mesh(ExperimentConfig(geometry=args.geometry, h=args.h))
            write_mesh(mesh, Path(args.out))
            print(f"wrote {Path(args.out) / 'mesh.node'} ({mesh.n_vertices} "
                  f"vertices, {mesh.n_triangles} triangles)")
            return 0
        config = parse_config(Path(args.config).read_text())
        if args.policy:
            config.policy = args.policy
        if args.variant:
            config.variant = args.variant
        if args.schedule is not None:
            config.schedule = _parse_value("schedule", args.schedule)
        if args.out:
            config.outdir = args.out
        config.__post_init__()  # re-validate overrides
        report = run_experiment(config)
    except (ValueError, SolverError, OSError) as exc:
        # ConfigError, MeshError, and ParseError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'k':>3} {'rel increment':>15} {'sqrt(2E)':>12} {'lambda':>8}")
    for r in report.records:
        ri = "-" if r["rel_increment"] is None else f"{r['rel_increment']:.3e}"
        lam = "-" if r["lambda"] is None else f"{r['lambda']:.4f}"
        print(f"{r['k']:>3} {ri:>15} {r['sqrt2E']:>12.3e} {lam:>8}")
    print(f"outcome: {report.outcome}  final sqrt(2E): {report.final_sqrt2E:.3e}  "
          f"iterations: {report.records[-1]['k']}  wall: {report.wall_time:.1f}s")
    if report.error is not None:
        print(f"{report.outcome}: {report.error}")
    counts = report.solver_counts
    print(f"LUs: {counts.get('linearized', 0)} linearized, {counts.get('heat', 0)} heat, "
          f"{counts.get('stokes', 0)} stokes; lagged levels: {counts.get('lagged', 0)}, "
          f"Krylov iterations: {counts.get('krylov_iterations', 0)}; "
          f"peak RSS: {report.peak_rss_mb:.0f} MB")
    if report.convergence_rate is not None:
        print(f"measured convergence rate: {report.convergence_rate:.2f} "
              f"(errors: {report.errors})")
    print(f"outputs in {config.outdir}")
    return {"converged": 0, "diverged": 2}.get(report.outcome, 3)
