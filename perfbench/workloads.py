"""The benchmark's workloads and their seeded mesh inputs.

This module imports nothing from nslsq or numpy at load time, so the
parent driver can read the workload table without starting the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

JITTER_FRACTION = 0.05  # of each interior vertex's shortest incident edge


@dataclass(frozen=True)
class Workload:
    """One solve the benchmark repeats.

    ``driver`` is ``cli`` (``run_experiment``, with outputs written) or
    ``solver`` (a direct call of the named outer loop).  ``outcome`` is
    the outcome every run must reach.
    """

    name: str
    geometry: str  # semidisk | unit_square
    size: float  # h for the semi-disk, cells per side for the unit square
    T: float
    N: int
    nu: float
    variant: str  # E (damped_newton_solve) | Etilde (residual_variant_solve)
    driver: str
    outcome: str
    tol: float = 1e-8
    max_iter: int = 100
    snapshots: tuple[float, ...] = ()
    manufactured: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # The desk cavity at desk mesh size and step, over the first 10
        # levels: linearized splu dominates, and it is the one workload
        # that writes the CLI outputs and factorizes the stream function.
        Workload("desk-cavity", "semidisk", 0.05, 0.2, 10, 1 / 500, "E", "cli",
                 "converged", snapshots=(0.1, 0.2)),
        # One outer iterate at h = 0.025: LU fill and memory dominate and
        # per-level Python overhead is negligible.
        Workload("fine-iterate", "semidisk", 0.025, 0.08, 4, 1 / 500, "E", "solver",
                 "max_iterations", max_iter=1),
        # Small systems, many levels: splu is about half the time, the rest
        # is per-level assembly, convection loads and Python.  Runs the
        # Etilde outer loop against an exact solution.
        Workload("manufactured-levels", "unit_square", 8, 0.5, 50, 0.1, "Etilde",
                 "solver", "converged", manufactured=True),
        # Harness self-test only.
        Workload("tiny", "unit_square", 2, 0.5, 4, 0.1, "E", "solver", "converged",
                 manufactured=True),
    )
}


def perturb(mesh, seed: int):
    """Jitter the interior vertices of ``mesh`` from ``seed``.

    Boundary vertices, topology and therefore every dof count stay fixed.
    Each interior vertex moves by at most ``JITTER_FRACTION`` of its
    shortest incident edge; the displacement is halved until no triangle
    keeps less than half its area.  Seed 0 returns the mesh unchanged.
    """
    if seed == 0:
        return mesh
    import numpy as np
    from nslsq.mesh import Mesh, edge_lengths, unique_edges

    nv = mesh.n_vertices
    edges, _ = unique_edges(mesh.triangles)
    lengths = edge_lengths(mesh)
    shortest = np.full(nv, np.inf)
    np.minimum.at(shortest, edges[:, 0], lengths)
    np.minimum.at(shortest, edges[:, 1], lengths)
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi, nv)
    radius = JITTER_FRACTION * shortest * np.sqrt(rng.uniform(0.0, 1.0, nv))
    shift = np.stack([np.cos(angle), np.sin(angle)], axis=1) * radius[:, None]
    shift[np.unique(mesh.boundary_edges)] = 0.0

    t = mesh.triangles
    old_areas = mesh.areas()
    while True:
        p = mesh.vertices + shift
        d1, d2 = p[t[:, 1]] - p[t[:, 0]], p[t[:, 2]] - p[t[:, 0]]
        areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if (areas >= 0.5 * old_areas).all():
            break
        shift *= 0.5
    return Mesh(p, t, mesh.boundary_edges, mesh.boundary_tags)


def generate_mesh(w: Workload):
    """The generator mesh of a workload, called through the mesh module."""
    from nslsq import mesh

    if w.geometry == "semidisk":
        return mesh.generate_semidisk(w.size)
    return mesh.generate_unit_square(int(w.size))
