import numpy as np
import pytest
import scipy.sparse as sp

from nslsq.fem import Space, build_space
from nslsq.mesh import Mesh, generate_semidisk, generate_unit_square


@pytest.fixture(scope="session")
def square1() -> Space:
    return build_space(generate_unit_square(1))


@pytest.fixture(scope="session")
def square2() -> Space:
    return build_space(generate_unit_square(2))


@pytest.fixture(scope="session")
def square4() -> Space:
    return build_space(generate_unit_square(4))


@pytest.fixture(scope="session")
def disk_coarse() -> Space:
    return build_space(generate_semidisk(0.12))


def constant_field(space: Space, cx: float, cy: float) -> np.ndarray:
    u = np.empty(space.n_velocity)
    u[: space.n_scalar] = cx
    u[space.n_scalar:] = cy
    return u


def linear_field(space: Space, coeffs_x, coeffs_y) -> np.ndarray:
    """Velocity (a + b*x + c*y) per component from coefficient triples."""
    x, y = space.p2_coords[:, 0], space.p2_coords[:, 1]
    ax, bx, cx = coeffs_x
    ay, by, cy = coeffs_y
    return np.concatenate([ax + bx * x + cx * y, ay + by * x + cy * y])


def jittered_semidisk(h: float, seed: int) -> Mesh:
    """The semi-disk with every interior vertex moved by at most a tenth
    of the shortest edge of the mesh."""
    mesh = generate_semidisk(h)
    p, t = mesh.vertices, mesh.triangles
    shortest = min(np.linalg.norm(p[t[:, i]] - p[t[:, (i + 1) % 3]], axis=1).min()
                   for i in range(3))
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-0.07, 0.07, p.shape) * shortest
    shift[np.unique(mesh.boundary_edges)] = 0.0
    return Mesh(p + shift, t, mesh.boundary_edges, mesh.boundary_tags)


def eliminate_dirichlet(matrix, constrained: np.ndarray):
    """Reference symmetric elimination of the constrained dofs of a square
    matrix, independent of ``linalg.EliminatedPattern``.

    Returns the eliminated matrix (the free-free entries and a unit
    diagonal on the constrained dofs, through ``coo.tocsc()``) and the
    coupling matrix mapping constrained values to the rhs correction of
    the free rows.
    """
    n = matrix.shape[0]
    coo = matrix.tocoo()
    free = np.ones(n, dtype=bool)
    free[constrained] = False
    keep = free[coo.row] & free[coo.col]
    rows = np.concatenate([coo.row[keep], constrained])
    cols = np.concatenate([coo.col[keep], constrained])
    data = np.concatenate([coo.data[keep], np.ones(len(constrained))])
    eliminated = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()

    pos = np.full(n, -1, dtype=np.int64)
    pos[constrained] = np.arange(len(constrained))
    cpl = free[coo.row] & ~free[coo.col]
    coupling = sp.coo_matrix(
        (coo.data[cpl], (coo.row[cpl], pos[coo.col[cpl]])),
        shape=(n, len(constrained))).tocsr()
    return eliminated, coupling
