import numpy as np
import pytest

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
