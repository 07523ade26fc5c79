import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nslsq.fem import assemble_divergence, assemble_stiffness, build_space
from nslsq.linalg import RESIDUAL_TOL, Factorization, SolverError, saddle_factorization
from nslsq.mesh import Mesh, generate_semidisk
from nslsq.timestepping import Operators, TimeGrid


def test_one_by_one():
    f = Factorization(sp.csc_matrix(np.array([[2.0]])))
    assert f.solve(np.array([4.0]))[0] == pytest.approx(2.0)


def test_random_spd_matches_dense_elimination():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 20))
    a = a @ a.T + 20 * np.eye(20)
    b = rng.standard_normal(20)
    x = Factorization(sp.csc_matrix(a)).solve(b)
    assert np.abs(a @ x - b).max() < 1e-10
    assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-10


def test_singular_matrix_reports():
    a = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SolverError, match="singular"):
        Factorization(a)


def test_non_square_rejected():
    with pytest.raises(SolverError, match="square"):
        Factorization(sp.csc_matrix(np.ones((2, 3))))


def test_rhs_shape_mismatch():
    f = Factorization(sp.csc_matrix(np.eye(3)))
    with pytest.raises(SolverError, match="shape"):
        f.solve(np.ones(4))


def test_factorization_reuse_and_counts():
    rng = np.random.default_rng(1)
    a = sp.csc_matrix(np.diag(rng.uniform(1, 2, size=10)))
    f = Factorization(a, label="probe")
    for _ in range(5):
        b = rng.standard_normal(10)
        assert np.abs(a @ f.solve(b) - b).max() < 1e-12


def test_two_triangle_constrained_space_is_trivial():
    """On a 2-triangle mesh the homogeneous discretely divergence-free
    subspace is {0}: any constrained solve returns (numerically) zero
    velocity even though the multiplier block is rank-deficient."""
    from scipy.linalg import null_space

    from nslsq.fem import build_space
    from nslsq.mesh import Mesh, Tag

    mesh = Mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0, 1, 2], [0, 2, 3]]),
        np.array([[0, 1], [1, 2], [2, 3], [0, 3]]),
        np.array([Tag.WALL] * 4),
    )
    space = build_space(mesh)
    B = assemble_divergence(space)
    free = np.setdiff1d(np.arange(space.n_velocity), space.dirichlet_dofs)
    z = null_space(B.toarray()[1:, :][:, free])
    assert z.shape[1] == 0
    fact = saddle_factorization(assemble_stiffness(space), B, space.dirichlet_dofs,
                                "two-triangle")
    # singular in exact arithmetic: the symmetric LU meets a zero pivot
    assert fact.fact.ordering == "colamd"
    vel, _ = fact.solve(np.ones(space.n_velocity))
    assert np.abs(vel).max() < 1e-12


def test_saddle_stokes_zero_data_gives_zero(square1):
    fact = saddle_factorization(assemble_stiffness(square1), assemble_divergence(square1),
                                square1.dirichlet_dofs, "stokes-test")
    vel, lam = fact.solve(np.zeros(square1.n_velocity))
    assert np.abs(vel).max() == 0.0
    assert np.abs(lam).max() < 1e-12


def test_saddle_exact_zeros_on_constrained(square2):
    rng = np.random.default_rng(4)
    fact = saddle_factorization(assemble_stiffness(square2), assemble_divergence(square2),
                                square2.dirichlet_dofs, "stokes-test")
    vel, _ = fact.solve(rng.standard_normal(square2.n_velocity))
    assert np.abs(vel[square2.dirichlet_dofs]).max() == 0.0


def test_inhomogeneous_dirichlet_patch(square2):
    """Global linear divergence-free field is reproduced exactly by the
    constrained Stokes solve with its boundary values passed per solve
    (patch test)."""
    from conftest import linear_field

    u_lin = linear_field(square2, (0.3, 0.7, -0.2), (-0.1, 0.4, -0.7))  # div=0
    fact = saddle_factorization(assemble_stiffness(square2), assemble_divergence(square2),
                                square2.dirichlet_dofs, "patch")
    vel, _ = fact.solve(np.zeros(square2.n_velocity), u_lin[square2.dirichlet_dofs])
    assert np.abs(vel - u_lin).max() < 1e-9


class _RecordingLU:
    """LU stand-in that records the right-hand side of every solve."""

    def __init__(self, lu):
        self.lu = lu
        self.rhs = []

    def solve(self, b):
        self.rhs.append(b.copy())
        return self.lu.solve(b)


def test_symmetric_tiny_pivot_solves_exactly():
    """A tiny nonzero diagonal beside a unit off-diagonal must not be taken
    as a pivot: with a zero diagonal pivot threshold the residual is 1."""
    a = sp.csc_matrix(np.array([[1e-20, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]))
    f = Factorization(a)
    assert f.ordering == "mmd-sym"
    f._lu = _RecordingLU(f._lu)
    b = np.array([1.0, -2.0, 3.0])
    assert np.abs(a @ f.solve(b) - b).max() <= 1e-12
    assert len(f._lu.rhs) == 1  # refinement would hide a bad pivot


def test_unsymmetric_matrix_keeps_colamd():
    rng = np.random.default_rng(5)
    a = sp.random(40, 40, density=0.1, random_state=rng) + 4 * sp.eye(40)
    a = sp.csc_matrix(a)
    f = Factorization(a)
    plain = spla.splu(a)
    assert f.ordering == "colamd"
    assert np.array_equal(f._lu.perm_c, plain.perm_c)
    assert f.lu_nnz == plain.nnz


def _jittered_semidisk(h: float, seed: int) -> Mesh:
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


@pytest.mark.parametrize("mesh", ["square4", "jittered-semidisk"])
def test_heat_and_stokes_symmetric_lu_first_pass(mesh, square4):
    """Heat and Stokes solves with random loads and Dirichlet values meet
    the residual contract without refinement and agree with a COLAMD LU
    of the same matrix."""
    space = square4 if mesh == "square4" else build_space(_jittered_semidisk(0.2, 3))
    ops = Operators(space, TimeGrid(0.1, 1), nu=0.01)
    rng = np.random.default_rng(6)
    for saddle in (ops.heat, ops.stokes):
        fact = saddle.fact
        assert fact.ordering == "mmd-sym"
        fact._lu = _RecordingLU(fact._lu)
        vel, lam = saddle.solve(rng.standard_normal(space.n_velocity),
                                rng.standard_normal(len(space.dirichlet_dofs)))
        assert len(fact._lu.rhs) == 1  # no refinement step
        b = fact._lu.rhs[0]
        x = np.concatenate([vel, lam])
        assert np.abs(fact.matrix @ x - b).max() <= RESIDUAL_TOL * (1 + np.abs(b).max())
        ref = spla.splu(fact.matrix, permc_spec="COLAMD").solve(b)
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()
