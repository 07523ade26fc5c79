import numpy as np
import pytest
import scipy.sparse as sp

from nslsq import linalg
from nslsq.fem import assemble_divergence, assemble_stiffness
from nslsq.linalg import (
    SaddleSystem,
    SolverError,
    apply_dirichlet,
    factorize,
)


def test_one_by_one():
    f = factorize(sp.csc_matrix(np.array([[2.0]])))
    assert f.solve(np.array([4.0]))[0] == pytest.approx(2.0)


def test_random_spd_matches_dense_elimination():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((20, 20))
    a = a @ a.T + 20 * np.eye(20)
    b = rng.standard_normal(20)
    x = factorize(sp.csc_matrix(a)).solve(b)
    assert np.abs(a @ x - b).max() < 1e-10
    assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-10


def test_singular_matrix_reports():
    a = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SolverError, match="singular"):
        factorize(a)


def test_non_square_rejected():
    with pytest.raises(SolverError, match="square"):
        factorize(sp.csc_matrix(np.ones((2, 3))))


def test_rhs_shape_mismatch():
    f = factorize(sp.csc_matrix(np.eye(3)))
    with pytest.raises(SolverError, match="shape"):
        f.solve(np.ones(4))


def test_factorization_reuse_and_counts():
    linalg.reset_factorization_counts()
    rng = np.random.default_rng(1)
    a = sp.csc_matrix(np.diag(rng.uniform(1, 2, size=10)))
    f = factorize(a, label="probe")
    for _ in range(5):
        b = rng.standard_normal(10)
        assert np.abs(a @ f.solve(b) - b).max() < 1e-12
    assert linalg.factorization_counts["probe"] == 1


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
    fact = factorize(SaddleSystem(assemble_stiffness(space), B, space.dirichlet_dofs))
    vel, _ = fact.solve(np.ones(space.n_velocity))
    assert np.abs(vel).max() < 1e-12


def test_saddle_stokes_zero_data_gives_zero(square1):
    system = SaddleSystem(assemble_stiffness(square1), assemble_divergence(square1),
                          square1.dirichlet_dofs)
    fact = factorize(system, label="stokes-test")
    vel, lam = fact.solve(np.zeros(square1.n_velocity))
    assert np.abs(vel).max() == 0.0
    assert np.abs(lam).max() < 1e-12


def test_saddle_exact_zeros_on_constrained(square2):
    rng = np.random.default_rng(4)
    system = SaddleSystem(assemble_stiffness(square2), assemble_divergence(square2),
                          square2.dirichlet_dofs)
    fact = factorize(system)
    vel, _ = fact.solve(rng.standard_normal(square2.n_velocity))
    assert np.abs(vel[square2.dirichlet_dofs]).max() == 0.0


def test_apply_dirichlet_validates_length(square1):
    system = SaddleSystem(assemble_stiffness(square1), assemble_divergence(square1),
                          square1.dirichlet_dofs)
    with pytest.raises(SolverError, match="boundary value"):
        apply_dirichlet(system, np.zeros(3))


def test_apply_dirichlet_inhomogeneous_patch(square2):
    """Global linear divergence-free field is reproduced exactly by the
    constrained Stokes solve (patch test)."""
    from conftest import linear_field

    u_lin = linear_field(square2, (0.3, 0.7, -0.2), (-0.1, 0.4, -0.7))  # div=0
    system = SaddleSystem(assemble_stiffness(square2), assemble_divergence(square2),
                          square2.dirichlet_dofs)
    system = apply_dirichlet(system, u_lin[square2.dirichlet_dofs])
    fact = factorize(system, label="patch")
    vel, _ = fact.solve(np.zeros(square2.n_velocity))
    assert np.abs(vel - u_lin).max() < 1e-9
