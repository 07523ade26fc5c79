import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nslsq.fem import assemble_divergence, assemble_stiffness, build_space
from nslsq.linalg import (
    DIAG_PIVOT_THRESH,
    KRYLOV_CYCLES,
    KRYLOV_RESTART,
    KRYLOV_RTOL,
    RESIDUAL_HARD,
    RESIDUAL_TOL,
    EliminatedPattern,
    Factorization,
    Ordering,
    SolverError,
    krylov_solve,
)
from nslsq.timestepping import Operators, TimeGrid

from conftest import jittered_semidisk, saddle_factorization


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


def test_pattern_rejects_repeated_pair():
    """A pattern's pairs are distinct; entries that share a pair name it
    through ``entries``."""
    rows, cols = np.array([0, 1, 0]), np.array([0, 1, 0])
    with pytest.raises(ValueError, match="repeats"):
        EliminatedPattern(rows, cols, 3, np.array([2]))
    pattern = EliminatedPattern(rows[:2], cols[:2], 3, np.array([2]),
                                entries=np.array([0, 1, 0]))
    m = pattern.matrix(np.array([1.0, 2.0, 3.0])).toarray()
    assert np.array_equal(m, np.diag([4.0, 2.0, 1.0]))


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


@pytest.mark.parametrize("mesh", ["square4", "jittered-semidisk"])
def test_heat_and_stokes_symmetric_lu_first_pass(mesh, square4):
    """Heat and Stokes solves with random loads and Dirichlet values meet
    the residual contract without refinement and agree with a COLAMD LU
    of the same matrix."""
    space = square4 if mesh == "square4" else build_space(jittered_semidisk(0.2, 3))
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


def _unsymmetric(n: int, seed: int) -> sp.csc_matrix:
    rng = np.random.default_rng(seed)
    return sp.csc_matrix(sp.random(n, n, density=0.05, random_state=rng)
                         + 4 * sp.eye(n))


def test_krylov_nearby_lu_one_lu_solve_per_iteration():
    """GMRES preconditioned with the LU of a nearby matrix meets the
    relative residual test, and with right preconditioning takes one LU
    solve per iteration plus one for the start."""
    a = _unsymmetric(200, 7)
    near = a + 1e-2 * _unsymmetric(200, 8)
    fact = Factorization(a)
    fact._lu = _RecordingLU(fact._lu)
    b = np.random.default_rng(9).standard_normal(200)
    x, iterations = krylov_solve(near, fact, b)
    assert x is not None and 0 < iterations <= KRYLOV_RESTART
    assert np.linalg.norm(b - near @ x) <= KRYLOV_RTOL * np.linalg.norm(b)
    assert len(fact._lu.rhs) == iterations + 1


def test_krylov_own_lu_takes_no_iteration():
    a = _unsymmetric(200, 7)
    fact = Factorization(a)
    fact._lu = _RecordingLU(fact._lu)
    b = np.random.default_rng(10).standard_normal(200)
    x, iterations = krylov_solve(a, fact, b)
    assert iterations == 0 and len(fact._lu.rhs) == 1
    assert np.linalg.norm(b - a @ x) <= KRYLOV_RTOL * np.linalg.norm(b)


def test_krylov_far_lu_gives_up():
    """The identity's LU captures nothing of a cyclic shift of 100
    unknowns: restarted GMRES runs out of cycles and returns no solution."""
    n = 100
    shift = sp.csc_matrix((np.ones(n), (np.roll(np.arange(n), -1), np.arange(n))))
    fact = Factorization(sp.eye(n, format="csc"))
    fact._lu = _RecordingLU(fact._lu)
    b = np.zeros(n)
    b[0] = 1.0
    x, iterations = krylov_solve(shift, fact, b)
    assert x is None
    assert iterations <= KRYLOV_CYCLES * KRYLOV_RESTART
    assert len(fact._lu.rhs) == iterations + 1


def _block_lus(space):
    """An ``mmd-sym`` LU (heat), a held symmetric ``_OrderedLU`` (Stokes on
    the heat ordering), a fresh and a held COLAMD LU (two linearized
    levels) of one space, a semi-disk: on the unit square the second
    linearized LU is the fill rule's fresh symmetric trial."""
    ops = Operators(space, TimeGrid(0.1, 1), nu=0.01)
    rng = np.random.default_rng(30)
    pattern = ops.linearized_pattern
    fresh, held = (pattern.factorize(ops.linearized(rng.standard_normal(
        space.n_velocity)), "linearized") for _ in range(2))
    return {"mmd-sym": ops.heat.fact, "held mmd-sym": ops.stokes.fact,
            "colamd": fresh, "held colamd": held}


@pytest.mark.parametrize("kind", ["mmd-sym", "held mmd-sym", "colamd", "held colamd"])
def test_block_solve_matches_single_solves(kind, disk_coarse):
    fact = _block_lus(disk_coarse)[kind]
    assert fact.ordering == kind.split()[-1]
    assert (fact.order is fact.held) == kind.startswith("held")
    b = np.random.default_rng(31).standard_normal((fact.n, 5))
    x = fact.solve(b)
    assert x.shape == b.shape
    for j in range(5):
        ref = fact.solve(b[:, j])
        assert np.abs(x[:, j] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_saddle_block_solve_matches_single_solves(square4):
    """A stack of momentum loads with Dirichlet values gives, row by row,
    the velocity and multiplier of one solve per load."""
    ops = Operators(square4, TimeGrid(0.1, 1), nu=0.01)
    rng = np.random.default_rng(32)
    loads = rng.standard_normal((4, square4.n_velocity))
    values = rng.standard_normal(len(square4.dirichlet_dofs))
    vel, lam = ops.heat.solve(loads, values)
    assert vel.shape == loads.shape and lam.shape == (4, square4.n_pressure)
    for n in range(4):
        v, m = ops.heat.solve(loads[n], values)
        assert np.abs(vel[n] - v).max() <= 1e-12 * np.abs(v).max()
        assert np.abs(lam[n] - m).max() <= 1e-12 * np.abs(m).max()


def _held_symmetric_lus(space):
    """The held symmetric LUs of one space: the Stokes LU on the heat
    ordering and, on the unit square, the third linearized LU, on the
    ordering of the fill rule's symmetric trial."""
    ops = Operators(space, TimeGrid(0.1, 1), nu=0.01)
    rng = np.random.default_rng(37)
    pattern = ops.linearized_pattern
    first, trial, third = (pattern.factorize(ops.linearized(rng.standard_normal(
        space.n_velocity)), "linearized") for _ in range(3))
    assert first.ordering == "colamd" and trial.held is None
    assert third.order is trial.order is pattern.order
    return {"stokes": ops.stokes.fact, "linearized": third}


def _ordered_by_indexing(fact):
    """The symmetrically ordered matrix of a held LU, by row and column
    indexing and a sort of every column."""
    q = fact.order.columns
    ordered = fact.matrix[q][:, q]
    ordered.sort_indices()
    return ordered


@pytest.mark.parametrize("label", ["stokes", "linearized"])
def test_symmetric_layout_gathers_the_ordered_matrix(label, square4):
    """The layout a pattern attaches to its held symmetric ordering gathers
    the matrix SuperLU is given: ``matrix[q][:, q]`` with sorted columns,
    bit for bit, from the data of each matrix of the pattern."""
    fact = _held_symmetric_lus(square4)[label]
    assert fact.ordering == "mmd-sym" and fact.order is fact.held
    gather, indices, indptr = fact.order.layout
    assert gather.dtype == indices.dtype == indptr.dtype == np.int32
    ref = _ordered_by_indexing(fact)
    assert np.array_equal(fact.matrix.data[gather], ref.data)
    assert np.array_equal(indices, ref.indices) and np.array_equal(indptr, ref.indptr)


@pytest.mark.parametrize("label", ["stokes", "linearized"])
def test_held_symmetric_lu_solves_as_indexed_superlu(label, square4):
    """A held symmetric LU, on its pattern's layout or on one laid out from
    its own matrix, solves a block exactly as a SuperLU of the ordered
    matrix made by row and column indexing."""
    fact = _held_symmetric_lus(square4)[label]
    q = fact.order.columns
    indexed = spla.splu(_ordered_by_indexing(fact), permc_spec="NATURAL",
                        diag_pivot_thresh=DIAG_PIVOT_THRESH)
    own = Factorization.reusing(Ordering("mmd-sym", q), fact.matrix, label)
    b = np.random.default_rng(38).standard_normal((fact.n, 5))
    ref = np.empty_like(b)
    ref[q] = indexed.solve(b[q])
    for lu in (fact, own):
        assert lu.lu_nnz == indexed.nnz
        assert np.array_equal(lu._lu.solve(b), ref)


def test_colamd_held_pattern_attaches_no_layout(disk_coarse):
    """On the semi-disk the linearized pattern holds the first LU's COLAMD
    ordering, and no layout: a held COLAMD LU gathers its columns alone.
    The heat pattern's symmetric ordering carries one."""
    ops = Operators(disk_coarse, TimeGrid(0.1, 1), nu=0.01)
    rng = np.random.default_rng(39)
    pattern = ops.linearized_pattern
    first, later = (pattern.factorize(ops.linearized(rng.standard_normal(
        disk_coarse.n_velocity)), "linearized") for _ in range(2))
    assert later.order is first.order is pattern.order
    assert pattern.order.name == "colamd" and pattern.order.layout is None
    assert ops.heat.fact.order.layout is not None


class _SpoilingLU(_RecordingLU):
    """LU stand-in that adds ``error`` to the last column of the solution
    of the first ``calls`` solves (every solve when None)."""

    def __init__(self, lu, error, calls=None):
        super().__init__(lu)
        self.error, self.calls = error, calls

    def solve(self, b):
        x = super().solve(b)
        if self.calls is None or len(self.rhs) <= self.calls:
            x.reshape(len(x), -1)[:, -1] += self.error
        return x


def _spoiled(error, calls=None):
    a = _unsymmetric(60, 33)
    fact = Factorization(a)
    fact._lu = _SpoilingLU(fact._lu, error, calls)
    return a, fact


def test_block_refinement_solves_only_failing_columns():
    a, fact = _spoiled(1e-4, calls=1)
    b = np.random.default_rng(34).standard_normal((60, 4))
    x = fact.solve(b)
    assert [r.shape for r in fact._lu.rhs] == [(60, 4), (60, 1)]
    assert np.array_equal(x[:, :3], spla.splu(a).solve(b)[:, :3])  # not refined
    nb = np.abs(b).max(axis=0)
    assert (np.abs(b - a @ x).max(axis=0) <= RESIDUAL_TOL * (1 + nb)).all()


def test_block_column_past_hard_limit_raises():
    _, fact = _spoiled(1.0)
    b = np.random.default_rng(35).standard_normal((60, 3))
    with pytest.raises(SolverError, match=f"exceeds {RESIDUAL_HARD:.0e}"):
        fact.solve(b)


def test_block_non_finite_column_is_not_checked():
    """A non-finite column comes back without an error; the finite columns
    keep the contract, and refinement solves only the one that misses it."""
    a, fact = _spoiled(1e-4, calls=1)
    b = np.random.default_rng(36).standard_normal((60, 3))
    b[5, 0] = np.nan
    x = fact.solve(b)
    assert [r.shape for r in fact._lu.rhs] == [(60, 3), (60, 1)]
    assert not np.isfinite(x[:, 0]).all()
    nb = np.abs(b[:, 1:]).max(axis=0)
    assert (np.abs(b[:, 1:] - a @ x[:, 1:]).max(axis=0) <= RESIDUAL_TOL * (1 + nb)).all()
    _, fact = _spoiled(1.0)
    with pytest.raises(SolverError, match="exceeds"):
        fact.solve(b)
