import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nslsq import linalg
from nslsq.cli import stream_function
from nslsq.fem import (
    assemble_divergence,
    assemble_stiffness,
    build_space,
    interpolate_velocity,
)
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
    exactly_symmetric,
    krylov_solve,
    symmetric_layout,
)
from nslsq.manufactured import exact_velocity
from nslsq.mesh import generate_unit_square
from nslsq.timestepping import FieldTrajectory, Operators, TimeGrid, sweep

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
    subspace is {0}, and the saddle matrix is singular: 3 unpinned
    pressures act on 2 free velocity dofs, so the multiplier block has
    dependent rows.  The saddle pattern rejects it by the counts."""
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
    A, B = assemble_stiffness(space), assemble_divergence(space)
    free = np.setdiff1d(np.arange(space.n_velocity), space.dirichlet_dofs)
    b = B.toarray()[1:, :][:, free]
    assert null_space(b).shape[1] == 0
    # the eliminated saddle matrix has rank 2 + 2 of its 5 rows
    saddle = np.block([[A.toarray()[np.ix_(free, free)], b.T], [b, np.zeros((3, 3))]])
    assert b.shape == (3, 2) and np.linalg.matrix_rank(saddle) == 4
    with pytest.raises(SolverError, match="3 unpinned pressures constrain 2 free"):
        saddle_factorization(A, B, space.dirichlet_dofs, "two-triangle")


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
    """An ``mmd-sym`` LU (heat), a held symmetric ``_OrderedLU`` (the Stokes
    matrix on the heat ordering), a fresh and a held COLAMD LU (two
    linearized levels) of one space, a semi-disk: on the unit square the
    second linearized LU is the fill rule's fresh symmetric trial."""
    ops = Operators(space, TimeGrid(0.1, 1), nu=0.01)
    rng = np.random.default_rng(30)
    pattern = ops.linearized_pattern
    fresh, held = (pattern.factorize(ops.linearized(rng.standard_normal(
        space.n_velocity)), "linearized") for _ in range(2))
    held_sym = Factorization.reusing(ops.heat.fact.order, ops.stokes.fact.matrix, "stokes")
    return {"mmd-sym": ops.heat.fact, "held mmd-sym": held_sym,
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


def _held_symmetric_lu(space, label):
    """A held symmetric LU of one space, the unit square, whose linearized
    pattern holds the ordering of the fill rule's symmetric trial:
    ``"first held"`` is the third linearized LU, the first held, which
    lays out its own matrix and attaches the layout to the ordering;
    ``"linearized"`` is the fifth, the third held, which gathers by the
    layout attached from the third LU's matrix."""
    ops = Operators(space, TimeGrid(0.1, 1), nu=0.01)
    rng = np.random.default_rng(37)
    pattern = ops.linearized_pattern
    lus = [pattern.factorize(ops.linearized(rng.standard_normal(space.n_velocity)),
                             "linearized") for _ in range(3 if label == "first held" else 5)]
    first, trial = lus[:2]
    assert first.ordering == "colamd" and trial.held is None
    assert all(lu.order is trial.order is pattern.order for lu in lus[2:])
    assert pattern.order.layout is not None
    if label == "first held":
        return lus[2]
    attaching, fifth = lus[2], lus[4]
    assert not np.array_equal(fifth.matrix.data, attaching.matrix.data)
    return fifth


def _ordered_by_indexing(fact):
    """The symmetrically ordered matrix of a held LU, by row and column
    indexing and a sort of every column."""
    q = fact.order.columns
    ordered = fact.matrix[q][:, q]
    ordered.sort_indices()
    return ordered


@pytest.mark.parametrize("label", ["first held", "linearized"])
def test_symmetric_layout_gathers_the_ordered_matrix(label, square4):
    """The layout a held symmetric LU orders its matrix by gathers the
    matrix SuperLU is given, ``matrix[q][:, q]`` with sorted columns, bit
    for bit: the one the first held LU attached from its own matrix, and,
    for a later held LU, from an earlier matrix."""
    fact = _held_symmetric_lu(square4, label)
    assert fact.ordering == "mmd-sym" and fact.order is fact.held
    gather, indices, indptr = fact.order.layout
    assert gather.dtype == indices.dtype == indptr.dtype == np.int32
    ref = _ordered_by_indexing(fact)
    assert np.array_equal(fact.matrix.data[gather], ref.data)
    assert np.array_equal(indices, ref.indices) and np.array_equal(indptr, ref.indptr)


@pytest.mark.parametrize("label", ["first held", "linearized"])
def test_held_symmetric_lu_solves_as_indexed_superlu(label, square4):
    """A held symmetric LU, on the layout it attached from its own matrix
    (the first held) or on one attached from an earlier matrix (the
    fifth), and an LU on a fresh copy of its ordering, which lays out its
    matrix anew, solve a block exactly as a SuperLU of the ordered matrix
    made by row and column indexing."""
    fact = _held_symmetric_lu(square4, label)
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


def test_colamd_held_pattern_attaches_no_layout(disk_coarse, monkeypatch):
    """On the semi-disk the linearized pattern holds the first LU's COLAMD
    ordering for its two held LUs, and lays out nothing: a held COLAMD LU
    gathers its columns alone."""
    ops = Operators(disk_coarse, TimeGrid(0.1, 1), nu=0.01)
    rng = np.random.default_rng(39)
    pattern = ops.linearized_pattern
    calls = _counting_layouts(monkeypatch)
    first, *later = (pattern.factorize(ops.linearized(rng.standard_normal(
        disk_coarse.n_velocity)), "linearized") for _ in range(3))
    assert all(lu.order is first.order is pattern.order for lu in later)
    assert pattern.order.name == "colamd"
    assert pattern.order.layout is None and calls == []


def _counting_layouts(monkeypatch) -> list:
    """Record the columns of every ``symmetric_layout`` call."""
    calls = []

    def counted(matrix, columns):
        calls.append(columns)
        return symmetric_layout(matrix, columns)

    monkeypatch.setattr(linalg, "symmetric_layout", counted)
    return calls


@pytest.mark.parametrize("mesh", ["square4", "disk_coarse"])
def test_heat_pattern_keeps_no_layout_after_the_stokes_lu(mesh, request, monkeypatch):
    """The heat and Stokes LUs are both fresh: their pattern, which can make
    no other LU, holds no ordering and lays out nothing."""
    space = request.getfixturevalue(mesh)
    calls = _counting_layouts(monkeypatch)
    ops = Operators(space, TimeGrid(0.1, 1), nu=0.01)
    assert ops.heat.fact.held is ops.stokes.fact.held is None
    assert ops.heat.pattern.order is None
    assert ops.heat.fact.order.layout is ops.stokes.fact.order.layout is None
    assert calls == []


def test_linearized_pattern_keeps_a_layout_from_its_first_held_lu(square4, monkeypatch):
    """On the unit square the linearized pattern holds the trial's
    symmetric ordering; its first held LU lays out its own matrix and
    attaches the layout to the ordering, and every later held LU gathers
    by that layout without laying out again.  A direction sweep of the
    manufactured-levels benchmark (``n = 8``, ``N = 50``) lays out once."""
    ops = Operators(square4, TimeGrid(0.1, 1), nu=0.01)
    rng = np.random.default_rng(41)
    pattern = ops.linearized_pattern

    def factorize():
        return pattern.factorize(ops.linearized(rng.standard_normal(square4.n_velocity)),
                                 "linearized")

    factorize()  # COLAMD, overfilled
    trial = factorize()
    assert trial.ordering == "mmd-sym" and pattern.order is trial.order
    calls = _counting_layouts(monkeypatch)
    first_held = factorize()
    layout = pattern.order.layout
    assert first_held.order is pattern.order and layout is not None and len(calls) == 1
    ref = symmetric_layout(first_held.matrix, pattern.order.columns)
    assert all(np.array_equal(a, b) for a, b in zip(layout, ref))
    assert all(factorize().order is pattern.order for _ in range(2))
    assert pattern.order.layout is layout and len(calls) == 1

    space = build_space(generate_unit_square(8))
    grid = TimeGrid(0.01, 50)
    ops = Operators(space, grid, nu=0.1)
    y = FieldTrajectory(grid, np.array(
        [interpolate_velocity(space, exact_velocity, t) for t in grid.times()]))
    calls.clear()
    sweep(ops, rng.standard_normal((grid.N, space.n_velocity)), y)
    assert ops.linearized_lu["ordering"] == "mmd-sym"
    assert ops.factorizations["linearized"] > 2 and len(calls) == 1


def test_stream_lu_builds_no_layout(disk_coarse, monkeypatch):
    """The stream pattern makes one LU, a fresh one, and lays out nothing."""
    calls = _counting_layouts(monkeypatch)
    u = np.random.default_rng(43).standard_normal(disk_coarse.n_velocity)
    psi = stream_function(disk_coarse, u)
    assert np.isfinite(psi).all() and calls == []


def _symmetric_by_difference(matrix) -> bool:
    return abs(matrix - matrix.T).max() == 0


def test_symmetry_test_agrees_with_the_difference_on_the_run_matrices(disk_coarse):
    """On the heat, Stokes, linearized and stream matrices the one-copy
    test decides as ``abs(A - A.T).max() == 0``."""
    ops = Operators(disk_coarse, TimeGrid(0.1, 1), nu=0.01)
    k = disk_coarse.scalar_stiffness.tocoo()
    stream = EliminatedPattern(k.row, k.col, disk_coarse.n_scalar, disk_coarse.boundary_nodes)
    y = np.random.default_rng(45).standard_normal(disk_coarse.n_velocity)
    matrices = {"heat": ops.heat.fact.matrix, "stokes": ops.stokes.fact.matrix,
                "linearized": ops.linearized(y), "stream": stream.matrix(k.data)}
    for label, matrix in matrices.items():
        assert exactly_symmetric(matrix) == _symmetric_by_difference(matrix)
        assert exactly_symmetric(matrix) == (label != "linearized"), label


@pytest.mark.parametrize("facing, symmetric", [
    (None, True),    # an explicit zero facing no entry: the structures differ
    (0.0, True),     # facing an explicit zero
    (-0.0, True),    # facing a negative zero, equal to zero
    (3.0, False),    # facing a nonzero
])
def test_symmetry_test_with_explicit_zeros(facing, symmetric):
    """A stored zero at (0, 1) facing ``facing`` at (1, 0) (nothing when
    None): the one-copy test decides as the difference does."""
    rows, cols, vals = [0, 1, 1, 2, 2, 0], [0, 1, 2, 1, 2, 1], [1.0, 1.0, 2.0, 2.0, 1.0, 0.0]
    if facing is not None:
        rows, cols, vals = rows + [1], cols + [0], vals + [facing]
    matrix = sp.csc_matrix((vals, (rows, cols)), shape=(3, 3))
    assert matrix.nnz == len(vals)  # the zeros stay stored
    assert _symmetric_by_difference(matrix) == symmetric
    assert exactly_symmetric(matrix) == symmetric


def test_symmetry_test_sums_repeated_entries():
    """A CSC matrix that is not canonical (entry (0, 1) stored twice) is
    decided by the difference, which sums the repeats."""
    matrix = sp.csc_matrix(([1.0, 1.0, 0.5, 0.5, 1.0], [0, 1, 0, 0, 1], [0, 2, 5]),
                           shape=(2, 2))
    assert not matrix.has_canonical_format
    assert exactly_symmetric(matrix) and _symmetric_by_difference(matrix)


# numpy-side transients (tracemalloc peak above what the step keeps) on
# ``disk_coarse``, each against a reference taken in the test, measured
# with numpy 2.4.6 and SciPy 1.17.1.  The pattern build peaks at its
# entry gather, numpy indexing whose arrays' sizes their dtypes fix: it
# reads 3.10 times the bytes of the gathered slots, ``pattern._slots``,
# against 3.56 for a build that frees its numbering, slots and masks only
# at its end.  The first linearized LU's symmetry test holds one
# transposed copy of the matrix: the LU reads 1.05 times the bytes SciPy
# allocates for ``matrix.T.tocsc()`` in the test, against 3.6 for
# ``abs(A - A.T)``.  The bounds allow about 10% and 20% more.
PATTERN_BUILD_PER_SLOT_BYTE = 3.4
FIRST_LU_PER_COPY_BYTE = 1.25


def _transient(step):
    """``(result, bytes)``: the traced peak of ``step`` above the traced
    memory it leaves behind."""
    tracemalloc.reset_peak()
    result = step()
    current, peak = tracemalloc.get_traced_memory()
    return result, peak - current


def _allocated(step) -> int:
    """The traced peak of ``step``, whose result is kept, above the traced
    memory before it."""
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    step()
    return tracemalloc.get_traced_memory()[1] - start


def test_pattern_build_and_first_linearized_lu_transients(disk_coarse):
    """The numpy memory the linearized pattern's build and its first LU
    allocate and free again stays within the bounds above."""
    ops = Operators(disk_coarse, TimeGrid(0.1, 1), nu=0.01)
    y = np.random.default_rng(47).standard_normal(disk_coarse.n_velocity)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        pattern, build = _transient(lambda: ops.linearized_pattern)
        matrix = ops.linearized(y)
        copy = _allocated(lambda: matrix.T.tocsc())
        fact, first_lu = _transient(lambda: pattern.factorize(matrix, "linearized"))
    finally:
        if not tracing:
            tracemalloc.stop()
    assert fact.ordering == "colamd"
    slots = pattern._slots.nbytes
    assert build <= PATTERN_BUILD_PER_SLOT_BYTE * slots, build / slots
    assert first_lu <= FIRST_LU_PER_COPY_BYTE * copy, first_lu / copy


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
