import numpy as np
import pytest
from scipy.linalg import null_space

from nslsq import manufactured as mf
from nslsq.fem import (
    assemble_divergence,
    assemble_mass,
    assemble_stiffness,
    build_space,
    interpolate_velocity,
    lid_boundary_values,
    load_vector,
)
from nslsq.linalg import FILL_RATIO, Factorization, SolverError
from nslsq.mesh import Tag, generate_semidisk, generate_unit_square
from nslsq.timestepping import (
    LIFT_BLOCK,
    Operators,
    TimeGrid,
    divergence_sup,
    lift,
    steady_stokes_initial,
    unsteady_stokes_initial_guess,
)

from conftest import saddle_factorization

LID_G = lambda x: (1 - np.exp(100 * (x - 0.5))) * (1 - np.exp(-100 * (x + 0.5)))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 5)
    for T in (np.inf, np.nan):
        with pytest.raises(ValueError, match="T must be finite and positive"):
            TimeGrid(T, 4)
    assert TimeGrid(2.0, 100).dt == pytest.approx(0.02)


@pytest.mark.parametrize("nu", [0.0, -0.05, np.nan, np.inf])
def test_operators_reject_bad_viscosity(square2, nu):
    """``__init__`` and ``with_nu`` share one finite-and-positive check."""
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError, match="viscosity must be finite and positive"):
        Operators(square2, grid, nu)
    with pytest.raises(ValueError, match="viscosity must be finite and positive"):
        Operators(square2, grid, 0.2).with_nu(nu)


def test_zero_data_gives_zero_everything(square2):
    ops = Operators(square2, TimeGrid(1.0, 4), nu=1.0)
    values = np.zeros(len(square2.dirichlet_dofs))
    u0 = steady_stokes_initial(ops, values)
    assert np.abs(u0).max() == 0.0
    traj = unsteady_stokes_initial_guess(ops, u0, values)
    assert np.abs(traj.values).max() == 0.0


def test_steady_stokes_lid_values_and_divergence(disk_coarse):
    ops = Operators(disk_coarse, TimeGrid(1.0, 2), nu=1.0)
    values = lid_boundary_values(disk_coarse, LID_G)
    u0 = steady_stokes_initial(ops, values)
    lid_nodes = disk_coarse.boundary_nodes[disk_coarse.boundary_node_tags == Tag.LID]
    g_interp = LID_G(disk_coarse.p2_coords[lid_nodes, 0])
    assert abs(np.abs(u0[lid_nodes]).max() - np.abs(g_interp).max()) < 1e-6
    assert np.abs(ops.B @ u0).max() < 1e-8


def test_steady_stokes_velocity_independent_of_viscosity(disk_coarse):
    grid = TimeGrid(1.0, 2)
    ops = Operators(disk_coarse, grid, nu=1.0)
    values = lid_boundary_values(disk_coarse, LID_G)
    u_unit = steady_stokes_initial(ops, values)
    scaled = saddle_factorization(7.5 * ops.K, ops.B, disk_coarse.dirichlet_dofs,
                                  "stokes-scaled")
    u_scaled, _ = scaled.solve(np.zeros(disk_coarse.n_velocity), values)
    assert np.abs(u_unit - u_scaled).max() < 1e-9


def test_manufactured_steady_stokes_second_order():
    errs, hs = [], []
    for n in (4, 8, 16):
        space = build_space(generate_unit_square(n))
        ops = Operators(space, TimeGrid(1.0, 1), nu=1.0)
        load = load_vector(space, lambda x, t: -mf.exact_laplacian(x, 0.0), 0.0)
        values = np.zeros(len(space.dirichlet_dofs))
        u, _ = ops.stokes.solve(load, values)
        exact = interpolate_velocity(space, lambda x: mf.exact_velocity(x, 0.0))
        err = np.sqrt((u - exact) @ (ops.K @ (u - exact)))
        errs.append(err)
        hs.append(1.0 / n)
    rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert rate > 1.6


def test_unsteady_stokes_monotone_approach_to_steady(disk_coarse):
    grid = TimeGrid(2.0, 20)
    ops = Operators(disk_coarse, grid, nu=1.0)
    values = lid_boundary_values(disk_coarse, LID_G)
    steady = steady_stokes_initial(ops, values)
    traj = unsteady_stokes_initial_guess(ops, np.zeros(disk_coarse.n_velocity), values)

    def vdist(level):
        d = traj.values[level] - steady
        return np.sqrt(d @ (ops.K @ d))

    assert vdist(grid.N) <= vdist(grid.N // 2)
    dists = [vdist(n) for n in range(1, grid.N + 1)]
    assert all(b <= a + 1e-12 for a, b in zip(dists[:-1], dists[1:]))
    assert divergence_sup(ops, traj) < 1e-8
    # the time-constant data are imposed exactly on every computed level
    assert np.array_equal(traj.values[1:, disk_coarse.dirichlet_dofs],
                          np.tile(values, (grid.N, 1)))


def test_kinetic_energy_decays_without_forcing(disk_coarse):
    """Homogeneous boundary, zero load: 1/2 y^T M y is non-increasing
    (unconditional stability of the implicit step)."""
    grid = TimeGrid(1.0, 10)
    ops = Operators(disk_coarse, grid, nu=1.0)
    values = np.zeros(len(disk_coarse.dirichlet_dofs))
    rng = np.random.default_rng(14)
    load = rng.standard_normal(disk_coarse.n_velocity)
    u0, _ = ops.stokes.solve(load)  # divergence-free start
    traj = unsteady_stokes_initial_guess(ops, u0, values)
    kinetic = [0.5 * traj.values[n] @ (ops.M @ traj.values[n])
               for n in range(grid.N + 1)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(kinetic[:-1], kinetic[1:]))


def test_single_huge_step_reaches_steady(disk_coarse):
    grid = TimeGrid(1e9, 1)
    ops = Operators(disk_coarse, grid, nu=1.0)
    values = lid_boundary_values(disk_coarse, LID_G)
    steady = steady_stokes_initial(ops, values)
    traj = unsteady_stokes_initial_guess(ops, np.zeros(disk_coarse.n_velocity), values)
    d = traj.values[1] - steady
    assert np.sqrt(d @ (ops.K @ d)) < 1e-6


def test_trajectory_level_zero_bitwise(disk_coarse):
    grid = TimeGrid(1.0, 3)
    ops = Operators(disk_coarse, grid, nu=1.0)
    values = lid_boundary_values(disk_coarse, LID_G)
    u0 = steady_stokes_initial(ops, values)
    traj = unsteady_stokes_initial_guess(ops, u0, values)
    assert np.array_equal(traj.values[0], u0)


def test_implicit_step_first_order_in_dt(square2):
    """Backward Euler against an exact semi-discrete solution
    u(t) = (1 - e^{-t}) U with U a fixed constrained Stokes field."""
    space = square2
    M = assemble_mass(space)
    K = assemble_stiffness(space)
    B = assemble_divergence(space)
    rng = np.random.default_rng(8)
    g_load = rng.standard_normal(space.n_velocity)
    stokes = saddle_factorization(K, B, space.dirichlet_dofs, "fo-stokes")
    U, _ = stokes.solve(g_load)

    T = 1.0
    errs, dts = [], []
    for N in (25, 50, 100):
        grid = TimeGrid(T, N)
        fact = saddle_factorization(M / grid.dt + K, B, space.dirichlet_dofs, "fo-heat")
        level = np.zeros(space.n_velocity)
        err = 0.0
        for n in range(N):
            t1 = grid.times()[n + 1]
            load = np.exp(-t1) * (M @ U) + (1 - np.exp(-t1)) * g_load
            level, _ = fact.solve(M @ level / grid.dt + load)
            d = level - (1 - np.exp(-t1)) * U
            err += grid.dt * (d @ (K @ d))
        errs.append(np.sqrt(err))
        dts.append(grid.dt)
    rate = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.85 < rate < 1.15


def test_mass_only_limit_is_projected_explicit_update(square1):
    """With no stiffness the step is y1 = y0 + dt * M^{-1} load projected
    onto the discretely divergence-free subspace (dense oracle)."""
    space = square1
    M = assemble_mass(space)
    B = assemble_divergence(space)
    dt = 0.25
    fact = saddle_factorization(M / dt, B, space.dirichlet_dofs, "mass-only")
    rng = np.random.default_rng(9)
    load = rng.standard_normal(space.n_velocity)
    y1, _ = fact.solve(M @ np.zeros(space.n_velocity) / dt + load)

    free = np.setdiff1d(np.arange(space.n_velocity), space.dirichlet_dofs)
    z = null_space(B.toarray()[1:, :][:, free])
    mz = z.T @ M.toarray()[np.ix_(free, free)] @ z
    c = np.linalg.solve(mz / dt, z.T @ load[free])
    oracle = np.zeros(space.n_velocity)
    oracle[free] = z @ c
    assert np.abs(y1 - oracle).max() < 1e-10


def test_homogeneous_levels_have_exact_zeros(disk_coarse):
    grid = TimeGrid(0.5, 5)
    ops = Operators(disk_coarse, grid, nu=1.0)
    rng = np.random.default_rng(10)
    loads = rng.standard_normal((grid.N, disk_coarse.n_velocity))
    traj = unsteady_stokes_initial_guess(
        ops, np.zeros(disk_coarse.n_velocity),
        np.zeros(len(disk_coarse.dirichlet_dofs)), loads)
    assert np.abs(traj.values[:, disk_coarse.dirichlet_dofs]).max() == 0.0


@pytest.mark.parametrize("label", ["heat", "stokes", "linearized", "stream"])
def test_eliminated_matrices_match_direct_assembly(label, square2, monkeypatch):
    """Every eliminated matrix the solver factorizes equals the one built
    from scratch with bmat and the reference elimination: exactly for the
    heat, Stokes and stream operators, to roundoff for the linearized one,
    whose convection entries sum in another order.  None stores an entry
    off the diagonal of a constrained dof, and the matrices of one
    pattern share its ``indices``/``indptr``."""
    import scipy.sparse as sp

    from conftest import assemble_linearized_convection, eliminate_dirichlet
    from nslsq import linalg
    from nslsq.cli import stream_function

    space = square2
    grid = TimeGrid(1.0, 10)
    ops = Operators(space, grid, nu=0.01)
    rng = np.random.default_rng(12)
    y = rng.standard_normal(space.n_velocity)
    constrained = np.append(space.dirichlet_dofs, space.n_velocity)
    a = {"heat": ops.M / grid.dt + ops.K, "stokes": ops.K,
         "linearized": (ops.M / grid.dt + ops.nu * ops.K
                        + assemble_linearized_convection(space, y))}
    if label == "stream":
        made = []
        factorize = linalg.EliminatedPattern.factorize
        monkeypatch.setattr(
            linalg.EliminatedPattern, "factorize",
            lambda self, m, lab: made.append(m) or factorize(self, m, lab))
        stream_function(space, y)
        (fast,) = made
        constrained = space.boundary_nodes
        ref, _ = eliminate_dirichlet(space.scalar_stiffness, constrained)
    else:
        if label == "linearized":
            fast = ops.linearized(y)
        else:
            saddle = getattr(ops, label)
            fast = saddle.fact.matrix
        s = sp.bmat([[a[label], ops.B.T], [ops.B, None]], format="csr")
        ref, coupling = eliminate_dirichlet(s, constrained)
    assert fast.has_canonical_format
    if label == "linearized":
        assert np.abs((fast - ref).tocoo().data).max(initial=0.0) < 1e-13
        other = ops.linearized(rng.standard_normal(space.n_velocity))
        assert np.shares_memory(other.indices, fast.indices)
        assert np.shares_memory(other.indptr, fast.indptr)
    else:
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(fast, attr), getattr(ref, attr))
    if label in ("heat", "stokes"):
        assert (saddle.coupling != coupling).nnz == 0
        heat, stokes = ops.heat.fact.matrix, ops.stokes.fact.matrix
        assert np.shares_memory(heat.indices, stokes.indices)
        assert np.shares_memory(heat.indptr, stokes.indptr)
    # no stored entry, zero or not, off the diagonal of a constrained dof
    coo = fast.tocoo()
    touches = np.isin(coo.row, constrained) | np.isin(coo.col, constrained)
    assert np.array_equal(coo.row[touches], coo.col[touches])
    assert np.all(coo.data[touches] == 1.0)
    assert np.count_nonzero(touches) == len(constrained)


def _linearized_lu(ops, y_level):
    """The LU a direction sweep makes of its linearized level at ``y_level``."""
    return ops.linearized_pattern.factorize(ops.linearized(y_level), "linearized")


def test_linearized_lu_fill_desk():
    """The solver's LU of one linearized level of the desk cavity at the
    steady Stokes lid field keeps COLAMD and at most 550k entries in
    L + U."""
    from nslsq.cli import lid_profile

    space = build_space(generate_semidisk(0.05))
    for dt in (0.02, 0.01):
        ops = Operators(space, TimeGrid(dt, 1), nu=1 / 500)
        lid = steady_stokes_initial(ops, lid_boundary_values(space, lid_profile))
        fact = _linearized_lu(ops, lid)
        assert fact.ordering == "colamd"
        assert fact.lu_nnz <= 550_000


def test_heat_and_stokes_lu_fill_desk():
    """The solver's heat and Stokes LUs of the desk cavity take the
    symmetric ordering and at most 500k entries in L + U (462k; COLAMD
    gives 609k)."""
    space = build_space(generate_semidisk(0.05))
    for dt in (0.02, 0.01):
        ops = Operators(space, TimeGrid(dt, 1), nu=1 / 500)
        for fact in (ops.heat.fact, ops.stokes.fact):
            assert fact.ordering == "mmd-sym"
            assert fact.lu_nnz <= 500_000


@pytest.mark.parametrize("mesh", ["square4", "disk_coarse"])
def test_later_linearized_lu_holds_first_ordering(mesh, request):
    """A later linearized LU is made on the ordering its pattern holds, and
    matches a fresh LU of that ordering of its own matrix in fill and in
    its solution.  On the semi-disk that is the first LU's COLAMD
    ordering; on the square, whose COLAMD LU overfills, the fill rule's
    second LU is a fresh symmetric one, and the third holds its ordering."""
    space = request.getfixturevalue(mesh)
    ops = Operators(space, TimeGrid(1.0, 10), nu=0.01)
    rng = np.random.default_rng(23)
    first = _linearized_lu(ops, rng.standard_normal(space.n_velocity))
    if mesh == "square4":
        first = _linearized_lu(ops, rng.standard_normal(space.n_velocity))
    later = _linearized_lu(ops, rng.standard_normal(space.n_velocity))
    assert later.order is first.order  # held, not computed again
    fresh = (Factorization.symmetric if mesh == "square4" else Factorization)(
        later.matrix, "linearized")
    assert later.ordering == fresh.ordering == {"square4": "mmd-sym",
                                                "disk_coarse": "colamd"}[mesh]
    assert later.lu_nnz == fresh.lu_nnz
    b = rng.standard_normal(later.n)
    ref = fresh.solve(b)
    assert np.abs(later.solve(b) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_overfilled_colamd_pattern_tries_symmetric_once(square4):
    """The fill rule on the unit square: the first linearized LU is COLAMD
    and fills more than ``FILL_RATIO`` times the heat LU, so the second
    is a fresh symmetric LU with fewer entries, which the pattern holds
    from then on; the third and fourth take its ``Ordering``."""
    ops = Operators(square4, TimeGrid(1.0, 10), nu=0.01)
    assert ops.linearized_lu is None
    rng = np.random.default_rng(25)
    first, trial, *later = (_linearized_lu(ops, rng.standard_normal(square4.n_velocity))
                            for _ in range(4))
    assert first.ordering == "colamd" and first.held is None
    assert first.lu_nnz > FILL_RATIO * ops.heat.fact.lu_nnz
    assert trial.ordering == "mmd-sym" and trial.held is None  # fresh
    assert trial.lu_nnz < first.lu_nnz
    assert all(lu.order is trial.order for lu in later)
    pattern = ops.linearized_pattern
    assert pattern.order is trial.order and pattern.reference_nnz is None  # spent
    assert ops.linearized_lu == {"ordering": "mmd-sym", "lu_nnz": trial.lu_nnz}


def test_semidisk_linearized_lu_holds_colamd_without_trial(disk_coarse, monkeypatch):
    """On the semi-disk COLAMD fills the linearized operator about as much
    as the heat LU, so the fill rule never runs its trial and every later
    linearized LU holds the first LU's COLAMD ordering."""
    ops = Operators(disk_coarse, TimeGrid(1.0, 10), nu=0.01)

    def no_trial(matrix, label="unlabeled"):
        raise AssertionError("the fill rule ran its trial")

    monkeypatch.setattr(Factorization, "symmetric", no_trial)
    rng = np.random.default_rng(26)
    first, *later = (_linearized_lu(ops, rng.standard_normal(disk_coarse.n_velocity))
                     for _ in range(3))
    assert first.ordering == "colamd"
    assert first.lu_nnz <= FILL_RATIO * ops.heat.fact.lu_nnz
    assert all(lu.order is first.order for lu in later)
    assert ops.linearized_pattern.reference_nnz == ops.heat.fact.lu_nnz  # not spent
    assert ops.linearized_lu == {"ordering": "colamd", "lu_nnz": first.lu_nnz}


def test_convection_dominated_symmetric_sweep_meets_contract(monkeypatch):
    """A direction sweep on the unit square at ``nu = 1e-3`` (cell Peclet
    number in the hundreds), linearized at the manufactured field: the
    LUs after the first are symmetric-ordered, every LU solve meets the
    residual contract without refinement, and GMRES accepts every lagged
    level."""
    from nslsq import linalg, timestepping

    space = build_space(generate_unit_square(8))
    grid = TimeGrid(0.1, 10)
    ops = Operators(space, grid, nu=1e-3)
    y = timestepping.FieldTrajectory(grid, np.array(
        [interpolate_velocity(space, mf.exact_velocity, t) for t in grid.times()]))
    loads = np.random.default_rng(27).standard_normal((grid.N, space.n_velocity))
    orderings, first_pass = [], []
    factorize, solve = linalg.EliminatedPattern.factorize, Factorization.solve

    def recorded(self, matrix, label):
        fact = factorize(self, matrix, label)
        orderings.append(fact.ordering)
        return fact

    def checked(self, b):
        r = b - self.matrix @ self._lu.solve(b)
        first_pass.append(np.abs(r).max() <= linalg.RESIDUAL_TOL * (1 + np.abs(b).max()))
        return solve(self, b)

    monkeypatch.setattr(linalg.EliminatedPattern, "factorize", recorded)
    monkeypatch.setattr(Factorization, "solve", checked)
    direction = timestepping.sweep(ops, loads, y)
    assert np.isfinite(direction.values).all()
    assert orderings == ["colamd"] + ["mmd-sym"] * 3  # levels 1, 4, 7, 10
    assert first_pass and all(first_pass)
    assert ops.factorizations["linearized"] == 4
    assert ops.factorizations["lagged"] == grid.N - 4


def test_with_nu_holds_linearized_ordering(disk_coarse):
    """Operators of another viscosity share the linearized pattern: their
    first linearized LU takes the ordering of the first one at the old
    viscosity, with the fill of a fresh LU, and the heat and Stokes LUs
    are not made again."""
    ops = Operators(disk_coarse, TimeGrid(1.0, 10), nu=0.01)
    rng = np.random.default_rng(24)
    first = _linearized_lu(ops, rng.standard_normal(disk_coarse.n_velocity))
    later = _linearized_lu(ops.with_nu(0.002),
                           rng.standard_normal(disk_coarse.n_velocity))
    assert later.order is first.order
    assert later.lu_nnz == Factorization(later.matrix, "linearized").lu_nnz
    assert ops.factorizations["heat"] == ops.factorizations["stokes"] == 1


@pytest.mark.parametrize("mesh", ["square4", "disk_coarse", "jittered-semidisk"])
def test_heat_and_stokes_lus_are_fresh_on_equal_orderings(mesh, request):
    """The heat and Stokes LUs are each a fresh ``mmd-sym`` LU of its own
    matrix, on equal orderings, and the Stokes LU, made on a worker
    thread, solves a block bit for bit as a fresh ``Factorization`` of its
    matrix made on the calling thread."""
    from conftest import jittered_semidisk

    space = (build_space(jittered_semidisk(0.2, 3)) if mesh == "jittered-semidisk"
             else request.getfixturevalue(mesh))
    ops = Operators(space, TimeGrid(0.1, 1), nu=0.01)
    heat, stokes = ops.heat.fact, ops.stokes.fact
    assert heat.ordering == stokes.ordering == "mmd-sym"
    assert heat.held is stokes.held is None and stokes.order is not heat.order
    assert np.array_equal(stokes.order.columns, heat.order.columns)
    fresh = Factorization(stokes.matrix, "stokes")
    assert stokes.lu_nnz == fresh.lu_nnz
    b = np.random.default_rng(25).standard_normal((stokes.n, 4))
    assert np.array_equal(stokes.solve(b), fresh.solve(b))


def test_operators_makes_every_factorization_on_the_calling_thread(square4, monkeypatch):
    """Every ``Factorization.__init__`` of ``Operators(...)`` runs on the
    calling thread, and none starts before the one before it returns: a
    wrapper with one span stack, like the benchmark's tracer, records
    them.  The symmetry tests run there too: the worker runs SuperLU
    alone."""
    import threading

    from nslsq import linalg

    init, stack, spans = linalg.Factorization.__init__, [], []
    symmetric, tested = linalg.exactly_symmetric, []

    def recorded_test(matrix):
        tested.append(threading.get_ident())
        return symmetric(matrix)

    def recorded(self, matrix, label="unlabeled"):
        spans.append((label, threading.get_ident(), len(stack)))
        stack.append(label)
        try:
            init(self, matrix, label)
        finally:
            stack.pop()

    monkeypatch.setattr(linalg.Factorization, "__init__", recorded)
    monkeypatch.setattr(linalg, "exactly_symmetric", recorded_test)
    Operators(square4, TimeGrid(0.1, 1), nu=0.01)
    caller = threading.get_ident()
    assert spans == [("heat", caller, 0), ("stokes", caller, 0)]
    assert tested == [caller, caller]


def test_failed_stokes_lu_raises_from_operators(square4, monkeypatch):
    """A Stokes LU that SuperLU cannot make raises a ``SolverError`` naming
    it from ``Operators(...)``, and no thread outlives the call."""
    import threading
    import time

    from nslsq import linalg

    stokes = Operators(square4, TimeGrid(0.1, 1), nu=0.01).stokes.fact.matrix.data
    splu = linalg.spla.splu

    def failing(matrix, *args, **kwargs):
        if np.array_equal(matrix.data, stokes):
            time.sleep(0.05)  # a thread not joined would still run
            raise RuntimeError("Factor is exactly singular")
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", failing)
    threads = threading.active_count()
    with pytest.raises(SolverError, match="stokes"):
        Operators(square4, TimeGrid(0.1, 1), nu=0.01)
    assert threading.active_count() == threads


def test_operators_drop_one_time_tables(square4):
    """Once the heat and Stokes matrices and couplings exist, their pattern
    keeps only the saddle layout its solves read, and the space caches no
    scalar matrix: ``scalar_mass`` and ``scalar_stiffness`` are assembled
    anew on each access, bit for bit the blocks of ``M`` and ``K``."""
    ops = Operators(square4, TimeGrid(0.1, 1), nu=0.01)
    pattern = ops.heat.pattern
    assert pattern is ops.stokes.pattern
    for name in ("_slots", "_diagonal", "_coupled", "_coupled_at", "_b_values"):
        assert not hasattr(pattern, name), name
    ns = square4.n_scalar
    for name, block in (("scalar_mass", ops.M), ("scalar_stiffness", ops.K)):
        assert name not in vars(square4)
        for rows in (slice(0, ns), slice(ns, 2 * ns)):
            ref = block[rows, rows].tocsr()
            got = getattr(square4, name)
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, attr), getattr(ref, attr)), name
        assert name not in vars(square4)
    vel, _ = ops.heat.solve(np.ones(square4.n_velocity))
    assert np.isfinite(vel).all()


def test_lift_blocks_match_single_solves(square4, monkeypatch):
    """A lift of N = 70 levels is several block solves on the Stokes LU, of
    at most ``LIFT_BLOCK`` levels each, and each row matches one
    ``ops.stokes.solve`` of its load."""
    ops = Operators(square4, TimeGrid(1.0, 70), nu=0.01)
    loads = np.random.default_rng(40).standard_normal((70, square4.n_velocity))
    blocks = []
    solve = ops.stokes.fact.solve
    monkeypatch.setattr(ops.stokes.fact, "solve",
                        lambda b: blocks.append(b.shape[1]) or solve(b))
    lifted = lift(ops, loads)
    assert len(blocks) > 1
    assert blocks == [min(LIFT_BLOCK, 70 - n) for n in range(0, 70, LIFT_BLOCK)]
    monkeypatch.undo()
    for n in range(70):
        ref, _ = ops.stokes.solve(loads[n])
        assert np.abs(lifted[n] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("gmres", ["cadence", "rejected"])
def test_direction_sweep_holds_one_linearized_lu(gmres, square4, monkeypatch):
    """When a direction sweep factorizes a level, no earlier linearized LU
    of the sweep is alive: on the cadence (levels 1, 4, 7 of N = 8, the
    others solved by GMRES on the held LU) and when GMRES is rejected, so
    that level and every later one take an LU of their own."""
    import weakref

    from nslsq import linalg, timestepping

    grid = TimeGrid(1.0, 8)
    ops = Operators(square4, grid, nu=0.01)
    rng = np.random.default_rng(41)
    # one field on every level: the held LU solves the lagged levels exactly
    y = timestepping.FieldTrajectory(
        grid, np.tile(rng.standard_normal(square4.n_velocity), (grid.N + 1, 1)))
    loads = rng.standard_normal((grid.N, square4.n_velocity))
    made, alive_at_factorize = [], []
    factorize = linalg.EliminatedPattern.factorize

    def tracked(self, matrix, label):
        if label == "linearized":
            alive_at_factorize.append(sum(ref() is not None for ref in made))
        fact = factorize(self, matrix, label)
        if label == "linearized":
            made.append(weakref.ref(fact))
        return fact

    monkeypatch.setattr(linalg.EliminatedPattern, "factorize", tracked)
    if gmres == "rejected":
        monkeypatch.setattr(timestepping, "krylov_solve", lambda matrix, fact, b: (None, 0))
    timestepping.sweep(ops, loads, y)
    expected = 3 if gmres == "cadence" else grid.N
    assert ops.factorizations["linearized"] == len(made) == expected
    assert ops.factorizations["lagged"] == grid.N - expected
    assert alive_at_factorize == [0] * expected


def test_rejecting_sweep_runs_gmres_at_most_once(square4, monkeypatch):
    """A trajectory that is rough in time (independent noise on every
    level) makes the held LU fail GMRES on level 2.  That level and every
    later one are then factorized without GMRES: the sweep runs GMRES
    once, counts one rejection and makes an LU on every level."""
    from nslsq import timestepping

    grid = TimeGrid(1.0, 8)
    ops = Operators(square4, grid, nu=0.01)
    rng = np.random.default_rng(0)
    y = timestepping.FieldTrajectory(
        grid, rng.standard_normal((grid.N + 1, square4.n_velocity)))
    loads = rng.standard_normal((grid.N, square4.n_velocity))
    accepted = []
    krylov_solve = timestepping.krylov_solve

    def counted(*args):
        x, iterations = krylov_solve(*args)
        accepted.append(x is not None)
        return x, iterations

    monkeypatch.setattr(timestepping, "krylov_solve", counted)
    timestepping.sweep(ops, loads, y)
    assert accepted == [False]
    counts = ops.factorizations
    assert (counts["linearized"], counts["lagged"], counts["krylov_rejections"]) == (8, 0, 1)


def test_linearized_pattern_matches_direct_construction(square2, disk_coarse):
    """The linearized pattern, built from the distinct element pairs, has
    the arrays of the direct construction, which deduplicates every
    entry of all four blocks with one ``np.unique``."""
    from conftest import jittered_semidisk, linearized_pattern_reference

    for space in (square2, disk_coarse, build_space(jittered_semidisk(0.1, 3))):
        ops = Operators(space, TimeGrid(1.0, 2), nu=0.01)
        pattern = ops.linearized_pattern
        for name, ref in linearized_pattern_reference(space, ops.M, ops.B).items():
            got = getattr(pattern, name)
            if name == "_coupled_at":
                assert all(np.array_equal(g, r) for g, r in zip(got, ref))
            else:
                assert np.array_equal(got, ref), name
