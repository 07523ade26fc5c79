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
from nslsq.linalg import SaddleSystem, factorize
from nslsq.mesh import Tag, generate_unit_square
from nslsq.timestepping import (
    Operators,
    TimeGrid,
    divergence_sup,
    steady_stokes_initial,
    unsteady_stokes_initial_guess,
)

LID_G = lambda x: (1 - np.exp(100 * (x - 0.5))) * (1 - np.exp(-100 * (x + 0.5)))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 5)
    assert TimeGrid(2.0, 100).dt == pytest.approx(0.02)


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
    scaled = factorize(SaddleSystem(7.5 * ops.K, ops.B, disk_coarse.dirichlet_dofs),
                       label="stokes-scaled")
    u_scaled, _ = scaled.solve(np.zeros(disk_coarse.n_velocity), values)
    assert np.abs(u_unit - u_scaled).max() < 1e-9


def test_manufactured_steady_stokes_second_order():
    errs, hs = [], []
    for n in (4, 8, 16):
        space = build_space(generate_unit_square(n))
        ops = Operators(space, TimeGrid(1.0, 1), nu=1.0)
        load = load_vector(space, lambda x, t: -mf.exact_laplacian(x, 0.0), 0.0)
        values = np.zeros(len(space.dirichlet_dofs))
        u = steady_stokes_initial(ops, values, load)
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


def test_per_level_boundary_data(disk_coarse):
    """Drivers accept one Dirichlet row per step; constant rows reproduce
    the time-constant path bitwise."""
    grid = TimeGrid(0.5, 4)
    ops = Operators(disk_coarse, grid, nu=1.0)
    values = lid_boundary_values(disk_coarse, LID_G)
    u0 = steady_stokes_initial(ops, values)
    constant = unsteady_stokes_initial_guess(ops, u0, values)
    tiled = unsteady_stokes_initial_guess(ops, u0, np.tile(values, (grid.N, 1)))
    assert np.array_equal(constant.values, tiled.values)
    ramp = np.vstack([(n + 1) / grid.N * values for n in range(grid.N)])
    ramped = unsteady_stokes_initial_guess(ops, u0, ramp)
    for n in range(1, grid.N + 1):
        got = ramped.values[n][disk_coarse.dirichlet_dofs]
        assert np.array_equal(got, (n / grid.N) * values)


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
    stokes = factorize(SaddleSystem(K, B, space.dirichlet_dofs), label="fo-stokes")
    U, _ = stokes.solve(g_load)

    T = 1.0
    errs, dts = [], []
    for N in (25, 50, 100):
        grid = TimeGrid(T, N)
        fact = factorize(SaddleSystem(M / grid.dt + K, B, space.dirichlet_dofs),
                         label="fo-heat")
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
    fact = factorize(SaddleSystem(M / dt, B, space.dirichlet_dofs), label="mass-only")
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


def test_linearized_template_matches_direct_assembly(square2):
    """Per-level operator from the sparsity template equals the one built
    from scratch with bmat + elimination."""
    import scipy.sparse as sp

    from nslsq.fem import assemble_linearized_convection
    from nslsq.linalg import eliminate_dirichlet

    space = square2
    grid = TimeGrid(1.0, 10)
    ops = Operators(space, grid, nu=0.01)
    rng = np.random.default_rng(12)
    y = rng.standard_normal(space.n_velocity)
    fast = ops.linearized(y).fact.matrix

    a_full = ops.M / grid.dt + ops.nu * ops.K + assemble_linearized_convection(space, y)
    s = sp.bmat([[a_full, ops.B.T], [ops.B, None]], format="csr")
    constrained = np.concatenate([space.dirichlet_dofs, [space.n_velocity]])
    ref, _ = eliminate_dirichlet(s, constrained)
    assert np.abs((fast - ref).tocoo().data).max(initial=0.0) < 1e-13
