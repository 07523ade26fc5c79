import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslsq import linalg, manufactured as mf, newton
from nslsq.fem import build_space, interpolate_velocity
from nslsq.mesh import generate_semidisk, generate_unit_square
from nslsq.newton import (
    a0_inner,
    cheap_step_rule,
    compute_corrector,
    compute_direction,
    compute_nonlinear_corrector,
    continuation_in_nu,
    damped_newton_solve,
    energy,
    evaluate_energy,
    line_search_quartic,
    newton_loop,
    residual_variant_solve,
    riesz_lift,
)
from nslsq.timestepping import FieldTrajectory, Operators, TimeGrid

NU = 0.1
VARIANTS = ("E", "Etilde")


@pytest.fixture(scope="module")
def setup():
    """Manufactured unit-square problem small enough for fast iteration."""
    space = build_space(generate_unit_square(3))
    grid = TimeGrid(0.5, 8)
    ops = Operators(space, grid, NU)
    times = grid.times()
    from nslsq.fem import load_vector

    f = mf.forcing(NU)
    loads = np.stack([load_vector(space, f, times[n + 1]) for n in range(grid.N)])
    u0 = interpolate_velocity(space, lambda x: mf.exact_velocity(x, 0.0))
    from nslsq.timestepping import unsteady_stokes_initial_guess

    y0 = unsteady_stokes_initial_guess(ops, u0, np.zeros(len(space.dirichlet_dofs)),
                                       loads)
    return space, grid, ops, loads, y0


# ---------------------------------------------------------------- line search


def test_quartic_pure_newton_case():
    lam, e_min = line_search_quartic(1.0, 0.0, 0.0, 2.0)
    assert lam == pytest.approx(1.0)
    assert e_min == pytest.approx(0.0, abs=1e-30)


def test_quartic_against_grid_scan():
    a, b, c, m = 1.0, 0.0, 100.0, 2.0
    lam, _ = line_search_quartic(a, b, c, m)
    assert abs(-(1 - lam) + 200 * lam**3) < 1e-10  # stationarity
    grid = np.linspace(m / 1e6, m, 10**6)
    q = 0.5 * ((1 - grid) ** 2 * a + 2 * grid**2 * (1 - grid) * b + grid**4 * c)
    lam_grid = grid[np.argmin(q)]
    assert abs(lam - lam_grid) <= 2e-6


def test_quartic_rejects_zero_residual():
    with pytest.raises(ValueError, match="zero residual"):
        line_search_quartic(0.0, 0.0, 1.0, 2.0)


def test_quartic_rejects_small_interval():
    with pytest.raises(ValueError, match="interval"):
        line_search_quartic(1.0, 0.0, 1.0, 0.5)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(1e-8, 1e6), c=st.floats(0.0, 1e6),
       frac=st.floats(-1.0, 1.0), m=st.floats(1.0, 4.0))
def test_quartic_monotone_guarantee(a, c, frac, m):
    """Minimum never exceeds the plain-Newton candidate q(1)=c/2 nor the
    no-step limit q(0)=a/2, and the step stays in (0, m]."""
    b = frac * np.sqrt(a * c)
    lam, e_min = line_search_quartic(a, b, c, m)
    assert 0.0 < lam <= m
    assert e_min <= 0.5 * c + 1e-12 * (1 + c)
    assert e_min <= 0.5 * a + 1e-12 * (1 + a)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(1e-6, 1e3), c=st.floats(1e-6, 1e3), frac=st.floats(-0.99, 0.99))
def test_quartic_matches_coarse_scan(a, c, frac):
    b = frac * np.sqrt(a * c)
    m = 2.0
    lam, e_min = line_search_quartic(a, b, c, m)
    grid = np.linspace(m / 4000, m, 4000)
    q = 0.5 * ((1 - grid) ** 2 * a + 2 * grid**2 * (1 - grid) * b + grid**4 * c)
    assert e_min <= q.min() + 1e-12 * (1 + q.min())


def test_cheap_rule_cases():
    assert cheap_step_rule(2.0, 1.0, 2.0) == pytest.approx(1.0)
    assert cheap_step_rule(1.0, np.sqrt(0.5), 2.0) == pytest.approx(1.0)
    big = cheap_step_rule(1e-6, 1e6, 2.0)
    assert 0.0 < big < 1e-8
    assert cheap_step_rule(1.0, 0.0, 2.0) == 1.0


# ------------------------------------------------------------------ correctors


def test_corrector_linearity_in_defect(setup):
    """Doubling the trajectory-independent part of the defect doubles the
    corrector (superposition on the linear scheme)."""
    space, grid, ops, loads, y0 = setup
    zero_traj = FieldTrajectory.zeros(grid, space.n_velocity)
    v1 = compute_corrector(ops, zero_traj, loads)
    v2 = compute_corrector(ops, zero_traj, 2.0 * loads)
    assert np.abs(2.0 * v1.values - v2.values).max() < 1e-10 * max(
        1.0, np.abs(v2.values).max())


def test_corrector_carries_convection_residual():
    """For the unit-viscosity zero-force Stokes initialization, the
    heat-type residual of the corrector cancels the convection term up to
    a multiplier gradient, so its divergence-free projection vanishes:
    lift of [(M/dt+K)v^{n+1} - M v^n/dt + C(y^{n+1})y^{n+1}] is zero."""
    from nslsq.fem import convection_vector, lid_boundary_values
    from nslsq.timestepping import unsteady_stokes_initial_guess

    space = build_space(generate_semidisk(0.2))
    grid = TimeGrid(0.5, 5)
    ops = Operators(space, grid, nu=1.0)
    g = lambda x: (1 - np.exp(100 * (x - 0.5))) * (1 - np.exp(-100 * (x + 0.5)))
    values = lid_boundary_values(space, g)
    from nslsq.timestepping import steady_stokes_initial

    y = unsteady_stokes_initial_guess(ops, steady_stokes_initial(ops, values), values)
    v = compute_corrector(ops, y)
    scale = max(1.0, np.abs(v.values).max())
    for n in range(grid.N):
        r = (ops.M @ (v.values[n + 1] - v.values[n]) / grid.dt
             + ops.K @ v.values[n + 1]
             + convection_vector(space, y.values[n + 1], y.values[n + 1]))
        h, _ = ops.stokes.solve(-r)
        assert np.sqrt(h @ (ops.K @ h)) < 1e-8 * scale


def test_corrector_vanishes_at_solution(setup):
    space, grid, ops, loads, y0 = setup
    res = newton_loop(ops, y0, loads)
    assert res.converged
    e_val, v, _ = evaluate_energy(ops, res.trajectory, loads)
    assert np.sqrt(2 * e_val) <= 1e-8
    assert np.abs(v.values).max() < 1e-6


def test_lift_zero_for_constant_trajectory(setup):
    space, grid, ops, _, _ = setup
    rng = np.random.default_rng(0)
    level = rng.standard_normal(space.n_velocity)
    traj = FieldTrajectory(grid, np.tile(level, (grid.N + 1, 1)))
    w = riesz_lift(ops, traj)
    assert np.abs(w).max() < 1e-10 * max(1.0, np.abs(level).max())


def test_lift_scales_linearly(setup):
    space, grid, ops, _, y0 = setup
    w1 = riesz_lift(ops, y0)
    w3 = riesz_lift(ops, FieldTrajectory(grid, 3.0 * y0.values))
    assert np.abs(3.0 * w1 - w3).max() < 1e-12 * max(1.0, np.abs(w3).max())


def test_lift_dual_norm_matches_dense_reduction(square1):
    """Dual norm on the smallest well-posed mesh against a dense solve on
    an explicit basis of the discretely divergence-free subspace."""
    from scipy.linalg import null_space

    space = square1
    grid = TimeGrid(1.0, 2)
    ops = Operators(space, grid, nu=1.0)
    rng = np.random.default_rng(5)
    vals = np.zeros((3, space.n_velocity))
    for n in (1, 2):
        vals[n] = rng.standard_normal(space.n_velocity)
        vals[n][space.dirichlet_dofs] = 0.0
    traj = FieldTrajectory(grid, vals)
    w = riesz_lift(ops, traj)
    produced = grid.dt * sum(w[n] @ (ops.K @ w[n]) for n in range(2))

    free = np.setdiff1d(np.arange(space.n_velocity), space.dirichlet_dofs)
    z = null_space(ops.B.toarray()[1:, :][:, free])
    kz = z.T @ ops.K.toarray()[np.ix_(free, free)] @ z
    expected = 0.0
    for n in range(2):
        load = -(ops.M @ (vals[n + 1] - vals[n])) / grid.dt
        cc = np.linalg.solve(kz, z.T @ load[free])
        expected += grid.dt * cc @ kz @ cc
    assert abs(produced - expected) < 1e-10 * max(1.0, expected)


def test_energy_properties(setup):
    space, grid, ops, loads, y0 = setup
    v = compute_corrector(ops, y0, loads)
    w = riesz_lift(ops, v)
    e1 = energy(ops, v, w)
    assert e1 >= 0
    assert a0_inner(ops, v, w, v, w) == pytest.approx(2 * e1, rel=1e-12)
    v2 = FieldTrajectory(grid, 2.0 * v.values)
    assert energy(ops, v2, 2.0 * w) == pytest.approx(4 * e1, rel=1e-12)
    zero = FieldTrajectory.zeros(grid, space.n_velocity)
    assert energy(ops, zero, np.zeros_like(w)) == 0.0


def test_a0_inner_symmetry_and_cauchy_schwarz(setup):
    space, grid, ops, loads, y0 = setup
    v = compute_corrector(ops, y0, loads)
    w = riesz_lift(ops, v)
    rng = np.random.default_rng(1)
    u2 = FieldTrajectory(grid, rng.standard_normal(v.values.shape))
    w2 = riesz_lift(ops, u2)
    ab = a0_inner(ops, v, w, u2, w2)
    ba = a0_inner(ops, u2, w2, v, w)
    assert ab == pytest.approx(ba, rel=1e-12)
    aa = a0_inner(ops, v, w, v, w)
    bb = a0_inner(ops, u2, w2, u2, w2)
    assert ab * ab <= aa * bb * (1 + 1e-12)


# ------------------------------------------------------------------- direction


def test_direction_zero_for_zero_corrector(setup):
    space, grid, ops, _, y0 = setup
    vzero = FieldTrajectory.zeros(grid, space.n_velocity)
    d = compute_direction(ops, y0, vzero)
    assert np.abs(d.values).max() == 0.0


def test_direction_descent_identity(setup):
    """Central finite differences of E along the direction equal 2E."""
    space, grid, ops, loads, y0 = setup
    e_val, v, w = evaluate_energy(ops, y0, loads)
    d = compute_direction(ops, y0, v)
    y_norm = np.sqrt(newton.l2v_norm_sq(ops, y0.values[1:]))
    d_norm = np.sqrt(newton.l2v_norm_sq(ops, d.values[1:]))
    eps = 1e-4 * y_norm / d_norm
    ep, _, _ = evaluate_energy(ops, y0.axpy(eps, d), loads)
    em, _, _ = evaluate_energy(ops, y0.axpy(-eps, d), loads)
    slope = (ep - em) / (2 * eps)
    assert slope == pytest.approx(2 * e_val, rel=0.02)


def test_direction_corrector_coincides_with_corrector(setup):
    """Re-deriving the corrector of the linearized pair returns v itself."""
    space, grid, ops, loads, y0 = setup
    v = compute_corrector(ops, y0, loads)
    d = compute_direction(ops, y0, v)
    # heat-type sweep with load -(M d' + nu K d + L(y)d) must reproduce v
    from nslsq import fem

    v1 = FieldTrajectory.zeros(grid, space.n_velocity)
    level = np.zeros(space.n_velocity)
    dv = d.values
    for n in range(grid.N):
        lin = (ops.M @ (dv[n + 1] - dv[n]) / grid.dt + ops.nu * (ops.K @ dv[n + 1])
               + fem.convection_vector(space, y0.values[n + 1], dv[n + 1])
               + fem.convection_vector(space, dv[n + 1], y0.values[n + 1]))
        level, _ = ops.heat.solve(ops.M @ level / grid.dt - lin)
        v1.values[n + 1] = level
    w = riesz_lift(ops, v)
    diff = FieldTrajectory(grid, v1.values - v.values)
    wd = riesz_lift(ops, diff)
    num = np.sqrt(a0_inner(ops, diff, wd, diff, wd))
    den = np.sqrt(a0_inner(ops, v, w, v, w))
    assert num <= 1e-6 * den


def test_nonlinear_corrector_scaling_and_zero(setup):
    space, grid, ops, loads, y0 = setup
    zero = FieldTrajectory.zeros(grid, space.n_velocity)
    vbb, wbb = compute_nonlinear_corrector(ops, zero)
    assert np.abs(vbb.values).max() == 0.0 and np.abs(wbb).max() == 0.0
    v = compute_corrector(ops, y0, loads)
    d = compute_direction(ops, y0, v)
    vbb1, _ = compute_nonlinear_corrector(ops, d)
    alpha = 0.37
    vbb2, _ = compute_nonlinear_corrector(
        ops, FieldTrajectory(grid, alpha * d.values))
    assert np.abs(alpha**2 * vbb1.values - vbb2.values).max() <= 1e-10 * max(
        1.0, np.abs(vbb2.values).max())


def test_lambda_consistency_identity(setup):
    """Corrector of y - lam*direction equals (1-lam) v + lam^2 vbb (from
    scratch, in the A0 norm)."""
    space, grid, ops, loads, y0 = setup
    v = compute_corrector(ops, y0, loads)
    w = riesz_lift(ops, v)
    d = compute_direction(ops, y0, v)
    vbb, wbb = compute_nonlinear_corrector(ops, d)
    vnorm = np.sqrt(a0_inner(ops, v, w, v, w))
    for lam in (0.3, 0.7, 1.0):
        z = y0.axpy(-lam, d)
        vz = compute_corrector(ops, z, loads)
        pred = FieldTrajectory(grid, (1 - lam) * v.values + lam**2 * vbb.values)
        diff = FieldTrajectory(grid, vz.values - pred.values)
        wdiff = riesz_lift(ops, diff)
        err = np.sqrt(a0_inner(ops, diff, wdiff, diff, wdiff))
        assert err <= 1e-6 * vnorm


# ------------------------------------------------------------------ outer loop


def test_newton_converges_and_monotone(setup):
    space, grid, ops, loads, y0 = setup
    res = newton_loop(ops, y0, loads)
    assert res.converged
    vals = [r.sqrt2E for r in res.records]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
    assert res.final_sqrt2E <= 1e-8
    # homogeneous direction updates keep the boundary values bitwise
    assert np.array_equal(res.trajectory.values[0], y0.values[0])
    assert np.abs(res.trajectory.values[:, space.dirichlet_dofs]
                  - y0.values[:, space.dirichlet_dofs]).max() == 0.0


def _functional_from_scratch(ops, y, loads, variant):
    """E from the corrector and its lift, or Etilde from the lifted defect."""
    if variant == "E":
        return evaluate_energy(ops, y, loads)[0]
    return 0.5 * newton.l2v_norm_sq(ops, newton.residual_lift(ops, y, loads))


def test_line_search_truth_at_accepted_steps(setup):
    """From-scratch functional at every accepted step equals the quartic
    prediction (the whole algebraic chain at once), for both measures."""
    space, grid, ops, loads, y0 = setup
    for variant in VARIANTS:
        checks = []

        def grab(k, y, bundle, lam):
            q = 0.5 * ((1 - lam) ** 2 * bundle.v_norm_sq
                       + 2 * lam**2 * (1 - lam) * bundle.cross_inner
                       + lam**4 * bundle.rem_norm_sq)
            e_scratch = _functional_from_scratch(
                ops, y.axpy(-lam, bundle.direction), loads, variant)
            checks.append((e_scratch, q))

        res = newton_loop(ops, y0, loads, variant=variant, on_iterate=grab)
        assert res.converged and len(checks) >= 3, variant
        for e_scratch, q in checks:
            assert e_scratch == pytest.approx(q, rel=1e-6, abs=1e-24), variant


def test_zero_problem_stays_zero(square2):
    grid = TimeGrid(1.0, 4)
    res = damped_newton_solve(square2, grid, nu=1.0)
    assert res.converged and res.iterations == 0
    assert np.abs(res.trajectory.values).max() == 0.0
    assert res.records[0].sqrt2E == 0.0


def test_zero_residual_start_exits_immediately(setup):
    space, grid, ops, loads, y0 = setup
    first = newton_loop(ops, y0, loads)
    again = newton_loop(ops, first.trajectory, loads)
    assert again.converged
    assert again.iterations == 0
    assert np.array_equal(again.trajectory.values, first.trajectory.values)


def test_policies_cheap_and_fixed1_converge_easy(setup):
    space, grid, ops, loads, y0 = setup
    for variant in VARIANTS:
        for policy in ("cheap", "fixed1"):
            res = newton_loop(ops, y0, loads, variant=variant, policy=policy,
                              max_iter=40)
            assert res.converged, (variant, policy)
            if policy == "cheap":
                assert all(r.lam <= 1.0 for r in res.records if r.lam is not None)


def test_unknown_policy_rejected(setup):
    space, grid, ops, loads, y0 = setup
    for variant in VARIANTS:
        with pytest.raises(ValueError, match="policy"):
            newton_loop(ops, y0, loads, variant=variant, policy="bogus")


def test_divergence_detection_reports_not_crashes(setup):
    """A tiny divergence factor forces the diverged outcome path."""
    space, grid, ops, loads, y0 = setup
    for variant in VARIANTS:
        res = newton_loop(ops, y0, loads, variant=variant,
                          divergence_factor=1.0 + 1e-9, max_iter=50)
        assert res.outcome in ("diverged", "converged"), variant
        # with a factor this tight the first growth of sqrt2E must report
        if res.outcome == "diverged":
            assert res.records[-1].lam is None


def test_iteration_cap(setup):
    space, grid, ops, loads, y0 = setup
    for variant in VARIANTS:
        res = newton_loop(ops, y0, loads, variant=variant, max_iter=1)
        assert res.outcome == "max_iterations", variant
        assert res.records[-1].k == 1


def test_factorization_reuse_across_run(setup):
    space, grid, ops, loads, y0 = setup
    linalg.reset_factorization_counts()
    newton_loop(ops, y0, loads)
    counts = dict(linalg.factorization_counts)
    assert counts.get("heat", 0) == 0  # prebuilt in fixture, reused here
    assert counts.get("stokes", 0) == 0
    assert counts.get("linearized", 0) > 0


def test_factorization_counts_fresh_run():
    space = build_space(generate_unit_square(2))
    grid = TimeGrid(0.5, 4)
    linalg.reset_factorization_counts()
    res = damped_newton_solve(space, grid, nu=NU, f=mf.forcing(NU),
                              u0=lambda x: mf.exact_velocity(x, 0.0))
    assert res.converged
    counts = dict(linalg.factorization_counts)
    assert counts["heat"] == 1
    assert counts["stokes"] == 1
    assert counts["linearized"] == grid.N * res.iterations


def test_divergence_constraint_on_all_levels(setup):
    space, grid, ops, loads, y0 = setup
    res = newton_loop(ops, y0, loads)

    def div_sup(values):
        return np.abs(ops.B @ values.T).max()

    # computed levels only: level 0 is the prescribed (interpolated) data
    assert div_sup(res.trajectory.values[1:]) < 1e-8
    v = compute_corrector(ops, res.trajectory, loads)
    assert div_sup(v.values[1:]) < 1e-8


# ---------------------------------------------------------------- continuation


def test_continuation_validates_schedule(square2):
    grid = TimeGrid(0.5, 2)
    with pytest.raises(ValueError, match="decreasing"):
        continuation_in_nu(square2, grid, [0.1, 0.1])
    with pytest.raises(ValueError, match="empty"):
        continuation_in_nu(square2, grid, [])
    with pytest.raises(ValueError, match="residual measure"):
        continuation_in_nu(square2, grid, [0.1], variant="bogus")


def test_continuation_single_entry_matches_plain(setup):
    space, grid, ops, loads, y0 = setup
    plain = damped_newton_solve(space, grid, NU, f=mf.forcing(NU),
                                u0=lambda x: mf.exact_velocity(x, 0.0))
    cont = continuation_in_nu(space, grid, [NU], f=mf.forcing(NU),
                              u0=lambda x: mf.exact_velocity(x, 0.0))
    assert len(cont) == 1
    nu0, res0 = cont[0]
    assert nu0 == NU
    assert [r.sqrt2E for r in res0.records] == [r.sqrt2E for r in plain.records]
    assert np.array_equal(res0.trajectory.values, plain.trajectory.values)


def test_continuation_warm_start_reduces_iterations():
    space = build_space(generate_unit_square(3))
    grid = TimeGrid(0.5, 8)
    f01 = mf.forcing(0.05)
    kw = dict(f=f01, u0=lambda x: mf.exact_velocity(x, 0.0))
    cont = continuation_in_nu(space, grid, [0.2, 0.05], **kw)
    cold = damped_newton_solve(space, grid, 0.05, **kw)
    assert cont[-1][1].converged and cold.converged
    assert cont[-1][1].iterations <= cold.iterations


# ------------------------------------------------------------ residual variant


def test_residual_variant_zero_problem(square2):
    grid = TimeGrid(1.0, 4)
    res = residual_variant_solve(square2, grid, nu=1.0)
    assert res.converged and res.iterations == 0


def test_residual_variant_matches_corrector_variant(setup):
    space, grid, ops, loads, y0 = setup
    kw = dict(f=mf.forcing(NU), u0=lambda x: mf.exact_velocity(x, 0.0))
    res_e = damped_newton_solve(space, grid, NU, **kw)
    res_t = residual_variant_solve(space, grid, NU, **kw)
    assert res_e.converged and res_t.converged
    diff = res_e.trajectory.values[1:] - res_t.trajectory.values[1:]
    rel = np.sqrt(newton.l2v_norm_sq(res_e.ops, diff)
                  / newton.l2v_norm_sq(res_e.ops, res_e.trajectory.values[1:]))
    assert rel < 1e-5
    # cross-evaluation: both functionals vanish at either solution
    et_of_e, _, _ = evaluate_energy(res_e.ops, res_t.trajectory, res_e.loads)
    assert np.sqrt(2 * et_of_e) < 1e-7


def test_residual_variant_equivalence_bound(setup):
    """The two residual measures vanish together: evaluate the lifted
    strong residual at the corrector-converged solution."""
    space, grid, ops, loads, y0 = setup
    res = newton_loop(ops, y0, loads)
    h = newton.residual_lift(ops, res.trajectory, loads)
    etilde = 0.5 * grid.dt * float(np.sum((ops.K @ h.T) * h.T))
    assert etilde <= 1e-8
