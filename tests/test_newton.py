import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslsq import cli, manufactured as mf, newton, timestepping
from nslsq.fem import build_space, interpolate_velocity, lid_boundary_values
from nslsq.linalg import Factorization
from nslsq.mesh import generate_semidisk, generate_unit_square
from nslsq.newton import (
    POLICIES,
    VARIANTS,
    a0_inner,
    cheap_step_rule,
    compute_corrector,
    compute_direction,
    compute_nonlinear_corrector,
    continuation_in_nu,
    damped_newton_solve,
    defect_loads,
    evaluate_energy,
    line_search_quartic,
    newton_loop,
    prepare_problem,
    residual_variant_solve,
    riesz_lift,
)
from nslsq.timestepping import FieldTrajectory, Operators, TimeGrid, sweep
from conftest import LOOP_FAILURES, capture_steps, fail_second_call, tenfold_start

NU = 0.1


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


def test_quartic_rejects_cauchy_schwarz_break_at_any_scale():
    """b^2 > ac is rejected beyond a relative slack only, so scalars far
    below one are checked too: here b^2 = 4e-30 against ac = 1e-30."""
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        line_search_quartic(1e-10, 2e-15, 1e-20, 2.0)
    line_search_quartic(1e-10, 1e-15, 1e-20, 2.0)  # b^2 = ac is allowed


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
    e1 = 0.5 * a0_inner(ops, v, w, v, w)
    assert e1 >= 0
    assert evaluate_energy(ops, y0, loads)[0] == pytest.approx(e1, rel=1e-12)
    v2 = FieldTrajectory(grid, 2.0 * v.values)
    assert 0.5 * a0_inner(ops, v2, 2.0 * w, v2, 2.0 * w) == pytest.approx(
        4 * e1, rel=1e-12)
    zero = FieldTrajectory.zeros(grid, space.n_velocity)
    assert a0_inner(ops, zero, np.zeros_like(w), zero, np.zeros_like(w)) == 0.0


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
    """Zero defects (the corrector vanishes with them) give a zero direction."""
    space, grid, ops, _, y0 = setup
    d = compute_direction(ops, y0, np.zeros((grid.N, space.n_velocity)))
    assert np.abs(d.values).max() == 0.0


def test_direction_descent_identity(setup):
    """Central finite differences of E along the direction equal 2E."""
    space, grid, ops, loads, y0 = setup
    e_val, _, _ = evaluate_energy(ops, y0, loads)
    d = compute_direction(ops, y0, defect_loads(ops, y0, loads))
    y_norm = np.sqrt(newton.l2v_norm_sq(ops, y0.values[1:]))
    d_norm = np.sqrt(newton.l2v_norm_sq(ops, d.values[1:]))
    eps = 1e-4 * y_norm / d_norm
    ep, _, _ = evaluate_energy(ops, y0.axpy(eps, d), loads)
    em, _, _ = evaluate_energy(ops, y0.axpy(-eps, d), loads)
    slope = (ep - em) / (2 * eps)
    assert slope == pytest.approx(2 * e_val, rel=0.02)


def test_direction_corrector_coincides_with_corrector(setup):
    """Re-deriving the corrector of the linearized pair returns v itself,
    and the direction driven by the corrector's heat-type residual
    -(M v'/dt + K v) (the defect plus a multiplier gradient) is the
    direction driven by the defect."""
    space, grid, ops, loads, y0 = setup
    v = compute_corrector(ops, y0, loads)
    d = compute_direction(ops, y0, defect_loads(ops, y0, loads))
    vv = v.values
    d_v = sweep(ops, -(newton._mass_rate(ops, vv) + (ops.K @ vv[1:].T).T), y0)
    gap = newton.l2v_norm_sq(ops, d_v.values[1:] - d.values[1:])
    assert np.sqrt(gap) <= 1e-10 * np.sqrt(newton.l2v_norm_sq(ops, d.values[1:]))
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


def test_lagged_direction_matches_fresh_lu_direction(setup, monkeypatch):
    """The direction sweep factorizes levels 1, 4 and 7 and solves the
    levels in between by GMRES on the held LU (the cadence of
    ``timestepping._direction_level``); it matches a sweep with a fresh LU
    on every level.  A single rejected GMRES solve, on level 2, factorizes
    that level and restarts the cadence there: the LUs are made on levels
    1, 2, 5 and 8.  When GMRES is never accepted, every level falls back
    to a fresh LU."""
    space, grid, ops, loads, y0 = setup
    y = newton_loop(ops, y0, loads, max_iter=1).trajectory  # GMRES iterates here
    defects = defect_loads(ops, y, loads)
    pattern = ops.linearized_pattern
    ref = np.zeros((grid.N + 1, space.n_velocity))
    for n in range(grid.N):
        fresh = Factorization(ops.linearized(y.values[n + 1]), "linearized")
        ref[n + 1], _ = pattern.solve(fresh.solve, ops.M @ ref[n] / grid.dt + defects[n])
    ref_norm = np.sqrt(newton.l2v_norm_sq(ops, ref[1:]))

    def compare_sweep():
        before = ops.factorizations.copy()
        d = compute_direction(ops, y, defects)
        added = ops.factorizations - before
        assert added["linearized"] + added["lagged"] == grid.N
        gap = np.sqrt(newton.l2v_norm_sq(ops, d.values[1:] - ref[1:]))
        return added, gap / ref_norm

    added, rel = compare_sweep()
    assert (added["linearized"], added["lagged"]) == (3, 5)
    assert added["krylov_iterations"] > 0
    assert rel <= 1e-10

    events = []
    krylov_solve, factorize = timestepping.krylov_solve, pattern.factorize

    def reject_first(matrix, fact, b):  # the sweep's first GMRES solve: level 2
        events.append("gmres")
        return (None, 60) if len(events) == 2 else krylov_solve(matrix, fact, b)

    monkeypatch.setattr(timestepping, "krylov_solve", reject_first)
    monkeypatch.setattr(pattern, "factorize",
                        lambda m, label: events.append("lu") or factorize(m, label))
    added, rel = compare_sweep()
    # level 1: LU; 2: rejected GMRES, LU; 3, 4: GMRES; 5: LU; 6, 7: GMRES; 8: LU
    assert events == ["lu", "gmres", "lu", "gmres", "gmres", "lu", "gmres", "gmres", "lu"]
    assert (added["linearized"], added["lagged"]) == (4, 4)
    assert rel <= 1e-10

    monkeypatch.setattr(timestepping, "krylov_solve",
                        lambda matrix, fact, b: (None, 60))
    added, rel = compare_sweep()
    assert (added["linearized"], added["lagged"]) == (grid.N, 0)
    assert rel <= 1e-12


def test_nonlinear_corrector_scaling_and_zero(setup):
    space, grid, ops, loads, y0 = setup
    zero = FieldTrajectory.zeros(grid, space.n_velocity)
    vbb, wbb = compute_nonlinear_corrector(ops, zero)
    assert np.abs(vbb.values).max() == 0.0 and np.abs(wbb).max() == 0.0
    d = compute_direction(ops, y0, defect_loads(ops, y0, loads))
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
    d = compute_direction(ops, y0, defect_loads(ops, y0, loads))
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


def test_line_search_truth_at_accepted_steps(setup, monkeypatch):
    """From-scratch functional at every accepted step equals the quartic
    prediction (the whole algebraic chain at once), for both measures.
    Both measures take the same Newton direction from the same iterate."""
    space, grid, ops, loads, y0 = setup
    first_directions = []
    for variant in VARIANTS:
        with monkeypatch.context() as patch:
            steps = capture_steps(patch)
            res = newton_loop(ops, y0, loads, variant=variant)
        assert res.converged and len(steps) >= 3, variant
        first_directions.append(steps[0][1].values)
        for y, direction, (a, b, c, lam) in steps:
            q = 0.5 * ((1 - lam) ** 2 * a + 2 * lam**2 * (1 - lam) * b + lam**4 * c)
            e_scratch = _functional_from_scratch(ops, y.axpy(-lam, direction), loads, variant)
            assert e_scratch == pytest.approx(q, rel=1e-6, abs=1e-24), variant
    assert np.array_equal(*first_directions)


@pytest.mark.parametrize("variant", VARIANTS)
def test_records_carry_the_quartic_prediction(setup, variant):
    """Under every step policy, each row after the first carries the
    quartic of the row before at its step, and it equals the measured
    ``sqrt2E`` within the fingerprint's gate: the direction solves the
    linearization exactly."""
    space, grid, ops, loads, y0 = setup
    for policy in POLICIES:
        res = newton_loop(ops, y0, loads, variant=variant, policy=policy, max_iter=40)
        rows = res.records
        assert res.converged and len(rows) >= 3, policy
        assert rows[0].predicted_sqrt2E is None
        for prev, row in zip(rows, rows[1:]):
            gap = abs(row.sqrt2E - row.predicted_sqrt2E)
            assert gap <= 1e-9 * (row.sqrt2E + prev.sqrt2E), (policy, row.k)


def test_scaled_direction_breaks_the_prediction(setup, monkeypatch):
    """A direction scaled by 1.1 no longer solves the linearization, and the
    prediction of the next row misses it by far more than the gate."""
    space, grid, ops, loads, y0 = setup
    direction = newton.compute_direction
    monkeypatch.setattr(newton, "compute_direction", lambda *args: FieldTrajectory(
        grid, 1.1 * direction(*args).values))
    prev, row = newton_loop(ops, y0, loads, max_iter=1).records
    assert abs(row.sqrt2E - row.predicted_sqrt2E) > 1e-3 * (row.sqrt2E + prev.sqrt2E)


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


def test_divergence_detection_reports_not_crashes(setup, monkeypatch):
    """A tiny divergence factor forces the diverged outcome path."""
    space, grid, ops, loads, y0 = setup
    monkeypatch.setattr(newton, "DIVERGENCE_FACTOR", 1.0 + 1e-9)
    for variant in VARIANTS:
        res = newton_loop(ops, y0, loads, variant=variant, max_iter=50)
        assert res.outcome in ("diverged", "converged"), variant
        # with a factor this tight the first growth of sqrt2E must report
        if res.outcome == "diverged":
            assert res.records[-1].lam is None


def test_flattened_descent_ends_as_stalled():
    """From ten times the Stokes guess (``conftest.tenfold_start``) the
    damped iteration flattens.  The loop ends as ``stalled`` at the first
    iterate whose sqrt(2E) has fallen, but by less than a relative
    STALL_DROP, over STALL_ITERATES iterates, keeping every row and naming
    the stall."""
    space = build_space(generate_semidisk(0.2))
    ops, loads, y0 = prepare_problem(space, TimeGrid(1.0, 10), 1 / 500, g=cli.lid_profile)
    res = newton_loop(ops, tenfold_start(space, y0), loads, max_iter=40)
    rows, span = res.records, newton.STALL_ITERATES
    assert res.outcome == "stalled" and not res.converged
    assert [r.k for r in rows] == list(range(len(rows)))
    assert all(r.lam is not None for r in rows[:-1]) and rows[-1].lam is None

    def flat(k):
        past = rows[k - span].sqrt2E
        return (1 - newton.STALL_DROP) * past < rows[k].sqrt2E <= past

    assert flat(len(rows) - 1) and not any(flat(k) for k in range(span, len(rows) - 1))
    assert res.error.startswith(f"sqrt(2E) fell by less than a relative "
                                f"{newton.STALL_DROP:g} over {span} iterates")
    assert res.error.endswith(f"{rows[-1].sqrt2E:.6e} at k = {rows[-1].k}")


def test_iteration_cap(setup):
    space, grid, ops, loads, y0 = setup
    for variant in VARIANTS:
        res = newton_loop(ops, y0, loads, variant=variant, max_iter=1)
        assert res.outcome == "max_iterations", variant
        assert res.records[-1].k == 1


def test_factorization_reuse_across_run(setup):
    space, grid, ops, loads, y0 = setup
    before = ops.factorizations.copy()
    res = newton_loop(ops, y0, loads)
    added = ops.factorizations - before
    assert ops.factorizations["heat"] == 1  # prebuilt in fixture, reused here
    assert ops.factorizations["stokes"] == 1
    # N = 8: each direction sweep factorizes levels 1, 4 and 7
    # (timestepping._direction_level)
    assert added["linearized"] == 3 * res.iterations
    assert added["lagged"] == 5 * res.iterations


def test_factorization_counts_fresh_run():
    space = build_space(generate_unit_square(2))
    grid = TimeGrid(0.5, 4)
    res = damped_newton_solve(space, grid, nu=NU, f=mf.forcing(NU),
                              u0=lambda x: mf.exact_velocity(x, 0.0))
    assert res.converged
    counts = res.ops.factorizations
    assert counts["heat"] == 1
    assert counts["stokes"] == 1
    # N = 4: each direction sweep factorizes levels 1 and 4
    # (timestepping._direction_level)
    assert counts["linearized"] == 2 * res.iterations
    assert counts["linearized"] + counts["lagged"] == grid.N * res.iterations


def test_prepare_problem_rejects_non_finite_data(disk_coarse, square2):
    """Bad lid data, forcing or initial velocity is reported as bad input
    before any iterate, not as a diverged run."""
    grid = TimeGrid(0.1, 2)
    with pytest.raises(ValueError, match="lid velocity g"):
        damped_newton_solve(disk_coarse, grid, 0.1, g=lambda x: np.nan * x)
    with pytest.raises(ValueError, match="lid velocity g"):
        prepare_problem(disk_coarse, grid, 0.1, g=lambda x: np.inf + 0 * x)
    with pytest.raises(ValueError, match="lid velocity g"):
        damped_newton_solve(square2, grid, 0.1, g=lambda x: 1 + 0 * x)
    n = square2.n_velocity
    for u0 in (np.full(n, np.nan), lambda x: np.nan * x, np.zeros(3), np.zeros((2, n))):
        with pytest.raises(ValueError, match="u0"):
            prepare_problem(square2, grid, 0.1, u0=u0)
    # a force with a NaN, a scalar force, and one value short, at the quadrature points
    for f in (lambda x, t: np.nan * x, lambda x, t: 0 * x[:, 0], lambda x, t: x[:-1]):
        with pytest.raises(ValueError, match="forcing f"):
            prepare_problem(square2, grid, 0.1, f=f)
        with pytest.raises(ValueError, match="forcing f"):
            damped_newton_solve(square2, grid, 0.1, f=f)
    # a warm start of N = 3 levels for N = 4, and one with a NaN level
    grid = TimeGrid(0.1, 4)
    short = FieldTrajectory.zeros(TimeGrid(0.1, 3), n)
    nan_level = FieldTrajectory.zeros(grid, n)
    nan_level.values[2] = np.nan
    for warm in (short, nan_level):
        with pytest.raises(ValueError, match="warm_start"):
            prepare_problem(square2, grid, 0.1, warm_start=warm)
        with pytest.raises(ValueError, match="warm_start"):
            damped_newton_solve(square2, grid, 0.1, warm_start=warm)


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
    # one count per continuation run: the constant LUs are shared by the stages
    counts = cont[-1][1].ops.factorizations
    assert cont[0][1].ops.factorizations is counts
    assert counts["heat"] == counts["stokes"] == 1
    # N = 8: each direction sweep factorizes levels 1, 4 and 7
    # (timestepping._direction_level)
    assert counts["linearized"] == 3 * sum(res.iterations for _, res in cont)


def test_warm_start_skips_stokes_initial_guess(square2, monkeypatch):
    """Only the first continuation stage sweeps the Stokes initial guess;
    a warm-started solve still checks its data."""
    calls = []
    guess = newton.unsteady_stokes_initial_guess
    monkeypatch.setattr(newton, "unsteady_stokes_initial_guess",
                        lambda *args: calls.append(1) or guess(*args))
    grid = TimeGrid(0.5, 4)
    kw = dict(f=mf.forcing(0.1), u0=lambda x: mf.exact_velocity(x, 0.0))
    cont = continuation_in_nu(square2, grid, [0.2, 0.1], **kw)
    assert all(res.converged for _, res in cont)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="u0"):
        damped_newton_solve(square2, grid, 0.1, u0=np.zeros(3),
                            warm_start=cont[-1][1].trajectory)


def test_steady_start_is_the_stokes_field_on_every_level(disk_coarse, monkeypatch):
    """From the steady Stokes field of lid data without a force, the initial
    trajectory is that field on every level, bit for bit, without the
    unsteady sweep, which returns it to rounding; a force still sweeps."""
    calls = []
    guess = newton.unsteady_stokes_initial_guess
    monkeypatch.setattr(newton, "unsteady_stokes_initial_guess",
                        lambda *args: calls.append(1) or guess(*args))
    grid = TimeGrid(0.1, 5)
    ops, loads, y0 = prepare_problem(disk_coarse, grid, 0.01, g=cli.lid_profile)
    assert loads is None and not calls
    levels = y0.values
    assert levels.shape == (grid.N + 1, disk_coarse.n_velocity)
    assert all(np.array_equal(v.view(np.uint64), levels[0].view(np.uint64))
               for v in levels)
    swept = guess(ops, levels[0], lid_boundary_values(disk_coarse, cli.lid_profile))
    assert np.abs(swept.values - levels).max() <= 1e-12 * np.abs(levels).max()
    prepare_problem(disk_coarse, grid, 0.01, g=cli.lid_profile, ops=ops,
                    f=lambda x, t: np.ones_like(x))
    assert len(calls) == 1


def test_warm_start_skips_steady_stokes_initial(square2, monkeypatch):
    """Without ``u0`` only the first continuation stage solves for the
    steady Stokes field: a warm start replaces the guess built on it."""
    calls = []
    steady = newton.steady_stokes_initial
    monkeypatch.setattr(newton, "steady_stokes_initial",
                        lambda *args: calls.append(1) or steady(*args))
    continuation_in_nu(square2, TimeGrid(0.5, 4), [0.2, 0.1], f=mf.forcing(0.1))
    assert len(calls) == 1


def test_line_search_failure_ends_the_loop(setup, monkeypatch):
    """A line search that rejects its scalars at k = 1 ends the loop with
    the outcome ``line_search_failed`` and the rows of k = 0 and 1, and so
    does a direction solve that raises ``SolverError`` there, as
    ``solver_failed`` with the error's message."""
    space, grid, ops, loads, y0 = setup
    full = newton_loop(ops, y0, loads)
    for name, error, outcome in LOOP_FAILURES:
        with monkeypatch.context() as patch:
            fail_second_call(patch, name, error)
            res = newton_loop(ops, y0, loads)
        assert res.outcome == outcome and not res.converged
        assert [r.k for r in res.records] == [0, 1]
        assert [r.sqrt2E for r in res.records] == [r.sqrt2E for r in full.records[:2]]
        assert res.records[0].lam is not None and res.records[1].lam is None
        assert res.error == (None if outcome == "line_search_failed" else str(error))
    with pytest.raises(ValueError, match="contain 1"):
        newton_loop(ops, y0, loads, m=0.5)


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
