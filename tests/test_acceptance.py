"""Acceptance criteria, one test per criterion, one pass/fail line each.

Desk scale: semi-disk with h=0.05 (~900 triangles), T=2, dt=1/50.  The
expensive desk runs are shared through session fixtures; run with
``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import time

import numpy as np
import pytest

from nslsq import manufactured as mf
from nslsq import newton
from nslsq.cli import lid_profile, parse_config, run_experiment, stream_function
from nslsq.fem import assemble_divergence, build_space
from nslsq.linalg import SolverError
from nslsq.mesh import generate_semidisk, generate_unit_square
from nslsq.newton import (
    damped_newton_solve,
    continuation_in_nu,
    evaluate_energy,
    line_search_quartic,
    residual_variant_solve,
    riesz_lift,
)
from nslsq.timestepping import FieldTrajectory, Operators, TimeGrid
from conftest import capture_steps

pytestmark = pytest.mark.slow

DESK_H = 0.05
DESK_T = 2.0
DESK_N = 100
TOL = 1e-8


def criterion(num, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}{tail}"
    print("\n" + line)
    assert ok, line


@pytest.fixture(scope="session")
def desk():
    space = build_space(generate_semidisk(DESK_H))
    return space, TimeGrid(DESK_T, DESK_N)


@pytest.fixture(scope="session")
def run500(desk):
    """Desk-scale nu=1/500 quartic run with its steps captured
    (``conftest.capture_steps``) for the identity criteria."""
    space, grid = desk
    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as patch:
        steps = capture_steps(patch)
        res = damped_newton_solve(space, grid, 1 / 500, g=lid_profile, tol=TOL)
    wall = time.perf_counter() - t0
    return res, steps, wall


def test_criterion_1_manufactured_rates():
    t0 = time.perf_counter()
    nu = 0.1
    T = 0.5
    errors, hs = [], []
    for n, steps in ((4, 5), (8, 20), (16, 80)):
        space = build_space(generate_unit_square(n))
        grid = TimeGrid(T, steps)
        res = damped_newton_solve(space, grid, nu, f=mf.forcing(nu),
                                  u0=lambda x: mf.exact_velocity(x, 0.0), tol=TOL)
        assert res.converged
        errors.append(np.sqrt(mf.l2v_error_sq(space, grid, res.trajectory.values)))
        hs.append(1.0 / n)
    rate = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    wall = time.perf_counter() - t0
    decreasing = errors[0] > errors[1] > errors[2]
    criterion(1, "manufactured-solution combined rate O(h^2 + dt)",
              decreasing and rate >= 1.6 and wall <= 300,
              f"rate={rate:.2f} errors={[f'{e:.3e}' for e in errors]} "
              f"wall={wall:.0f}s")


def test_criterion_2_descent_identity(run500):
    res, steps, _ = run500
    ops, loads = res.ops, res.loads
    rels = []
    for y, d, (a, _, _, _) in steps[:3]:
        y_norm = np.sqrt(newton.l2v_norm_sq(ops, y.values[1:]))
        d_norm = np.sqrt(newton.l2v_norm_sq(ops, d.values[1:]))
        eps = 1e-4 * y_norm / d_norm
        ep, _, _ = evaluate_energy(ops, y.axpy(eps, d), loads)
        em, _, _ = evaluate_energy(ops, y.axpy(-eps, d), loads)
        slope = (ep - em) / (2 * eps)
        rels.append(abs(slope - a) / a)
    criterion(2, "descent identity E'(y).dir = 2E at k=0,1,2",
              max(rels) <= 0.02, "rel errs " + str([f"{r:.2e}" for r in rels]))


def test_criterion_3_line_search_chain(run500):
    res, steps, _ = run500
    ops, loads = res.ops, res.loads
    y, d, (a, b, c, _) = steps[1]
    rels = []
    for lam in (0.3, 0.7, 1.0):
        z = y.axpy(-lam, d)
        e_scratch, _, _ = evaluate_energy(ops, z, loads)
        q = 0.5 * ((1 - lam) ** 2 * a + 2 * lam**2 * (1 - lam) * b + lam**4 * c)
        rels.append(abs(e_scratch - q) / abs(q))
    criterion(3, "exact line-search chain at k=1, lam in {0.3,0.7,1.0}",
              max(rels) <= 1e-6, "rel errs " + str([f"{r:.2e}" for r in rels]))


def test_criterion_4_monotone_decrease_quadratic_tail(run500):
    res, _, wall = run500
    sq = [r.sqrt2E for r in res.records]
    lams = [r.lam for r in res.records if r.lam is not None]
    ok_conv = res.converged and res.iterations <= 12 and res.final_sqrt2E <= TOL
    ok_mono = all(b < a for a, b in zip(sq[:-1], sq[1:]))
    ok_lam = (all(abs(l - 1.0) <= 0.05 for l in lams[-3:])
              and all(0.6 <= l <= 1.1 for l in lams))
    # quadratic-tail constants, excluding transitions below the solver floor
    energies = [0.5 * s * s for s in sq]
    kappas = [energies[i + 1] / energies[i] ** 2
              for i in range(len(sq) - 1) if sq[i + 1] > 1e-10]
    kappas = kappas[-3:]
    ok_quad = len(kappas) >= 2 and max(kappas) / min(kappas) <= 10.0
    criterion(4, "desk nu=1/500: converged, monotone, quadratic tail, lam->1",
              ok_conv and ok_mono and ok_lam and ok_quad and wall <= 600,
              f"its={res.iterations} sqrt2E={res.final_sqrt2E:.2e} "
              f"lams[-3:]={[f'{l:.4f}' for l in lams[-3:]]} "
              f"kappa ratio={max(kappas) / min(kappas):.1f} wall={wall:.0f}s")


def test_criterion_5_damped_vs_plain_separation(desk):
    space, grid = desk
    found = None
    tried = []
    for nu_inv in (1100, 3000, 6000, 10000):
        nu = 1.0 / nu_inv
        fixed = damped_newton_solve(space, grid, nu, g=lid_profile, tol=TOL,
                                    policy="fixed1")
        tried.append(f"1/{nu_inv}:{fixed.outcome}")
        if fixed.outcome != "converged":
            damped = damped_newton_solve(space, grid, nu, g=lid_profile, tol=TOL,
                                         policy="quartic")
            if damped.converged:
                found = (nu_inv, fixed.outcome, damped.iterations,
                         damped.final_sqrt2E)
                break
    criterion(5, "fixed-1 fails while quartic converges (nu sweep)",
              found is not None,
              f"sweep={tried}" + (f" quartic its={found[2]} "
                                  f"sqrt2E={found[3]:.1e}" if found else ""))


def test_criterion_6_table1_magnitude_anchor(run500):
    res, _, _ = run500
    s0 = res.records[0].sqrt2E
    lam0 = res.records[0].lam
    ok = 5e-3 <= s0 <= 1e-1 and 0.5 <= lam0 <= 1.0
    criterion(6, "initial residual and step magnitudes anchor the reference "
                 "table", ok, f"sqrt2E0={s0:.3e} (ref 2.690e-2) "
                              f"lam0={lam0:.4f} (ref 0.8112)")


def test_criterion_7_continuation_benefit(desk):
    space, grid = desk
    stages = continuation_in_nu(space, grid, [1 / 500, 1 / 1000], g=lid_profile,
                                tol=TOL)
    warm = stages[-1][1]
    cold = damped_newton_solve(space, grid, 1 / 1000, g=lid_profile, tol=TOL)
    ok = (warm.converged and cold.converged
          and warm.iterations < cold.iterations)
    criterion(7, "continuation [1/500,1/1000] beats cold start at 1/1000", ok,
              f"warm its={warm.iterations} cold its={cold.iterations}")


def test_criterion_8_variant_equivalence(desk, run500):
    space, grid = desk
    res_e, _, _ = run500
    res_t = residual_variant_solve(space, grid, 1 / 500, g=lid_profile, tol=TOL)
    diff = res_e.trajectory.values[1:] - res_t.trajectory.values[1:]
    rel = np.sqrt(newton.l2v_norm_sq(res_e.ops, diff)
                  / newton.l2v_norm_sq(res_e.ops, res_e.trajectory.values[1:]))
    ok = (res_e.final_sqrt2E <= TOL and res_t.final_sqrt2E <= TOL
          and res_t.converged and rel <= 1e-5)
    criterion(8, "corrector and strong-residual variants agree at nu=1/500",
              ok, f"L2V rel distance={rel:.2e} "
                  f"residuals=({res_e.final_sqrt2E:.1e},{res_t.final_sqrt2E:.1e})")


def test_criterion_9_oracle_suite(square1):
    t0 = time.perf_counter()
    # quartic minimizer vs 10^6-point grid scan
    a, b, c, m = 1.0, 0.0, 100.0, 2.0
    lam, _ = line_search_quartic(a, b, c, m)
    grid_l = np.linspace(m / 1e6, m, 10**6)
    q = 0.5 * ((1 - grid_l) ** 2 * a + 2 * grid_l**2 * (1 - grid_l) * b
               + grid_l**4 * c)
    ok_ls = abs(lam - grid_l[np.argmin(q)]) <= 2e-6

    # the 2-triangle mesh is degenerate: its constrained space is {0}, and
    # its saddle matrix is singular (3 unpinned pressures, 2 free velocity
    # dofs, so B's free block has rank 2 < 3), which set-up reports
    from scipy.linalg import null_space

    from nslsq.mesh import Mesh, Tag

    two = build_space(Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                           np.array([[0, 1, 2], [0, 2, 3]]),
                           np.array([[0, 1], [1, 2], [2, 3], [0, 3]]),
                           np.array([Tag.WALL] * 4)))
    free = np.setdiff1d(np.arange(two.n_velocity), two.dirichlet_dofs)
    b_free = assemble_divergence(two).toarray()[1:, :][:, free]
    ok_two = null_space(b_free).shape[1] == 0 and np.linalg.matrix_rank(b_free) == 2
    try:
        Operators(two, TimeGrid(1.0, 2), 1.0)
        ok_two = False
    except SolverError:
        pass

    # Riesz lift vs dense solve on the smallest nontrivial mesh
    grid = TimeGrid(1.0, 2)
    ops = Operators(square1, grid, 1.0)
    rng = np.random.default_rng(6)
    vals = np.zeros((3, square1.n_velocity))
    for n in (1, 2):
        vals[n] = rng.standard_normal(square1.n_velocity)
        vals[n][square1.dirichlet_dofs] = 0.0
    w = riesz_lift(ops, FieldTrajectory(grid, vals))
    produced = grid.dt * sum(w[n] @ (ops.K @ w[n]) for n in range(2))
    free = np.setdiff1d(np.arange(square1.n_velocity), square1.dirichlet_dofs)
    z = null_space(ops.B.toarray()[1:, :][:, free])
    kz = z.T @ ops.K.toarray()[np.ix_(free, free)] @ z
    expected = 0.0
    for n in range(2):
        load = -(ops.M @ (vals[n + 1] - vals[n])) / grid.dt
        cc = np.linalg.solve(kz, z.T @ load[free])
        expected += grid.dt * cc @ kz @ cc
    ok_lift = z.shape[1] > 0 and abs(produced - expected) <= 1e-10 * max(1.0, expected)

    # element matrices vs analytic (CAS) integration on the reference triangle
    from test_fem import P2_MASS_OVER_AREA, reference_element_matrices_sympy

    ref = build_space(Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                           np.array([[0, 1, 2]]),
                           np.array([[0, 1], [1, 2], [0, 2]]),
                           np.array([Tag.WALL] * 3)))
    mass_cas, stiff_cas, div_cas = reference_element_matrices_sympy()
    ok_elem = (np.abs(ref.scalar_mass.toarray() - mass_cas).max() < 1e-12
               and np.abs(ref.scalar_mass.toarray()
                          - 0.5 * P2_MASS_OVER_AREA).max() < 1e-12
               and np.abs(ref.scalar_stiffness.toarray() - stiff_cas).max() < 1e-12
               and np.abs(assemble_divergence(ref).toarray() - div_cas).max() < 1e-12)

    # divergence-free rigid rotation
    sq = build_space(generate_unit_square(2))
    x, y = sq.p2_coords[:, 0], sq.p2_coords[:, 1]
    rot = np.concatenate([-y, x])
    ok_div = np.abs(assemble_divergence(sq) @ rot).max() <= 1e-10

    wall = time.perf_counter() - t0
    criterion(9, "oracle suite (quartic scan, singular 2-triangle saddle, dense "
                 "lift, element CAS, rigid rotation)",
              ok_ls and ok_two and ok_lift and ok_elem and ok_div and wall <= 30,
              f"wall={wall:.1f}s")


def test_criterion_10_determinism(tmp_path):
    text = """\
[experiment]
geometry = semidisk
h = 0.1
T = 1.0
dt = 0.05
nu = 1/300
"""
    blobs = []
    for name in ("r1", "r2"):
        cfg = parse_config(text + f"outdir = {tmp_path / name}\n")
        run_experiment(cfg)
        blobs.append((tmp_path / name / "history.csv").read_bytes())
    criterion(10, "bit-identical history.csv across identical runs",
              blobs[0] == blobs[1], f"{len(blobs[0])} bytes")


def test_streamlines_secondary_vortex(desk):
    """Companion check for the stream-function post-processing: the
    converged low-viscosity cavity carries at least two vortices of
    opposite sign."""
    space, grid = desk
    res = damped_newton_solve(space, grid, 1 / 1000, g=lid_profile, tol=TOL)
    assert res.converged
    psi = stream_function(space, np.asarray(res.trajectory.values[-1],
                                            dtype=np.float64))
    interior = np.setdiff1d(np.arange(space.n_scalar), space.boundary_nodes)
    pmax, pmin = psi[interior].max(), psi[interior].min()
    assert pmax > 0 and pmin < 0 and (min(abs(pmax), abs(pmin))
                                      > 1e-7 * max(abs(pmax), abs(pmin)))
