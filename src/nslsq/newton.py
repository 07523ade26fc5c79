"""Least-squares damped-Newton outer iteration for unsteady Navier-Stokes.

There is one outer loop, ``newton_loop``.  Each iterate measures the
residual of the current trajectory, solves one linearized Navier-Stokes
sweep for the descent direction, and takes the step length minimizing
the exact quartic polynomial that the squared residual norm is along
that direction.  Fixing the step to one recovers the standard Newton
method.

Two residual measures drive the loop.  ``E`` (``damped_newton_solve``)
carries the momentum defect through a corrector field (heat-type sweep)
and lifts its discrete time derivative into the velocity space to
realize the dual norm.  ``Etilde`` (``residual_variant_solve``) lifts
the strong momentum defect itself: fewer auxiliary solves, same
direction.  Each measure supplies twice its functional, the direction's
load, and the two scalars of the remainder that the quartic needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import Space
from .linalg import SolverError
from .timestepping import (
    FieldTrajectory,
    Operators,
    TimeGrid,
    lift,
    steady_stokes_initial,
    sweep,
    unsteady_stokes_initial_guess,
)

DIVERGENCE_FACTOR = 1e6
MAX_OUTER_ITERATIONS = 100
POLICIES = ("quartic", "cheap", "fixed1")


@dataclass
class IterationRecord:
    """One row of the convergence history.

    ``lam`` is the step taken from this iterate (None on the last row);
    ``rel_increment`` compares this iterate to the previous one in the
    L2(0,T;V) norm over levels 1..N (None at k=0).
    """

    k: int
    sqrt2E: float
    lam: float | None
    rel_increment: float | None
    wall_time: float


@dataclass
class CorrectorBundle:
    """One Newton step: the direction and the three scalars of the quartic
    line search, v_norm_sq = |r|^2 (twice the functional),
    cross_inner = <r, r2> and rem_norm_sq = |r2|^2, where r is the residual
    and r2 that of the step's quadratic remainder (the A0 norm of the
    correctors under E, the K norm of the lifted defects under Etilde).
    """

    direction: FieldTrajectory
    v_norm_sq: float
    cross_inner: float
    rem_norm_sq: float


@dataclass
class NewtonResult:
    trajectory: FieldTrajectory
    records: list[IterationRecord]
    outcome: str  # converged | diverged | max_iterations
    ops: Operators | None = None
    boundary_values: np.ndarray | None = None
    loads: np.ndarray | None = None

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"

    @property
    def final_sqrt2E(self) -> float:
        return self.records[-1].sqrt2E

    @property
    def iterations(self) -> int:
        return self.records[-1].k


def _stiffness_inner(K, a_levels: np.ndarray, b_levels: np.ndarray) -> float:
    return float(np.sum((K @ a_levels.T) * b_levels.T))


def l2v_norm_sq(ops: Operators, levels: np.ndarray) -> float:
    """dt * sum of squared V-seminorms of the given levels."""
    return ops.grid.dt * _stiffness_inner(ops.K, levels, levels)


def _mass_rate(ops: Operators, values: np.ndarray) -> np.ndarray:
    """Rows M(u^{n+1}-u^n)/dt of the levels of a trajectory."""
    mu = (ops.M @ values.T).T
    return (mu[1:] - mu[:-1]) / ops.grid.dt


def defect_loads(ops: Operators, y: FieldTrajectory,
                 loads: np.ndarray | None) -> np.ndarray:
    """Momentum defects of the trajectory: row n is
    M(y^{n+1}-y^n)/dt + nu K y^{n+1} + C(y^{n+1})y^{n+1} - f^n."""
    yv = y.values
    out = _mass_rate(ops, yv)
    out += ops.nu * (ops.K @ yv[1:].T).T
    for n in range(ops.grid.N):
        out[n] += fem.convection_vector(ops.space, yv[n + 1], yv[n + 1])
    if loads is not None:
        out -= loads
    return out


def _self_convection_loads(ops: Operators, direction: FieldTrajectory) -> np.ndarray:
    """Minus the self-convection of levels 1..N: the remainder's load."""
    out = np.empty((ops.grid.N, ops.space.n_velocity))
    for n, d in enumerate(direction.values[1:]):
        out[n] = -fem.convection_vector(ops.space, d, d)
    return out


def compute_corrector(ops: Operators, y: FieldTrajectory,
                      loads: np.ndarray | None = None) -> FieldTrajectory:
    """Heat-type backward-Euler sweep carrying minus the momentum defect;
    starts from zero with homogeneous boundary data."""
    return sweep(ops, -defect_loads(ops, y, loads))


def riesz_lift(ops: Operators, u: FieldTrajectory) -> np.ndarray:
    """Per-interval constrained Poisson lifts of the discrete time
    derivative: row n realizes the dual norm of (u^{n+1}-u^n)/dt."""
    return lift(ops, -_mass_rate(ops, u.values))


def residual_lift(ops: Operators, y: FieldTrajectory,
                  loads: np.ndarray | None = None) -> np.ndarray:
    """Constrained Poisson lifts of the full momentum defect, realizing
    its dual norm per interval."""
    return lift(ops, -defect_loads(ops, y, loads))


def a0_inner(ops: Operators, u1: FieldTrajectory, w1: np.ndarray,
             u2: FieldTrajectory, w2: np.ndarray) -> float:
    """Space-time inner product: V-seminorm part over levels 1..N plus the
    lifted dual-norm part over the N intervals."""
    dt = ops.grid.dt
    return (dt * _stiffness_inner(ops.K, u1.values[1:], u2.values[1:])
            + dt * _stiffness_inner(ops.K, w1, w2))


def energy(ops: Operators, v: FieldTrajectory, w: np.ndarray) -> float:
    """Least-squares functional value: half the squared A0-norm of the
    corrector."""
    return 0.5 * a0_inner(ops, v, w, v, w)


def evaluate_energy(ops: Operators, y: FieldTrajectory,
                    loads: np.ndarray | None = None):
    """From-scratch energy of a trajectory: corrector, lift, value."""
    v = compute_corrector(ops, y, loads)
    w = riesz_lift(ops, v)
    return energy(ops, v, w), v, w


def compute_direction(ops: Operators, y: FieldTrajectory,
                      v: FieldTrajectory) -> FieldTrajectory:
    """Linearized Navier-Stokes sweep driven by the corrector.

    The operator at level n+1 carries the convection linearization at
    y^{n+1} and is re-factorized per level (shared sparsity pattern).
    """
    return sweep(ops, -(_mass_rate(ops, v.values) + (ops.K @ v.values[1:].T).T), y)


def compute_nonlinear_corrector(ops: Operators, direction: FieldTrajectory):
    """Corrector of the quadratic remainder of the Newton step and its
    lift; the load is minus the self-convection of the direction."""
    vbb = sweep(ops, _self_convection_loads(ops, direction))
    return vbb, riesz_lift(ops, vbb)


def _corrector_residual(ops, y, loads):
    """E: twice the functional, with the corrector and its lift."""
    e_val, v, w = evaluate_energy(ops, y, loads)
    return 2.0 * e_val, (v, w)


def _corrector_step(ops, y, a, fields) -> CorrectorBundle:
    """E: the direction is driven by the corrector; the remainder is the
    corrector of the direction's self-convection."""
    v, w = fields
    direction = compute_direction(ops, y, v)
    vbb, wbb = compute_nonlinear_corrector(ops, direction)
    return CorrectorBundle(direction, a, a0_inner(ops, v, w, vbb, wbb),
                           a0_inner(ops, vbb, wbb, vbb, wbb))


def _lifted_residual(ops, y, loads):
    """Etilde: twice the functional, with the momentum defect and its lift."""
    defects = defect_loads(ops, y, loads)
    h = lift(ops, -defects)
    return ops.grid.dt * _stiffness_inner(ops.K, h, h), (defects, h)


def _lifted_step(ops, y, a, fields) -> CorrectorBundle:
    """Etilde: the direction takes the defect as its load; the remainder is
    the lift of the direction's self-convection."""
    defects, h = fields
    direction = sweep(ops, defects, y)
    hg = lift(ops, _self_convection_loads(ops, direction))
    dt = ops.grid.dt
    return CorrectorBundle(direction, a, dt * _stiffness_inner(ops.K, h, hg),
                           dt * _stiffness_inner(ops.K, hg, hg))


_MEASURES = {"E": (_corrector_residual, _corrector_step),
             "Etilde": (_lifted_residual, _lifted_step)}


def line_search_quartic(a: float, b: float, c: float, m: float) -> tuple[float, float]:
    """Global minimum over (0, m] of
    q(lam) = ((1-lam)^2 a + 2 lam^2 (1-lam) b + lam^4 c) / 2.

    Closed-form real roots of the cubic q' plus the endpoint; ties break
    toward the smaller step.  a = |corrector|^2 must be positive: a zero
    residual means the caller is already converged.
    """
    if not a > 0.0:
        raise ValueError("zero residual: line search must not be invoked at a solution")
    if m < 1.0:
        raise ValueError(f"search interval must contain 1, got m={m}")
    if b * b > a * c * (1.0 + 1e-6) + 1e-12 * max(a, c, 1.0) ** 2:
        raise ValueError(f"Cauchy-Schwarz violated: b^2={b * b:.3e} > ac={a * c:.3e}")

    def q(lam):
        return 0.5 * ((1 - lam) ** 2 * a + 2 * lam**2 * (1 - lam) * b + lam**4 * c)

    def dq(lam):
        return -a * (1 - lam) + b * (2 * lam - 3 * lam**2) + 2.0 * c * lam**3

    def ddq(lam):
        return a + b * (2 - 6 * lam) + 6.0 * c * lam**2

    # negligible leading coefficients poison the companion-matrix roots
    coeffs = np.array([2.0 * c, -3.0 * b, a + 2.0 * b, -a])
    scale = np.abs(coeffs).max()
    lead = 0
    while lead < 3 and abs(coeffs[lead]) <= 1e-14 * scale:
        lead += 1
    candidates = [float(m)]
    for r in np.roots(coeffs[lead:]):
        if abs(r.imag) <= 1e-9 * (1.0 + abs(r)):
            lam = float(r.real)
            for _ in range(3):  # polish the stationary point
                curv = ddq(lam)
                if curv == 0.0:
                    break
                lam -= dq(lam) / curv
            if 0.0 < lam <= m:
                candidates.append(lam)
    candidates.sort()
    best_lam, best_q = candidates[0], q(candidates[0])
    for lam in candidates[1:]:
        val = q(lam)
        if val < best_q:
            best_lam, best_q = lam, val
    return best_lam, best_q


def cheap_step_rule(E: float, norm_rem: float, m: float) -> float:
    """Step from the upper-bound polynomial: min(1, sqrt(E)/(sqrt(2)|rem|)),
    clamped to (0, min(1, m)]; skips the cross inner product."""
    if E < 0.0 or norm_rem < 0.0:
        raise ValueError("negative norm")
    if norm_rem == 0.0:
        lam = 1.0
    else:
        lam = min(1.0, np.sqrt(E) / (np.sqrt(2.0) * norm_rem))
    return min(lam, 1.0, float(m))


def _record(records, k, sqrt2e, lam, rel_inc, t0):
    records.append(IterationRecord(k, float(sqrt2e), lam, rel_inc,
                                   time.perf_counter() - t0))


def newton_loop(ops: Operators, y0: FieldTrajectory, loads: np.ndarray | None,
                *, variant: str = "E", tol: float = 1e-8, m: float = 2.0,
                policy: str = "quartic", max_iter: int = MAX_OUTER_ITERATIONS,
                divergence_factor: float = DIVERGENCE_FACTOR,
                on_iterate=None) -> NewtonResult:
    """Outer damped-Newton iteration on a prepared initial trajectory,
    driving the residual measure ``variant`` (E or Etilde) below ``tol``."""
    if policy not in POLICIES:
        raise ValueError(f"unknown step policy '{policy}'")
    if variant not in _MEASURES:
        raise ValueError(f"unknown residual measure '{variant}', "
                         f"expected one of {tuple(_MEASURES)}")
    residual, newton_step = _MEASURES[variant]
    y = y0
    records: list[IterationRecord] = []
    rel_inc: float | None = None
    sqrt2e0 = None
    k = 0
    while True:
        t0 = time.perf_counter()
        a, fields = residual(ops, y, loads)
        sqrt2e = np.sqrt(a) if a >= 0 else np.nan
        if sqrt2e0 is None:
            sqrt2e0 = sqrt2e
        if not np.isfinite(sqrt2e) or (k > 0 and sqrt2e > divergence_factor * sqrt2e0):
            outcome = "diverged"
        elif sqrt2e <= tol:
            outcome = "converged"
        elif k >= max_iter:
            outcome = "max_iterations"
        else:
            outcome = None
            try:
                bundle = newton_step(ops, y, a, fields)
            except SolverError:
                if not sqrt2e > 10.0 * sqrt2e0:
                    raise
                outcome = "diverged"
        if outcome is not None:
            _record(records, k, sqrt2e, None, rel_inc, t0)
            return NewtonResult(y, records, outcome)

        b, c = bundle.cross_inner, bundle.rem_norm_sq
        if policy == "quartic":
            lam, _ = line_search_quartic(a, b, c, m)
        elif policy == "cheap":
            lam = cheap_step_rule(0.5 * a, np.sqrt(c), m)
        else:
            lam = 1.0
        if on_iterate is not None:
            on_iterate(k, y, bundle, lam)

        direction = bundle.direction
        with np.errstate(over="ignore", invalid="ignore"):
            y_norm = np.sqrt(l2v_norm_sq(ops, y.values[1:]))
            step = lam * np.sqrt(l2v_norm_sq(ops, direction.values[1:]))
            next_rel = step / y_norm if y_norm > 0 else (0.0 if step == 0 else np.inf)
            y = y.axpy(-lam, direction)
        _record(records, k, sqrt2e, lam, rel_inc, t0)
        rel_inc = float(next_rel)
        k += 1


def prepare_problem(space: Space, grid: TimeGrid, nu: float, *, g=None, f=None,
                    boundary_values: np.ndarray | None = None, u0=None,
                    ops: Operators | None = None):
    """Assemble operators, boundary data, loads, and the Stokes-initialized
    starting trajectory shared by both residual measures."""
    if ops is None:
        ops = Operators(space, grid, nu)
    if boundary_values is not None:
        values = np.asarray(boundary_values, dtype=np.float64)
    elif g is not None:
        values = fem.lid_boundary_values(space, g)
    else:
        values = np.zeros(len(space.dirichlet_dofs))
    loads = None
    if f is not None:
        times = grid.times()
        loads = np.stack([fem.load_vector(space, f, times[n + 1])
                          for n in range(grid.N)])
    if u0 is None:
        u0_vec = steady_stokes_initial(ops, values)
    elif callable(u0):
        u0_vec = fem.interpolate_velocity(space, u0)
    else:
        u0_vec = np.asarray(u0, dtype=np.float64)
    y0 = unsteady_stokes_initial_guess(ops, u0_vec, values, loads)
    return ops, values, loads, y0


def _solve(space: Space, grid: TimeGrid, nu: float, variant: str, *, g=None,
           f=None, boundary_values=None, u0=None, warm_start=None,
           ops: Operators | None = None, **loop) -> NewtonResult:
    """Stokes initialization (or warm start) plus the outer loop; ``loop``
    holds the keywords of ``newton_loop``."""
    ops, values, loads, y0 = prepare_problem(
        space, grid, nu, g=g, f=f, boundary_values=boundary_values, u0=u0, ops=ops)
    if warm_start is not None:
        y0 = warm_start.copy()
    result = newton_loop(ops, y0, loads, variant=variant, **loop)
    result.ops = ops
    result.boundary_values = values
    result.loads = loads
    return result


def damped_newton_solve(space: Space, grid: TimeGrid, nu: float,
                        **kwargs) -> NewtonResult:
    """Full solve driving the corrector functional E.  Keywords: the data
    of ``prepare_problem``, ``warm_start``, and the settings of ``newton_loop``."""
    return _solve(space, grid, nu, "E", **kwargs)


def residual_variant_solve(space: Space, grid: TimeGrid, nu: float,
                           **kwargs) -> NewtonResult:
    """Full solve driving the lifted strong residual Etilde; the keywords
    are those of ``damped_newton_solve``."""
    return _solve(space, grid, nu, "Etilde", **kwargs)


def continuation_in_nu(space: Space, grid: TimeGrid, schedule, *,
                       variant: str = "E", **kwargs) -> list[tuple[float, NewtonResult]]:
    """Solve at each viscosity of a strictly decreasing schedule, warm
    starting from the previous converged trajectory."""
    schedule = [float(s) for s in schedule]
    if not schedule:
        raise ValueError("empty viscosity schedule")
    if any(b >= a for a, b in zip(schedule[:-1], schedule[1:])):
        raise ValueError(f"schedule must be strictly decreasing: {schedule}")
    ops = None
    warm = None
    out: list[tuple[float, NewtonResult]] = []
    for nu in schedule:
        ops = Operators(space, grid, nu) if ops is None else ops.with_nu(nu)
        res = _solve(space, grid, nu, variant, warm_start=warm, ops=ops, **kwargs)
        out.append((nu, res))
        warm = res.trajectory
    return out
