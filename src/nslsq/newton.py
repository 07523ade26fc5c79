"""Least-squares damped-Newton outer iteration for unsteady Navier-Stokes.

There is one outer loop, ``newton_loop``.  Each iterate measures the
residual of the current trajectory, solves one linearized Navier-Stokes
sweep for the descent direction, and takes the step length minimizing
the exact quartic polynomial that the squared residual norm is along
that direction.  Fixing the step to one recovers the standard Newton
method.

Two residual measures drive the loop, and both take the same Newton
direction: the Navier-Stokes sweep linearized at the current iterate,
with the momentum defect as load.  A measure only represents momentum
loads and pairs two representations.  ``E`` (``damped_newton_solve``)
represents a load by the corrector field it drives (heat-type sweep)
together with the Riesz lift of the corrector's discrete time
derivative, paired by the space-time inner product ``a0_inner``.
``Etilde`` (``residual_variant_solve``) represents a load by its
constrained Poisson lift, paired by the V inner product: fewer auxiliary
solves.  The representation of minus the defect gives twice the
functional, and that of the direction's self-convection gives the two
scalars of the remainder that the quartic needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import Space
from .linalg import SolverError
from .mesh import Tag
from .timestepping import (
    FieldTrajectory,
    Operators,
    TimeGrid,
    checked_viscosity,
    lift,
    steady_stokes_initial,
    sweep,
    unsteady_stokes_initial_guess,
)

DIVERGENCE_FACTOR = 1e6
MAX_OUTER_ITERATIONS = 100
# The loop ends as ``stalled`` when sqrt(2E) has fallen, but by less than a
# relative STALL_DROP, over the last STALL_ITERATES iterates.
STALL_DROP = 1e-3
STALL_ITERATES = 5


@dataclass
class IterationRecord:
    """One row of the convergence history.

    ``lam`` is the step taken from this iterate (None on the last row);
    ``rel_increment`` compares this iterate to the previous one in the
    L2(0,T;V) norm over levels 1..N (None at k=0).  ``predicted_sqrt2E``
    is ``sqrt(quartic(a, b, c, lam))`` of the previous iterate at its step,
    from its line-search scalars (None at k=0; a negative rounding reads as
    zero): an exact direction makes it equal ``sqrt2E`` up to rounding.
    """

    k: int
    sqrt2E: float
    lam: float | None
    rel_increment: float | None
    wall_time: float
    predicted_sqrt2E: float | None = None


@dataclass
class NewtonResult:
    trajectory: FieldTrajectory
    records: list[IterationRecord]
    # converged | diverged | max_iterations | stalled | line_search_failed | solver_failed
    outcome: str
    ops: Operators | None = None
    loads: np.ndarray | None = None
    error: str | None = None  # the SolverError or the stall that ended the loop

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


def _corrector_fields(ops: Operators, loads: np.ndarray):
    """E's representation of momentum loads: the heat-type corrector they
    drive and the Riesz lift of its time derivative."""
    v = sweep(ops, loads)
    return v, riesz_lift(ops, v)


def evaluate_energy(ops: Operators, y: FieldTrajectory,
                    loads: np.ndarray | None = None):
    """From-scratch energy of a trajectory (half the squared A0-norm of its
    corrector), with the corrector and its lift."""
    v = compute_corrector(ops, y, loads)
    w = riesz_lift(ops, v)
    return 0.5 * a0_inner(ops, v, w, v, w), v, w


def compute_direction(ops: Operators, y: FieldTrajectory,
                      defects: np.ndarray) -> FieldTrajectory:
    """Newton direction: the Navier-Stokes sweep linearized at ``y`` with
    the momentum defects as loads, shared by both residual measures.

    The operator at level n+1 carries the convection linearization at
    y^{n+1}; ``timestepping._direction_level`` decides which levels are
    factorized and which are solved by GMRES on a held LU.
    """
    return sweep(ops, defects, y)


def compute_nonlinear_corrector(ops: Operators, direction: FieldTrajectory):
    """Corrector of the quadratic remainder of the Newton step and its
    lift; the load is minus the self-convection of the direction."""
    return _corrector_fields(ops, _self_convection_loads(ops, direction))


# Each residual measure is a representation of momentum loads and the inner
# product that pairs two representations; twice the functional is the
# squared norm of the representation of minus the defects.
_MEASURES = {
    "E": (_corrector_fields, lambda ops, r1, r2: a0_inner(ops, *r1, *r2)),
    "Etilde": (lift, lambda ops, h1, h2: ops.grid.dt * _stiffness_inner(ops.K, h1, h2)),
}
VARIANTS = tuple(_MEASURES)


def quartic(a: float, b: float, c: float, lam: float) -> float:
    """Twice the functional after the step ``lam`` along the Newton
    direction, exactly: ``(1-lam)^2 a + 2 lam^2 (1-lam) b + lam^4 c`` in the
    line-search scalars a = |r|^2, b = <r, r2> and c = |r2|^2 of the
    residual's representation r and its quadratic remainder's r2."""
    return (1 - lam) ** 2 * a + 2 * lam**2 * (1 - lam) * b + lam**4 * c


def line_search_quartic(a: float, b: float, c: float, m: float) -> tuple[float, float]:
    """Global minimum over (0, m] of the functional ``quartic(a, b, c, lam) / 2``.

    Closed-form real roots of the cubic q' plus the endpoint; ties break
    toward the smaller step.  a = |corrector|^2 must be positive: a zero
    residual means the caller is already converged.  Scalars that break
    Cauchy-Schwarz, ``b^2 > ac`` beyond a relative 1e-6, raise.
    """
    if not a > 0.0:
        raise ValueError("zero residual: line search must not be invoked at a solution")
    if m < 1.0:
        raise ValueError(f"search interval must contain 1, got m={m}")
    if b * b > a * c * (1.0 + 1e-6):
        raise ValueError(f"Cauchy-Schwarz violated: b^2={b * b:.3e} > ac={a * c:.3e}")

    def q(lam):
        return 0.5 * quartic(a, b, c, lam)

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
    best = min(sorted(candidates), key=q)
    return best, q(best)


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


# Each step policy maps the line-search scalars a, b, c and the search bound
# m to a step.  The entries look the rules up when called, so a rule patched
# on the module takes effect.
_STEPS = {
    "quartic": lambda a, b, c, m: line_search_quartic(a, b, c, m)[0],
    "cheap": lambda a, b, c, m: cheap_step_rule(0.5 * a, np.sqrt(c), m),
    "fixed1": lambda a, b, c, m: 1.0,
}
POLICIES = tuple(_STEPS)


def newton_loop(ops: Operators, y0: FieldTrajectory, loads: np.ndarray | None,
                *, variant: str = "E", tol: float = 1e-8, m: float = 2.0,
                policy: str = "quartic", max_iter: int = MAX_OUTER_ITERATIONS) -> NewtonResult:
    """Outer damped-Newton iteration on a prepared initial trajectory,
    driving the residual measure ``variant`` (E or Etilde) below ``tol``.
    A ``sqrt(2E)`` that is not finite, or past ``DIVERGENCE_FACTOR`` (read
    at each check) times the first, ends it as ``diverged``.

    When the quartic line search rejects its scalars (``b^2 > ac``, which
    exact representations cannot give), the loop ends with the outcome
    ``line_search_failed`` and the rows so far.  A ``SolverError`` in the
    direction or remainder solves ends it as ``solver_failed``, or as
    ``diverged`` past ten times the first ``sqrt(2E)``, keeping its message.
    A ``sqrt(2E)`` that has fallen, but by less than a relative
    ``STALL_DROP``, over the last ``STALL_ITERATES`` iterates ends it as
    ``stalled``, with a message that gives both values; one that has grown
    is left to the divergence checks.
    """
    if policy not in _STEPS:
        raise ValueError(f"unknown step policy '{policy}'")
    if policy == "quartic" and not m >= 1.0:
        raise ValueError(f"search interval must contain 1, got m={m}")
    if variant not in _MEASURES:
        raise ValueError(f"unknown residual measure '{variant}', "
                         f"expected one of {VARIANTS}")
    represent, inner = _MEASURES[variant]
    step_rule = _STEPS[policy]
    y = y0
    records: list[IterationRecord] = []
    rel_inc = predicted = sqrt2e0 = error = None
    k = 0
    while True:
        t0 = time.perf_counter()
        defects = defect_loads(ops, y, loads)
        r = represent(ops, -defects)
        a = inner(ops, r, r)
        sqrt2e = np.sqrt(a) if a >= 0 else np.nan
        if sqrt2e0 is None:
            sqrt2e0 = sqrt2e
        past = records[-STALL_ITERATES].sqrt2E if k >= STALL_ITERATES else np.inf
        outcome = lam = None
        if not np.isfinite(sqrt2e) or (k > 0 and sqrt2e > DIVERGENCE_FACTOR * sqrt2e0):
            outcome = "diverged"
        elif sqrt2e <= tol:
            outcome = "converged"
        elif k >= max_iter:
            outcome = "max_iterations"
        elif (1 - STALL_DROP) * past < sqrt2e <= past:
            outcome = "stalled"
            error = (f"sqrt(2E) fell by less than a relative {STALL_DROP:g} over "
                     f"{STALL_ITERATES} iterates: {past:.6e} at k = "
                     f"{k - STALL_ITERATES}, {sqrt2e:.6e} at k = {k}")
        else:
            try:
                direction = compute_direction(ops, y, defects)
                r2 = represent(ops, _self_convection_loads(ops, direction))
            except SolverError as exc:
                outcome = "diverged" if sqrt2e > 10.0 * sqrt2e0 else "solver_failed"
                error = str(exc)
            else:
                b, c = inner(ops, r, r2), inner(ops, r2, r2)
                try:
                    lam = step_rule(a, b, c, m)
                except ValueError:
                    outcome = "line_search_failed"
        if outcome is None:
            with np.errstate(over="ignore", invalid="ignore"):
                y_norm = np.sqrt(l2v_norm_sq(ops, y.values[1:]))
                step = lam * np.sqrt(l2v_norm_sq(ops, direction.values[1:]))
                next_rel = step / y_norm if y_norm > 0 else (0.0 if step == 0 else np.inf)
                y_next = y.axpy(-lam, direction)
        records.append(IterationRecord(k, float(sqrt2e), lam, rel_inc,
                                       time.perf_counter() - t0, predicted))
        if outcome is not None:
            return NewtonResult(y, records, outcome, error=error)
        y, rel_inc = y_next, float(next_rel)
        predicted = float(np.sqrt(max(quartic(a, b, c, lam), 0.0)))
        k += 1


def prepare_problem(space: Space, grid: TimeGrid, nu: float, *, g=None, f=None,
                    u0=None, ops: Operators | None = None, warm_start=None):
    """Assemble operators, boundary data, loads, and the starting
    trajectory shared by both residual measures: a copy of ``warm_start``
    if given, else the Stokes initial guess.

    ``g`` is the horizontal lid velocity (homogeneous walls when omitted),
    ``f(x, t)`` the body force, and ``u0`` the initial velocity as a vector
    or a callable (the steady Stokes field of the lid data when omitted,
    which a warm start does not solve for).  The Stokes initial guess is
    the unsteady Stokes sweep from ``u0``; from the steady field without a
    force that sweep returns the field at every level, so the field is
    copied to every level instead.  Non-finite data, a force that is not
    one 2-vector per point, and lid data on a mesh without a lid raise
    ``ValueError``, also on a warm start, and so does a ``warm_start``
    that is not ``N + 1`` finite velocity levels.
    """
    if warm_start is not None:
        shape = np.shape(warm_start.values)
        if shape != (grid.N + 1, space.n_velocity) or not np.isfinite(warm_start.values).all():
            raise ValueError(f"warm_start must be {grid.N + 1} x {space.n_velocity} "
                             f"finite values, got shape {shape}")
    if g is not None and not (space.boundary_node_tags == int(Tag.LID)).any():
        raise ValueError("lid velocity g given, but the mesh has no lid boundary")
    values = (np.zeros(len(space.dirichlet_dofs)) if g is None
              else fem.lid_boundary_values(space, g))
    if not np.isfinite(values).all():
        raise ValueError("lid velocity g has non-finite values on the lid")
    loads = None
    if f is not None:  # before the operators, so a bad force costs no LU
        times = grid.times()
        loads = np.stack([fem.load_vector(space, f, times[n + 1])
                          for n in range(grid.N)])
    if ops is None:
        ops = Operators(space, grid, nu)
    steady = u0 is None and warm_start is None
    if steady:
        u0 = steady_stokes_initial(ops, values)
    elif callable(u0):
        u0 = fem.interpolate_velocity(space, u0)
    if u0 is not None:  # a warm start without u0 has none to check
        u0 = np.asarray(u0, dtype=np.float64)
        if u0.shape != (space.n_velocity,) or not np.isfinite(u0).all():
            raise ValueError(f"initial velocity u0 must be {space.n_velocity} finite "
                             f"values, got shape {u0.shape}")
    if warm_start is not None:  # it replaces the Stokes guess
        y0 = warm_start.copy()
    elif steady and loads is None:  # the sweep would return u0 at every level
        y0 = FieldTrajectory(grid, np.tile(u0, (grid.N + 1, 1)))
    else:
        y0 = unsteady_stokes_initial_guess(ops, u0, values, loads)
    return ops, loads, y0


def _solve(space: Space, grid: TimeGrid, nu: float, variant: str, *, g=None,
           f=None, u0=None, warm_start=None, ops: Operators | None = None,
           **loop) -> NewtonResult:
    """``prepare_problem`` plus the outer loop; ``loop`` holds the
    keywords of ``newton_loop``."""
    ops, loads, y0 = prepare_problem(space, grid, nu, g=g, f=f, u0=u0, ops=ops,
                                     warm_start=warm_start)
    result = newton_loop(ops, y0, loads, variant=variant, **loop)
    result.ops, result.loads = ops, loads
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
    starting from the previous converged trajectory.  Every viscosity is
    checked before the first stage is solved."""
    schedule = [checked_viscosity(float(s)) for s in schedule]
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
