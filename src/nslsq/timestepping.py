"""Backward-Euler drivers for the Stokes-type evolution problems.

Every scheme of the outer iteration steps one constrained system
``(M/dt + A) u^{n+1} + B^T lam = M u^n/dt + load`` forward in time
(``sweep``), and every Riesz lift solves one constant Stokes-type system
per interval (``lift``).  The constant-coefficient operators (heat type
``M/dt + K`` and Stokes type ``K``) are factorized once per run and
reused across every time level and outer iterate; both are exactly
symmetric after the Dirichlet elimination, so their LUs take
``linalg.Factorization``'s symmetric ordering, and the Stokes LU takes
the heat LU's ordering (the two share their sparsity pattern).  The
linearized Navier-Stokes operator of the direction sweep is factorized
on every ``LU_LAG``-th level only; the levels in between are solved by
right-preconditioned GMRES on their own matrix, with the LU held from
the last factorized level.  Its matrix is assembled at every level
straight into CSC on one sparsity pattern, built on the first linearized
level, that stores only the free-free entries and the unit diagonal of
the constrained dofs: a stored zero fills the LU like a nonzero.  The
first linearized LU of a run orders that pattern by COLAMD, and every
later one reuses its ordering (``_LinearizedTemplate.order``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .fem import Space
from .linalg import (
    Factorization,
    Ordering,
    eliminated_entries,
    krylov_solve,
    saddle_constrained,
    saddle_factorization,
)

LU_LAG = 3  # a direction sweep factorizes every third level


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of N steps on [0, T]."""

    T: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


class FieldTrajectory:
    """Velocity coefficient levels over a time grid: N+1 levels, level 0
    the initial condition."""

    def __init__(self, grid: TimeGrid, values: np.ndarray):
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: TimeGrid, n_velocity: int) -> "FieldTrajectory":
        return cls(grid, np.zeros((grid.N + 1, n_velocity)))

    def copy(self) -> "FieldTrajectory":
        return FieldTrajectory(self.grid, self.values.copy())

    def axpy(self, alpha: float, other: "FieldTrajectory") -> "FieldTrajectory":
        """self + alpha*other, level 0 untouched for state trajectories."""
        out = self.values.copy()
        out += alpha * other.values
        return FieldTrajectory(self.grid, out)


class _LinearizedTemplate:
    """Linearized saddle operator at one level, assembled straight into CSC.

    The constant part (M/dt + nu*K, divergence blocks, Dirichlet identity
    rows, eliminated as in ``linalg.eliminate_dirichlet``) and the
    positions of the free-free convection entries are prepared once.
    Convection entries on constrained rows and columns are not stored at
    all: COLAMD and SuperLU treat a stored zero as a structural nonzero,
    and these zeros nearly doubled the fill.  The CSC pattern and the slot
    of every entry are built on the first level (not at construction, so
    operator set-up does not pay for it), and each level then only sums
    its values into ``data``, every level sharing ``indices``/``indptr``.
    ``order`` is the column ordering of the first LU on that pattern,
    held for every later LU (None until the first).
    """

    def __init__(self, space: Space, a_const: sp.spmatrix, b_div: sp.spmatrix):
        self.space = space
        self.n_vel = a_const.shape[0]
        self.n = self.n_vel + b_div.shape[0]
        s = sp.bmat([[a_const, b_div.T], [b_div, None]], format="coo")
        self.constrained = saddle_constrained(space.dirichlet_dofs, self.n_vel)
        const_rows, const_cols, self.const_data, free = eliminated_entries(
            s, self.constrained)

        # convection entries of block (c, d), ordered (c, d, triangle, i, j)
        nt, ns = space.mesh.n_triangles, space.n_scalar
        base_r = np.broadcast_to(space.tri_p2[:, :, None], (nt, 6, 6)).ravel()
        base_c = np.broadcast_to(space.tri_p2[:, None, :], (nt, 6, 6)).ravel()
        shift = ns * np.arange(2)
        shape = (2, 2, base_r.size)
        rows = np.broadcast_to(base_r + shift[:, None, None], shape).ravel()
        cols = np.broadcast_to(base_c + shift[None, :, None], shape).ravel()
        self._conv_keep = np.flatnonzero(free[rows] & free[cols])
        self._rows = np.concatenate([const_rows, rows[self._conv_keep]])
        self._cols = np.concatenate([const_cols, cols[self._conv_keep]])
        self._pattern = None
        self.order: Ordering | None = None

    def _build_pattern(self):
        """CSC ``indices``/``indptr`` of the operator, the slot of each
        stored entry, and the reaction quadrature table."""
        n = self.n
        keys, slots = np.unique(self._cols.astype(np.int64) * n + self._rows,
                                return_inverse=True)
        indices = (keys % n).astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        r = self.space.rule5
        wphiphi = np.einsum("q,qi,qj->qij", r.w, r.phi, r.phi)
        self._pattern = indices, indptr, slots, wphiphi

    def matrix(self, y_level: np.ndarray) -> sp.csc_matrix:
        if self._pattern is None:
            self._build_pattern()
        indices, indptr, slots, wphiphi = self._pattern
        space = self.space
        gy = space.velocity_grad_at_quad(y_level, space.rule5)
        conv = np.einsum("tqcd,qij->cdtij", gy * space.det[:, None, None, None],
                         wphiphi, optimize=True)
        ce = fem.convection_scalar_block(space, y_level)
        conv[0, 0] += ce
        conv[1, 1] += ce
        values = np.concatenate([self.const_data,
                                 conv.reshape(-1)[self._conv_keep]])
        data = np.bincount(slots, weights=values, minlength=len(indices))
        return sp.csc_matrix((data, indices, indptr), shape=(self.n, self.n))


class LinearizedLevel:
    """The linearized saddle system of one direction-sweep level, with
    homogeneous data.

    ``fact`` is the LU of this level's ``matrix`` (``age`` 0) or the LU
    held from the level ``age`` steps back.  A held LU preconditions GMRES
    on this level's matrix (``linalg.krylov_solve``); a solve GMRES does
    not resolve factorizes the level after all, so the next levels hold
    its LU.  Every LU is made on the ``template``'s held ordering once it
    has one.  ``counts`` is the run's ``Operators.factorizations``.
    """

    def __init__(self, matrix: sp.csc_matrix, template: _LinearizedTemplate,
                 counts: Counter, held: LinearizedLevel | None = None):
        self.matrix = matrix
        self.template = template
        self.counts = counts
        if held is None or held.age + 1 == LU_LAG:
            self._factorize()
        else:
            self.fact, self.age = held.fact, held.age + 1

    def _factorize(self):
        t = self.template
        self.fact = Factorization.reusing(t.order, self.matrix, "linearized")
        t.order, self.age = self.fact.order, 0
        self.counts["linearized"] += 1

    def solve(self, load: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve for (velocity, multiplier) with momentum load and zero
        divergence rhs; constrained entries are zero."""
        n_vel, constrained = self.template.n_vel, self.template.constrained
        b = np.zeros(self.matrix.shape[0])
        b[:n_vel] = load
        b[constrained] = 0.0
        x = None
        # a non-finite load skips GMRES and propagates through the held LU,
        # as it does through a fresh one, to the outer divergence check
        if self.age and np.isfinite(b).all():
            x, iterations = krylov_solve(self.matrix, self.fact, b)
            self.counts["krylov_iterations"] += iterations
            if x is None:
                self._factorize()
        if x is None:
            x = self.fact.solve(b)
        if self.age:
            self.counts["lagged"] += 1
        x[constrained] = 0.0
        return x[:n_vel], x[n_vel:]


class Operators:
    """Assembled matrices and factorizations shared by all schemes.

    ``factorizations`` counts, per run, the LUs by label (heat, stokes,
    linearized), the direction-sweep levels solved by GMRES on a held LU
    (``lagged``) and their GMRES iterations (``krylov_iterations``).
    Every direction sweep adds N to ``linearized + lagged``.  Operators
    derived by ``with_nu`` share the counter.
    """

    def __init__(self, space: Space, grid: TimeGrid, nu: float):
        if nu <= 0:
            raise ValueError(f"viscosity must be positive, got {nu}")
        self.space = space
        self.grid = grid
        self.nu = nu
        self.M = fem.assemble_mass(space)
        self.K = fem.assemble_stiffness(space)
        self.B = fem.assemble_divergence(space)
        dt = grid.dt
        self.heat = saddle_factorization(self.M / dt + self.K, self.B,
                                         space.dirichlet_dofs, "heat")
        # K and M/dt + K share their pattern: the heat LU's symmetric
        # ordering serves the Stokes LU (a COLAMD fallback is not reused)
        heat_order = self.heat.fact.order
        self.stokes = saddle_factorization(
            self.K, self.B, space.dirichlet_dofs, "stokes",
            heat_order if heat_order.symmetric else None)
        self.factorizations = Counter(heat=1, stokes=1, linearized=0, lagged=0,
                                      krylov_iterations=0)
        self._template = _LinearizedTemplate(space, self.M / dt + nu * self.K, self.B)

    def with_nu(self, nu: float) -> "Operators":
        """Share assembled matrices and constant factorizations, swap nu."""
        other = object.__new__(Operators)
        other.__dict__.update(self.__dict__)
        other.nu = nu
        other._template = _LinearizedTemplate(
            self.space, self.M / self.grid.dt + nu * self.K, self.B)
        return other

    def linearized(self, y_level: np.ndarray,
                   held: LinearizedLevel | None = None) -> LinearizedLevel:
        """Linearized operator at ``y_level``, homogeneous data, assembled
        here for every level.  It is factorized afresh unless ``held``, the
        previous level of a direction sweep, holds an LU younger than
        ``LU_LAG`` levels, which it then reuses."""
        t = self._template
        return LinearizedLevel(t.matrix(y_level), t, self.factorizations, held)


def sweep(ops: Operators, loads: np.ndarray, y: FieldTrajectory | None = None,
          start: np.ndarray | None = None,
          values: np.ndarray | None = None) -> FieldTrajectory:
    """Backward-Euler sweep from ``start`` (zero when omitted).

    Level n+1 solves ``(M/dt + A) u^{n+1} + B^T lam = M u^n/dt + loads[n]``.
    ``A`` is the heat-type ``K``, with the time-constant Dirichlet data
    ``values`` on every level (homogeneous when omitted).  With ``y`` it
    is the Navier-Stokes operator linearized at ``y^{n+1}``, with
    homogeneous data: the direction sweep.  Its levels are factorized
    every ``LU_LAG`` levels, starting with the first, and the levels in
    between are solved by GMRES preconditioned with the held LU
    (``Operators.linearized``).  The held LU lives only for one sweep.
    """
    grid = ops.grid
    out = FieldTrajectory.zeros(grid, ops.space.n_velocity)
    if start is not None:
        out.values[0] = start
    level = out.values[0]
    lin = None
    for n in range(grid.N):
        rhs = ops.M @ level / grid.dt + loads[n]
        if y is None:
            level, _ = ops.heat.solve(rhs, values)
        else:
            lin = ops.linearized(y.values[n + 1], lin)
            level, _ = lin.solve(rhs)
        out.values[n + 1] = level
    return out


def lift(ops: Operators, loads: np.ndarray) -> np.ndarray:
    """Constrained Poisson lifts: row n is the velocity of the Stokes-type
    solve with momentum load ``loads[n]`` and homogeneous data."""
    out = np.zeros((ops.grid.N, ops.space.n_velocity))
    for n in range(ops.grid.N):
        out[n], _ = ops.stokes.solve(loads[n])
    return out


def steady_stokes_initial(ops: Operators, values: np.ndarray) -> np.ndarray:
    """Steady Stokes velocity with the given Dirichlet values.

    Solved with unit viscosity; with zero forcing the velocity does not
    depend on the viscosity (only the multiplier scales).
    """
    vel, _ = ops.stokes.solve(np.zeros(ops.space.n_velocity), values)
    return vel


def unsteady_stokes_initial_guess(
    ops: Operators, u0: np.ndarray, values: np.ndarray,
    loads: np.ndarray | None = None,
) -> FieldTrajectory:
    """Backward-Euler unsteady Stokes trajectory starting from u0.

    ``loads[n]`` is the momentum load of the step to level n+1 (zero when
    omitted).  ``values`` is the time-constant Dirichlet data, one entry
    per velocity Dirichlet dof, imposed on every level 1..N.
    """
    shape = (ops.grid.N, ops.space.n_velocity)
    if loads is None:
        loads = np.broadcast_to(np.zeros(shape[1]), shape)
    return sweep(ops, loads, start=u0, values=values)


def divergence_sup(ops: Operators, traj: FieldTrajectory) -> float:
    """Max over levels of ||B y^n||_inf, the discrete divergence defect."""
    return float(np.abs(ops.B @ traj.values.T).max(initial=0.0))
