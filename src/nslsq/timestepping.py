"""Backward-Euler drivers for the Stokes-type evolution problems.

Every scheme of the outer iteration steps one constrained system
``(M/dt + A) u^{n+1} + B^T lam = M u^n/dt + load`` forward in time
(``sweep``), and every Riesz lift solves one constant Stokes-type system
per interval (``lift``).  The constant-coefficient operators (heat type
``M/dt + K`` and Stokes type ``K``) are factorized once per run and
reused across every time level and outer iterate, while the linearized
Navier-Stokes operator is re-factorized at each level through a prebuilt
sparsity template.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .fem import Space
from .linalg import (
    SaddleFactorization,
    SaddleSystem,
    eliminated_entries,
    factorize,
    saddle_constrained,
)


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
    """Fixed sparsity pattern of the linearized saddle operator.

    The constant part (M/dt + nu*K, divergence blocks, Dirichlet identity
    rows, eliminated as in ``linalg.eliminate_dirichlet``) and the
    positions of the convection entries are prepared once; each time
    level only recomputes the convection values.
    """

    def __init__(self, space: Space, a_const: sp.spmatrix, b_div: sp.spmatrix):
        self.space = space
        n_vel = a_const.shape[0]
        self.n = n_vel + b_div.shape[0]
        s = sp.bmat([[a_const, b_div.T], [b_div, None]], format="coo")
        self.constrained = saddle_constrained(space.dirichlet_dofs, n_vel)
        const_rows, const_cols, self.const_data, free = eliminated_entries(
            s, self.constrained)

        nt, ns = space.mesh.n_triangles, space.n_scalar
        base_r = np.broadcast_to(space.tri_p2[:, :, None], (nt, 6, 6)).ravel()
        base_c = np.broadcast_to(space.tri_p2[:, None, :], (nt, 6, 6)).ravel()
        rows = [base_r, base_r + ns]
        cols = [base_c, base_c + ns]
        for c in range(2):
            for d in range(2):
                rows.append(base_r + c * ns)
                cols.append(base_c + d * ns)
        conv_rows = np.concatenate(rows)
        conv_cols = np.concatenate(cols)
        self.conv_mask = (free[conv_rows] & free[conv_cols]).astype(np.float64)
        self.rows = np.concatenate([const_rows, conv_rows])
        self.cols = np.concatenate([const_cols, conv_cols])

    def matrix(self, y_level: np.ndarray) -> sp.csc_matrix:
        space = self.space
        r = space.rule5
        ce = fem.convection_scalar_block(space, y_level).ravel()
        gy = space.velocity_grad_at_quad(y_level, r)
        parts = [ce, ce]
        for c in range(2):
            for d in range(2):
                parts.append(np.einsum("t,q,qi,qj,tq->tij", space.det, r.w,
                                       r.phi, r.phi, gy[:, :, c, d]).ravel())
        conv_data = np.concatenate(parts) * self.conv_mask
        data = np.concatenate([self.const_data, conv_data])
        return sp.coo_matrix((data, (self.rows, self.cols)),
                             shape=(self.n, self.n)).tocsc()


class Operators:
    """Assembled matrices and factorizations shared by all schemes."""

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
        self.heat = factorize(SaddleSystem(
            self.M / dt + self.K, self.B, space.dirichlet_dofs, label="heat"))
        self.stokes = factorize(SaddleSystem(
            self.K, self.B, space.dirichlet_dofs, label="stokes"))
        self._template = _LinearizedTemplate(space, self.M / dt + nu * self.K, self.B)

    def with_nu(self, nu: float) -> "Operators":
        """Share assembled matrices and constant factorizations, swap nu."""
        other = object.__new__(Operators)
        other.__dict__.update(self.__dict__)
        other.nu = nu
        other._template = _LinearizedTemplate(
            self.space, self.M / self.grid.dt + nu * self.K, self.B)
        return other

    def linearized(self, y_level: np.ndarray) -> SaddleFactorization:
        """Factorized linearized operator at ``y_level``, homogeneous data."""
        t = self._template
        return SaddleFactorization(t.matrix(y_level), self.space.n_velocity,
                                   t.constrained, "linearized")


def sweep(ops: Operators, loads: np.ndarray, y: FieldTrajectory | None = None,
          start: np.ndarray | None = None,
          values: np.ndarray | None = None) -> FieldTrajectory:
    """Backward-Euler sweep from ``start`` (zero when omitted).

    Level n+1 solves ``(M/dt + A) u^{n+1} + B^T lam = M u^n/dt + loads[n]``
    with Dirichlet data ``values[n]`` (homogeneous when omitted).  ``A`` is
    the heat-type ``K``, or with ``y`` the Navier-Stokes operator
    linearized at ``y^{n+1}``.
    """
    grid = ops.grid
    out = FieldTrajectory.zeros(grid, ops.space.n_velocity)
    if start is not None:
        out.values[0] = start
    level = out.values[0]
    for n in range(grid.N):
        fact = ops.heat if y is None else ops.linearized(y.values[n + 1])
        level, _ = fact.solve(ops.M @ level / grid.dt + loads[n],
                              None if values is None else values[n])
        out.values[n + 1] = level
    return out


def lift(ops: Operators, loads: np.ndarray) -> np.ndarray:
    """Constrained Poisson lifts: row n is the velocity of the Stokes-type
    solve with momentum load ``loads[n]`` and homogeneous data."""
    out = np.zeros((ops.grid.N, ops.space.n_velocity))
    for n in range(ops.grid.N):
        out[n], _ = ops.stokes.solve(loads[n])
    return out


def steady_stokes_initial(ops: Operators, values: np.ndarray,
                          load: np.ndarray | None = None) -> np.ndarray:
    """Steady Stokes velocity with the given Dirichlet values.

    Solved with unit viscosity; with zero forcing the velocity does not
    depend on the viscosity (only the multiplier scales).
    """
    if load is None:
        load = np.zeros(ops.space.n_velocity)
    vel, _ = ops.stokes.solve(load, values)
    return vel


def unsteady_stokes_initial_guess(
    ops: Operators, u0: np.ndarray, values: np.ndarray,
    loads: np.ndarray | None = None,
) -> FieldTrajectory:
    """Backward-Euler unsteady Stokes trajectory starting from u0.

    ``loads[n]`` is the momentum load of the step to level n+1 (zero when
    omitted).  ``values`` is the Dirichlet data: one vector for
    time-constant boundaries (the experiments) or an (N, n_constrained)
    array with one row per step.
    """
    shape = (ops.grid.N, ops.space.n_velocity)
    if loads is None:
        loads = np.broadcast_to(np.zeros(shape[1]), shape)
    values = np.broadcast_to(values, (ops.grid.N, np.shape(values)[-1]))
    return sweep(ops, loads, start=u0, values=values)


def divergence_sup(ops: Operators, traj: FieldTrajectory) -> float:
    """Max over levels of ||B y^n||_inf, the discrete divergence defect."""
    return float(np.abs(ops.B @ traj.values.T).max(initial=0.0))
