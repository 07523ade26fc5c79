"""Backward-Euler drivers for the Stokes-type evolution problems.

Every scheme of the outer iteration steps one constrained system
``(M/dt + A) u^{n+1} + B^T lam = M u^n/dt + load`` forward in time
(``sweep``), and every Riesz lift solves one constant Stokes-type system
per interval, in blocks of intervals (``lift``).  Every matrix here is a
matrix of a ``linalg.SaddlePattern``.  The heat-type ``M/dt + K`` and
Stokes-type ``K`` operators share one pattern and are factorized once
per run, for every time level and outer iterate, together: each is a
fresh LU on its own, equal minimum-degree ordering, made side by side.
The linearized Navier-Stokes operator of the direction sweep has a
pattern of its own, shared by every viscosity.  A run's first linearized
LU computes its ordering, the second may be the fill rule's symmetric
trial (``Operators``), and every later one takes the ordering that
pattern holds.  The operator is assembled at every level;
``_direction_level`` decides which levels it is factorized on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import fem
from .fem import Space
from .linalg import SaddlePattern, krylov_solve

LU_LAG = 3  # a direction sweep factorizes every third level
LIFT_BLOCK = 32  # a Riesz lift solves at most this many levels per LU solve


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of N steps on [0, T]."""

    T: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be finite and positive, got {self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


def checked_viscosity(nu: float) -> float:
    """``nu`` if it is a finite positive viscosity, else ValueError."""
    if not (np.isfinite(nu) and nu > 0):
        raise ValueError(f"viscosity must be finite and positive, got {nu}")
    return nu


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


class _Convection:
    """Entries and values of the convection linearized at one level.

    The entries of block (c, d) come in (c, d, triangle, i, j) order.  The
    linearized ``pattern`` holds the velocity-block entries of the
    constant part ``M/dt + nu K`` first and these after them, so each
    stored entry sums its constant part first.  The pattern is built on
    the first linearized level, so operator set-up does not pay for it.
    Its pairs are the distinct scalar pairs of the elements in each of the
    four blocks, and every entry names its pair, so the build sorts the
    36 pairs of each triangle, not the entries of all four blocks.
    ``reference_nnz`` is the pattern's reference fill for the fill rule
    (``linalg.EliminatedPattern``).
    """

    def __init__(self, space: Space, M: sp.spmatrix, B: sp.spmatrix, reference_nnz: int):
        self.space, self._M, self._B = space, M, B
        self.reference_nnz = reference_nnz

    @cached_property
    def _wphiphi(self) -> np.ndarray:
        """Weighted ``phi_i phi_j`` at each quadrature point, (nq, 36)."""
        r = self.space.rule
        return (r.w[:, None, None] * r.phi[:, :, None]
                * r.phi[:, None, :]).reshape(len(r.w), -1)

    @cached_property
    def pattern(self) -> SaddlePattern:
        ns, tri = self.space.n_scalar, self.space.tri_p2
        # the scalar pairs (tri[t, i], tri[t, j]) of the elements, each once
        pairs, pair_of = np.unique((tri[:, None, :] * ns + tri[:, :, None]).ravel(),
                                   return_inverse=True)
        npairs = len(pairs)
        block = ns * np.arange(2, dtype=np.int32)[:, None]
        rows = np.broadcast_to(block[:, None] + (pairs % ns).astype(np.int32), (2, 2, npairs))
        cols = np.broadcast_to(block + (pairs // ns).astype(np.int32), (2, 2, npairs))
        # K and M/dt + nu K share the entries of M, the pairs of blocks (0, 0), (1, 1);
        # entry (c, d, t, i, j) is pair ``pair_of[t, i, j]`` of block 2c + d
        a = self._M.tocoo()
        at = np.searchsorted(pairs, a.col.astype(np.int64) % ns * ns + a.row % ns)
        entries = np.concatenate([
            at.astype(np.int32) + 3 * npairs * (a.row // ns),
            (npairs * np.arange(4, dtype=np.int32)[:, None] + pair_of.astype(np.int32)).ravel()])
        del a, at, pair_of  # the build peaks in SaddlePattern
        return SaddlePattern(rows.ravel(), cols.ravel(), self._B, self.space.dirichlet_dofs,
                             entries, self.reference_nnz)

    def values(self, y_level: np.ndarray) -> np.ndarray:
        """Entry values at ``y_level``: the reaction blocks
        ``int(d_d y_c phi_j phi_i)`` of all four (c, d), one matmul over
        the quadrature points, plus the convection block on (0, 0) and
        (1, 1)."""
        space = self.space
        gy = space.velocity_grad_at_quad(y_level)   # (t, q, c, d)
        weighted = np.empty((2, 2, *gy.shape[:2]))  # (c, d, t, q)
        np.multiply(gy.transpose(2, 3, 0, 1), space.det[:, None], out=weighted)
        conv = (weighted @ self._wphiphi).reshape(2, 2, len(space.det), 6, 6)
        ce = fem.convection_scalar_block(space, y_level)
        conv[0, 0] += ce
        conv[1, 1] += ce
        return conv.reshape(-1)


class Operators:
    """Assembled matrices and factorizations shared by all schemes.

    The heat LU (``M/dt + K``) and the Stokes LU (``K``) are made together
    on one saddle pattern (``linalg.SaddlePattern.factorize_all``), each a
    fresh LU on its own, equal minimum-degree ordering: the Stokes LU's
    SuperLU runs on a worker thread while the heat LU is made, and the
    worker ends before ``__init__`` returns.  The pattern then keeps only
    its saddle layout, and the space keeps no scalar matrix, only ``M``
    and ``K``.  The linearized operator has a pattern of its own, shared
    by every viscosity (``with_nu``), so every linearized LU after a run's
    first takes the ordering the pattern holds.  The heat LU's fill is that
    pattern's reference: a first linearized COLAMD LU that fills more
    than ``linalg.FILL_RATIO`` times as much makes the second LU try the
    symmetric ordering, and the smaller is held (``linalg`` fill rule).
    ``linearized_lu`` reports the held ordering and its fill.

    ``factorizations`` counts, per run, the LUs by label (heat, stokes,
    linearized) and the direction sweep's ``lagged`` levels and
    ``krylov_iterations`` (``_direction_level``).  Every direction sweep
    adds N to ``linearized + lagged``.  Operators derived by ``with_nu``
    share the counter.
    """

    def __init__(self, space: Space, grid: TimeGrid, nu: float):
        self.space = space
        self.grid = grid
        self.nu = checked_viscosity(nu)
        self.M = fem.assemble_mass(space)
        self.K = fem.assemble_stiffness(space)
        self.B = fem.assemble_divergence(space)
        # one scatter assembles M and K, so K has the entries of M
        a = self.M.tocoo()
        pattern = SaddlePattern(a.row, a.col, self.B, space.dirichlet_dofs)
        m_dt = (self.M / grid.dt).data
        self.heat, self.stokes = pattern.factorize_all(
            (pattern.values(m_dt + self.K.data), "heat"),
            (pattern.values(self.K.data), "stokes"))
        self.factorizations = Counter(heat=1, stokes=1, linearized=0, lagged=0,
                                      krylov_iterations=0)
        self._convection = _Convection(space, self.M, self.B, self.heat.fact.lu_nnz)
        self._a_values = m_dt + nu * self.K.data  # M/dt + nu K on the entries of M

    def with_nu(self, nu: float) -> "Operators":
        """Share assembled matrices, factorizations and the linearized
        pattern, swap nu (checked as ``__init__`` checks it)."""
        other = object.__new__(Operators)
        other.__dict__.update(self.__dict__)
        other.nu = checked_viscosity(nu)
        other._a_values = (self.M / self.grid.dt).data + nu * self.K.data
        return other

    @property
    def linearized_pattern(self) -> SaddlePattern:
        """Saddle pattern of the linearized operator, built on first use
        and shared by every viscosity."""
        return self._convection.pattern

    @property
    def linearized_lu(self) -> dict | None:
        """``ordering`` and ``lu_nnz`` of the LU whose ordering the
        linearized pattern holds; None before the run's first linearized
        LU."""
        pattern = self._convection.__dict__.get("pattern")  # None until first built
        if pattern is None or pattern.order is None:
            return None
        return {"ordering": pattern.order.name, "lu_nnz": pattern.lu_nnz}

    def linearized(self, y_level: np.ndarray) -> sp.csc_matrix:
        """Eliminated linearized operator at ``y_level``, a matrix of
        ``linearized_pattern``."""
        pattern = self.linearized_pattern
        return pattern.matrix(pattern.values(self._a_values,
                                             self._convection.values(y_level)))


def _direction_level(ops: Operators, y_level: np.ndarray, load: np.ndarray,
                     held: list) -> np.ndarray:
    """Velocity of one direction-sweep level, the system linearized at
    ``y_level`` with momentum ``load`` and homogeneous data.  ``held`` is
    the sweep's store for the ``(LU, age)`` that passes from level to
    level, empty before the first: the level takes it out while it runs
    and puts its own back.

    The sweep's LU cadence: a level is factorized when nothing is held or
    the held LU would be ``LU_LAG`` levels old (levels 1, 1 + LU_LAG, ...),
    and otherwise solved by GMRES on its own matrix, right-preconditioned
    with the held LU (``linalg.krylov_solve``).  A solve GMRES does not
    resolve factorizes its level after all and restarts the cadence.  A
    non-finite load skips GMRES and propagates through the held LU, as
    through a fresh one, to the outer divergence check.  A level counts
    one ``linearized`` or ``lagged``, and GMRES its ``krylov_iterations``.

    One linearized LU is alive at a time: the held LU is released before
    a level is factorized, on the cadence and after a rejected GMRES
    solve alike.  This holds because nothing but this function refers to
    the held LU while it runs.
    """
    pattern = ops.linearized_pattern
    matrix = ops.linearized(y_level)
    fact, age = held.pop() if held else (None, -1)
    age = (age + 1) % LU_LAG  # 0: this level is factorized

    def solve(b):
        nonlocal fact, age
        x = None
        if age and np.isfinite(b).all():
            x, iterations = krylov_solve(matrix, fact, b)
            ops.factorizations["krylov_iterations"] += iterations
            age = 0 if x is None else age
        if not age:
            fact = None  # release the held LU before SuperLU makes the next
            fact = pattern.factorize(matrix, "linearized")
        ops.factorizations["lagged" if age else "linearized"] += 1
        return fact.solve(b) if x is None else x

    level, _ = pattern.solve(solve, load)
    held.append((fact, age))
    return level


def sweep(ops: Operators, loads: np.ndarray, y: FieldTrajectory | None = None,
          start: np.ndarray | None = None,
          values: np.ndarray | None = None) -> FieldTrajectory:
    """Backward-Euler sweep from ``start`` (zero when omitted).

    Level n+1 solves ``(M/dt + A) u^{n+1} + B^T lam = M u^n/dt + loads[n]``.
    ``A`` is the heat-type ``K``, with the time-constant Dirichlet data
    ``values`` on every level (homogeneous when omitted).  With ``y`` it
    is the Navier-Stokes operator linearized at ``y^{n+1}``, with
    homogeneous data: the direction sweep, whose levels factorize or reuse
    an LU as ``_direction_level`` decides.  The held LU lives only for one
    sweep, and at most one linearized LU is alive at a time: between
    levels the sweep keeps it in a store that each level empties while it
    runs, so no reference of the sweep's keeps it alive.
    """
    grid = ops.grid
    out = FieldTrajectory.zeros(grid, ops.space.n_velocity)
    if start is not None:
        out.values[0] = start
    level = out.values[0]
    held = []
    for n in range(grid.N):
        rhs = ops.M @ level / grid.dt + loads[n]
        if y is None:
            level, _ = ops.heat.solve(rhs, values)
        else:
            level = _direction_level(ops, y.values[n + 1], rhs, held)
        out.values[n + 1] = level
    return out


def lift(ops: Operators, loads: np.ndarray) -> np.ndarray:
    """Constrained Poisson lifts: row n is the velocity of the Stokes-type
    solve with momentum load ``loads[n]`` and homogeneous data.  The
    levels are solved in blocks of at most ``LIFT_BLOCK``, one LU solve
    per block, which bounds the block's saddle-sized temporaries."""
    out = np.empty((ops.grid.N, ops.space.n_velocity))
    for n in range(0, ops.grid.N, LIFT_BLOCK):
        out[n:n + LIFT_BLOCK], _ = ops.stokes.solve(loads[n:n + LIFT_BLOCK])
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
