"""Sparse saddle-point systems and direct LU solves with residual checks.

Every solve is verified against the relative residual contract
``||Ax - b||_inf <= 1e-8 (1 + ||b||_inf)``; a single step of iterative
refinement is attempted on marginal failures, anything past 1e-6 is a
hard error.  Factorizations are counted per label so tests can assert
that constant-coefficient operators are factorized exactly once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RESIDUAL_TOL = 1e-8
RESIDUAL_HARD = 1e-6

factorization_counts: dict[str, int] = {}


class SolverError(RuntimeError):
    pass


def reset_factorization_counts():
    factorization_counts.clear()


class Factorization:
    """Reusable sparse LU of a square matrix (SuperLU, COLAMD ordering)."""

    def __init__(self, matrix: sp.spmatrix, label: str = "unlabeled"):
        self.matrix = matrix.tocsc()
        self.n = self.matrix.shape[0]
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise SolverError(f"matrix not square: {self.matrix.shape}")
        if not np.isfinite(self.matrix.data).all():
            raise SolverError(f"non-finite matrix entries ({label})")
        try:
            self._lu = spla.splu(self.matrix)
        except RuntimeError as exc:
            raise SolverError(
                f"singular matrix ({label}): {exc}; a singular saddle system "
                "usually means a missing pressure pin or empty Dirichlet set"
            ) from exc
        factorization_counts[label] = factorization_counts.get(label, 0) + 1

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.n,):
            raise SolverError(f"rhs shape {b.shape} incompatible with n={self.n}")
        x = self._lu.solve(b)
        if not np.isfinite(b).all():
            return x  # divergence in the outer iteration propagates to its detector
        nb = np.abs(b).max(initial=0.0)
        res = np.abs(b - self.matrix @ x).max(initial=0.0)
        if res > RESIDUAL_TOL * (1.0 + nb):
            x = x + self._lu.solve(b - self.matrix @ x)
            res = np.abs(b - self.matrix @ x).max(initial=0.0)
            if res > RESIDUAL_HARD * (1.0 + nb):
                raise SolverError(
                    f"solve residual {res:.3e} exceeds {RESIDUAL_HARD:.0e}*(1+||b||)")
        return x


@dataclass(frozen=True)
class SaddleSystem:
    """Block system [[A, B^T], [B, 0]] with velocity Dirichlet constraints.

    ``dirichlet_values`` (aligned with ``dirichlet_dofs``) default to zero;
    set them through ``apply_dirichlet``.  The first pressure dof is pinned
    to zero to remove the constant-pressure nullspace.
    """

    A: sp.spmatrix
    B: sp.spmatrix
    dirichlet_dofs: np.ndarray
    dirichlet_values: np.ndarray | None = None
    label: str = "saddle"


def apply_dirichlet(system: SaddleSystem, values: np.ndarray) -> SaddleSystem:
    """Attach boundary values; the elimination happens at factorization."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(system.dirichlet_dofs),):
        raise SolverError(
            f"need one boundary value per constrained dof: expected "
            f"{len(system.dirichlet_dofs)}, got {values.shape}")
    if not np.isfinite(values).all():
        raise SolverError("non-finite Dirichlet value")
    return replace(system, dirichlet_values=values)


def eliminated_entries(coo: sp.coo_matrix, constrained: np.ndarray):
    """COO entries of the symmetric elimination of the constrained dofs.

    Returns ``(rows, cols, data, free)``: the free-free entries in their
    original order followed by a unit diagonal on the constrained dofs,
    and the mask of free dofs.
    """
    free = np.ones(coo.shape[0], dtype=bool)
    free[constrained] = False
    keep = free[coo.row] & free[coo.col]
    rows = np.concatenate([coo.row[keep], constrained])
    cols = np.concatenate([coo.col[keep], constrained])
    data = np.concatenate([coo.data[keep], np.ones(len(constrained))])
    return rows, cols, data, free


def eliminate_dirichlet(
    matrix: sp.spmatrix, constrained: np.ndarray
) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """Symmetric elimination of the constrained dofs of a square matrix.

    Returns the eliminated matrix (identity on constrained rows/columns)
    and the coupling matrix mapping constrained values to the rhs
    correction of the free rows.
    """
    n = matrix.shape[0]
    coo = matrix.tocoo()
    rows, cols, data, free = eliminated_entries(coo, constrained)
    eliminated = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()

    pos = np.full(n, -1, dtype=np.int64)
    pos[constrained] = np.arange(len(constrained))
    cpl = free[coo.row] & ~free[coo.col]
    coupling = sp.coo_matrix(
        (coo.data[cpl], (coo.row[cpl], pos[coo.col[cpl]])),
        shape=(n, len(constrained))).tocsr()
    return eliminated, coupling


class SaddleFactorization:
    """LU of an eliminated saddle matrix; solves take the momentum load and
    optional per-solve Dirichlet values (defaulting to ``default_values``).

    Without a ``coupling`` matrix the data are homogeneous: every solve
    has zero Dirichlet values.
    """

    def __init__(self, matrix: sp.spmatrix, n_vel: int, constrained: np.ndarray,
                 label: str, coupling: sp.spmatrix | None = None,
                 default_values: np.ndarray | None = None):
        self.n_vel = n_vel
        self.constrained = constrained
        self.coupling = coupling
        self.fact = Factorization(matrix, label=label)
        self.default_values = (np.zeros(len(constrained)) if default_values is None
                               else default_values)

    def solve(
        self, load: np.ndarray, values: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve for (velocity, multiplier) with momentum load and zero
        divergence rhs; constrained entries are set exactly."""
        cvals = self.default_values if values is None else np.append(values, 0.0)
        b = np.zeros(self.fact.n)
        b[: self.n_vel] = load
        if cvals.any():
            b -= self.coupling @ cvals
        b[self.constrained] = cvals
        x = self.fact.solve(b)
        x[self.constrained] = cvals
        return x[: self.n_vel], x[self.n_vel:]


def saddle_constrained(dirichlet_dofs: np.ndarray, n_vel: int) -> np.ndarray:
    """Constrained unknowns of a saddle system: the Dirichlet velocity dofs
    and the pinned first pressure dof."""
    return np.concatenate([dirichlet_dofs, [n_vel]]).astype(np.int64)


def factorize(system: SaddleSystem | sp.spmatrix, label: str | None = None):
    """Factorize a saddle system (-> SaddleFactorization) or a plain square
    sparse matrix (-> Factorization)."""
    if not isinstance(system, SaddleSystem):
        return Factorization(system, label=label or "unlabeled")
    n_vel = system.A.shape[0]
    s_full = sp.bmat([[system.A, system.B.T], [system.B, None]], format="coo")
    constrained = saddle_constrained(system.dirichlet_dofs, n_vel)
    matrix, coupling = eliminate_dirichlet(s_full, constrained)
    values = (None if system.dirichlet_values is None
              else np.append(system.dirichlet_values, 0.0))
    return SaddleFactorization(matrix, n_vel, constrained, label or system.label,
                               coupling, values)
