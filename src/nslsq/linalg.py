"""Sparse saddle-point systems, direct LU solves with residual checks,
and GMRES preconditioned with the LU of a nearby matrix.

Every LU is made by ``Factorization``, with one ordering rule: a matrix
equal to its transpose (the heat, Stokes and stream operators after the
symmetric Dirichlet elimination) is ordered by minimum degree on
``A + A^T`` with diagonal pivots (SuperLU's symmetric mode); any other
matrix (the linearized operator, whose convection is unsymmetric) keeps
COLAMD with partial pivoting, which fills it less.  The diagonal pivot
threshold ``DIAG_PIVOT_THRESH`` is small, so the symmetric ordering
survives pivoting, but not zero: at zero a tiny nonzero diagonal is
taken as the pivot however large its column.

Every solve is verified against the relative residual contract
``||Ax - b||_inf <= 1e-8 (1 + ||b||_inf)``; a single step of iterative
refinement is attempted on marginal failures, anything past 1e-6 is a
hard error.  Dirichlet values enter per solve, never through the
factorization, so one LU serves every boundary datum.  How often a run
factorizes is counted by its owner (``timestepping.Operators``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RESIDUAL_TOL = 1e-8
RESIDUAL_HARD = 1e-6
KRYLOV_RTOL = 1e-13
KRYLOV_RESTART = 20
KRYLOV_CYCLES = 3
DIAG_PIVOT_THRESH = 1e-6  # symmetric path: off-diagonal pivot only below this


class SolverError(RuntimeError):
    pass


class Factorization:
    """Reusable sparse LU of a square matrix (SuperLU).

    An exactly symmetric matrix is ordered by minimum degree on
    ``A + A^T`` and pivots on the diagonal unless the diagonal entry is
    below ``DIAG_PIVOT_THRESH`` times its column's largest entry (an exact
    zero, as in a pressure block, always pivots off the diagonal).  Any
    other matrix is ordered by COLAMD with partial pivoting, and so is a
    symmetric one whose symmetric LU meets an exactly zero pivot: a
    saddle matrix that is singular in exact arithmetic (a rank-deficient
    multiplier block) then factorizes through a roundoff-sized COLAMD
    pivot, or is reported singular, as before the symmetric ordering.
    ``ordering`` (``"mmd-sym"`` or ``"colamd"``) and ``lu_nnz`` record
    which LU was made.  ``lu_nnz`` is the number of entries SuperLU stores
    for ``L`` and ``U`` (its ``nnz``); reading the ``L`` or ``U``
    attribute instead would make SciPy build and keep CSC copies of both
    factors.  The residual contract of every ``solve`` guards the
    diagonal pivots.
    """

    def __init__(self, matrix: sp.spmatrix, label: str = "unlabeled"):
        self.matrix = matrix.tocsc()
        self.n = self.matrix.shape[0]
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise SolverError(f"matrix not square: {self.matrix.shape}")
        if not np.isfinite(self.matrix.data).all():
            raise SolverError(f"non-finite matrix entries ({label})")
        self.ordering = "colamd"
        if abs(self.matrix - self.matrix.T).max() == 0:
            try:
                self._lu = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A",
                                     diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                     options=dict(SymmetricMode=True))
                self.ordering = "mmd-sym"
            except RuntimeError:
                pass  # an exactly zero pivot: COLAMD decides, as for any matrix
        if self.ordering == "colamd":
            try:
                self._lu = spla.splu(self.matrix)
            except RuntimeError as exc:
                raise SolverError(
                    f"singular matrix ({label}): {exc}; a singular saddle system "
                    "usually means a missing pressure pin or empty Dirichlet set"
                ) from exc
        self.lu_nnz = self._lu.nnz

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


def krylov_solve(matrix: sp.spmatrix, fact: Factorization,
                 b: np.ndarray) -> tuple[np.ndarray | None, int]:
    """GMRES on ``matrix x = b`` preconditioned with ``fact``, the LU of a
    nearby matrix, starting from that LU's solution.

    Returns ``(x, iterations)``, with ``x`` None unless GMRES converged and
    the true residual meets ``||b - Ax||_2 <= KRYLOV_RTOL ||b||_2`` as well
    as the solve contract.  The relative test is what holds the answer:
    the loads of a Newton direction shrink with the defect, and at loads
    near 1e-8 the contract's ``1 +`` floor accepts a relative error near 1.
    """
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    lu_solve = fact._lu.solve
    precond = spla.LinearOperator(matrix.shape, matvec=lu_solve, dtype=np.float64)
    x, info = spla.gmres(matrix, b, x0=lu_solve(b), rtol=KRYLOV_RTOL, atol=0.0,
                         restart=KRYLOV_RESTART, maxiter=KRYLOV_CYCLES, M=precond,
                         callback=count, callback_type="pr_norm")
    res = b - matrix @ x
    accepted = (info == 0
                and np.linalg.norm(res) <= KRYLOV_RTOL * np.linalg.norm(b)
                and np.abs(res).max() <= RESIDUAL_TOL * (1.0 + np.abs(b).max()))
    return (x if accepted else None), iterations


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
    """LU of an eliminated saddle matrix.  Each solve takes the momentum
    load and one vector of Dirichlet values aligned with the velocity
    Dirichlet dofs (zero when omitted); ``coupling`` carries the values
    into the free rows.
    """

    def __init__(self, matrix: sp.spmatrix, n_vel: int, constrained: np.ndarray,
                 label: str, coupling: sp.spmatrix):
        self.n_vel = n_vel
        self.constrained = constrained
        self.coupling = coupling
        self.fact = Factorization(matrix, label=label)

    def solve(
        self, load: np.ndarray, values: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve for (velocity, multiplier) with momentum load and zero
        divergence rhs; constrained entries are set exactly."""
        cvals = (np.zeros(len(self.constrained)) if values is None
                 else np.append(values, 0.0))
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


def saddle_factorization(A: sp.spmatrix, B: sp.spmatrix, dirichlet_dofs: np.ndarray,
                         label: str) -> SaddleFactorization:
    """Factorize the block system [[A, B^T], [B, 0]] with the velocity
    Dirichlet dofs eliminated and the first pressure dof pinned to zero
    (removing the constant-pressure nullspace)."""
    n_vel = A.shape[0]
    s_full = sp.bmat([[A, B.T], [B, None]], format="coo")
    constrained = saddle_constrained(dirichlet_dofs, n_vel)
    matrix, coupling = eliminate_dirichlet(s_full, constrained)
    return SaddleFactorization(matrix, n_vel, constrained, label, coupling)
