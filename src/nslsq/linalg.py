"""Sparse saddle-point systems, direct LU solves with residual checks,
and GMRES preconditioned with the LU of a nearby matrix.

Every eliminated matrix is a matrix of an ``EliminatedPattern``, which
eliminates the constrained dofs once; a ``SaddlePattern`` also lays out
the saddle right-hand side and solution.  An ordering depends only on
the sparsity pattern, so every LU a pattern makes after its first
(``EliminatedPattern.factorize``) takes its ordering.  A pattern's first
LU (``Factorization``, ``fresh_lu``) orders a matrix equal to its
transpose (heat, Stokes, stream) by minimum degree on ``A + A^T`` with
diagonal pivots, and any other (the linearized operator) by COLAMD with
partial pivoting, which on the semi-disk fills it less.
A pattern whose first matrices are known at once makes their LUs side
by side (``SaddlePattern.factorize_all``): the heat and Stokes LUs
are each a fresh LU of its own matrix, the Stokes LU's SuperLU on a
worker thread while the calling thread makes the heat LU (SciPy's
``splu`` releases the GIL).  Minimum degree reads the structure alone,
so the two get equal orderings; that pattern makes no other LU and
holds no ordering.  Whether a matrix equals its transpose
is decided on one transposed copy (``exactly_symmetric``), as
``abs(A - A.T).max() == 0`` decides it.
``DIAG_PIVOT_THRESH`` is small, so the symmetric ordering survives
pivoting, but not zero: at zero a tiny nonzero diagonal is taken as the
pivot however large its column.

A held symmetric ordering permutes rows and columns alike.  A held
symmetric LU orders its matrix by one gather of its ordered CSC
(``symmetric_layout``: ``gather``, the position in ``data`` of each
ordered entry, with the ordered ``indices`` and ``indptr``, columns
sorted), and SuperLU receives the array that row and column indexing and
SciPy's sort of every column would give it.  An ordering is laid out at
its first held LU and keeps the layout (8 bytes per stored entry) for
every later one.  A held COLAMD ordering permutes columns only, and
SciPy's column gather already returns sorted columns, so it has no
layout.

The fill rule: on the unit square COLAMD fills the linearized operator
more than twice as much as minimum degree on ``A + A^T`` does.  A
pattern given the fill of a reference LU (the linearized pattern: the
run's heat LU, the symmetric LU of a sub-pattern on the same dofs) whose
first LU was COLAMD and holds more than ``FILL_RATIO`` times that fill
makes its second LU afresh on the symmetric path, once, and holds
whichever ordering gave the smaller LU.  No LU is added: the trial is an
LU the pattern's owner asked for.

Every solve is verified against the relative residual contract
``||Ax - b||_inf <= 1e-8 (1 + ||b||_inf)``; a single step of iterative
refinement is attempted on marginal failures, anything past 1e-6 is a
hard error.  A solve takes one right-hand side or a block of them (one
SuperLU call for all), and the contract holds per column: refinement
solves only the failing columns, and any column past 1e-6 raises.  The
Riesz lifts (``timestepping.lift``) solve blocks of time levels this
way.  Dirichlet values enter per solve, never through the
factorization, so one LU serves every boundary datum.  How often a run
factorizes is counted by its owner (``timestepping.Operators``).
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RESIDUAL_TOL = 1e-8
RESIDUAL_HARD = 1e-6
KRYLOV_RTOL = 1e-13
KRYLOV_RESTART = 20
KRYLOV_CYCLES = 3
DIAG_PIVOT_THRESH = 1e-6  # symmetric path: off-diagonal pivot only below this
FILL_RATIO = 2  # a COLAMD LU past this times its pattern's reference fill tries MMD


class SolverError(RuntimeError):
    pass


@dataclass(eq=False)
class Ordering:
    """The fill-reducing ordering of one LU, for later LUs of its pattern.

    Column ``j`` of the ordered matrix is column ``columns[j]`` of the
    matrix (``columns`` inverts SuperLU's ``perm_c``).  ``name`` is the
    ordering that made it (``"colamd"`` or ``"mmd-sym"``); a symmetric
    ordering permutes the rows the same way, so the diagonal stays on the
    diagonal for SuperLU's diagonal pivots.  ``layout`` is the ordered
    CSC of a symmetric ordering's pattern (``symmetric_layout``), attached
    at its first held LU; None before it and for COLAMD.
    """

    name: str
    columns: np.ndarray
    layout: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def symmetric(self) -> bool:
        return self.name == "mmd-sym"


def symmetric_layout(matrix: sp.csc_matrix, columns: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gather, indices, indptr)`` of ``matrix[columns][:, columns]`` in
    CSC with sorted columns: its stored entry ``k`` is entry ``gather[k]``
    of ``matrix.data``, so every matrix of the same CSC layout is ordered
    by one gather.  Laid out from a numbered copy of ``matrix``."""
    numbered = sp.csc_matrix((np.arange(matrix.nnz, dtype=np.int32), matrix.indices,
                              matrix.indptr), shape=matrix.shape)
    ordered = numbered[columns][:, columns]
    ordered.sort_indices()
    return ordered.data, ordered.indices, ordered.indptr


def exactly_symmetric(matrix: sp.csc_matrix) -> bool:
    """Whether ``abs(A - A.T).max() == 0``, from one transposed copy: a
    canonical ``matrix`` whose transpose stores the same entries is
    symmetric when their data are equal, entry by entry; when the two
    structures differ (explicit zeros facing no entry) the expression
    itself decides."""
    transposed = matrix.T.tocsc()
    if (matrix.has_canonical_format and np.array_equal(matrix.indptr, transposed.indptr)
            and np.array_equal(matrix.indices, transposed.indices)):
        return np.array_equal(matrix.data, transposed.data)
    return abs(matrix - transposed).max() == 0


def checked(matrix: sp.spmatrix, label: str) -> sp.csc_matrix:
    """``matrix`` in CSC, once it is known to be square with finite
    entries: the checks every LU makes before SuperLU."""
    matrix = matrix.tocsc()
    if matrix.shape[0] != matrix.shape[1]:
        raise SolverError(f"matrix not square: {matrix.shape}")
    if not np.isfinite(matrix.data).all():
        raise SolverError(f"non-finite matrix entries ({label})")
    return matrix


def fresh_lu(matrix: sp.csc_matrix, label: str,
             symmetric: bool | None = None) -> tuple[spla.SuperLU, str]:
    """``(SuperLU, ordering)`` of a ``checked`` matrix on an ordering of its
    own: ``"mmd-sym"``, minimum degree on ``A + A^T`` with diagonal pivots,
    when ``symmetric`` (by default, when the matrix equals its transpose:
    ``exactly_symmetric``), else, or when that LU meets an exactly zero
    pivot, ``"colamd"`` with partial pivoting; a matrix COLAMD finds
    singular raises ``SolverError``.  Given ``symmetric``, it runs SuperLU
    alone, which releases the GIL, so it runs on a worker thread as well
    (``SaddlePattern.factorize_all``)."""
    if exactly_symmetric(matrix) if symmetric is None else symmetric:
        try:
            return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=DIAG_PIVOT_THRESH,
                             options=dict(SymmetricMode=True)), "mmd-sym"
        except RuntimeError:
            pass  # an exactly zero pivot: COLAMD decides, as for any matrix
    try:
        return spla.splu(matrix), "colamd"
    except RuntimeError as exc:
        raise SolverError(
            f"singular matrix ({label}): {exc}; a singular saddle system "
            "usually means a missing pressure pin or empty Dirichlet set"
        ) from exc


class _OrderedLU:
    """SuperLU of a matrix with its columns (and, for a symmetric ordering,
    its rows) permuted; ``solve`` takes and returns vectors, or blocks of
    columns, in the order of the unpermuted matrix, like the SuperLU of a
    fresh ``Factorization``."""

    def __init__(self, lu, order: Ordering):
        self.lu = lu
        self.order = order

    def solve(self, b: np.ndarray) -> np.ndarray:
        q = self.order.columns
        x = np.empty_like(b)
        x[q] = self.lu.solve(b[q] if self.order.symmetric else b)
        return x


class Factorization:
    """Reusable sparse LU of a square matrix (SuperLU).

    An exactly symmetric matrix (``exactly_symmetric``: equal to its
    transpose, tested on one transposed copy) is ordered by minimum
    degree on ``A + A^T`` and pivots on the diagonal unless the diagonal
    entry is below ``DIAG_PIVOT_THRESH`` times its column's largest entry
    (an exact zero, as in a pressure block, always pivots off the
    diagonal).  Any
    other matrix is ordered by COLAMD with partial pivoting, and so is a
    symmetric one whose symmetric LU meets an exactly zero pivot.  A
    saddle matrix with more unpinned multipliers than free velocities is
    singular and never reaches an LU (``SaddlePattern`` raises); one whose
    multiplier block is rank-deficient otherwise factorizes through a
    roundoff-sized COLAMD pivot or is reported singular, as the pivots
    fall.
    ``Factorization.symmetric(matrix, label)`` takes the symmetric path
    whatever the matrix's values.  The fill rule uses it: a pattern whose
    first, COLAMD LU fills more than ``FILL_RATIO`` times its reference
    makes its second LU this way and keeps the smaller
    (``EliminatedPattern.factorize``).

    ``Factorization.reusing(order, matrix, label)`` factorizes ``matrix``
    on the ``order`` of an earlier LU of the same sparsity pattern (which
    its ``EliminatedPattern`` holds), with that LU's pivoting rule, and
    skips the ordering and the symmetry test: it factorizes the ordered
    matrix in SuperLU's natural order and permutes every solve around it.
    A symmetric ``order`` orders the matrix by the gather of its
    ``layout``, which the ordering's first held LU lays out from its own
    matrix and attaches, so every matrix held on one ordering must be a
    matrix of one pattern.
    If that LU meets an exactly zero pivot, the matrix is factorized
    afresh.  The held ordering reaches ``__init__`` through the ``held``
    attribute, the symmetric path through ``symmetric_path``, and a fresh
    LU that a worker thread is making (``fresh_lu``, started by
    ``SaddlePattern.factorize_all``) through ``made``, the future
    ``__init__`` waits on, so that every LU is made by the one
    ``__init__(matrix, label)``, on the calling thread.

    ``ordering`` (``"mmd-sym"`` or ``"colamd"``, also for a held ordering)
    and ``lu_nnz`` record which LU was made, and ``order`` is its
    ``Ordering``.  ``lu_nnz`` is the number of entries SuperLU stores for
    ``L`` and ``U`` (its ``nnz``); reading the ``L`` or ``U`` attribute
    instead would make SciPy build and keep CSC copies of both factors.
    The residual contract of every ``solve`` guards the diagonal pivots.
    """

    held: Ordering | None = None  # set by ``reusing`` before ``__init__`` runs
    symmetric_path = False  # set by ``symmetric`` likewise
    made: Future | None = None  # set by ``SaddlePattern.factorize_all`` likewise

    def __init__(self, matrix: sp.spmatrix, label: str = "unlabeled"):
        self.matrix = checked(matrix, label)
        self.n = self.matrix.shape[0]
        lu = None if self.held is None else self._factorize_held(self.held)
        if lu is None:
            lu, self.ordering = (fresh_lu(self.matrix, label, self.symmetric_path or None)
                                 if self.made is None else self.made.result())
            self._lu = lu
            columns = np.empty(self.n, dtype=np.intp)
            columns[lu.perm_c] = np.arange(self.n)
            self.order = Ordering(self.ordering, columns)
        self.lu_nnz = lu.nnz

    def _factorize_held(self, order: Ordering):
        q = order.columns
        if order.symmetric:
            # the ordered matrix in sorted CSC, as SciPy's splu would sort it
            if order.layout is None:
                order.layout = symmetric_layout(self.matrix, q)
            gather, indices, indptr = order.layout
            ordered = sp.csc_matrix((self.matrix.data[gather], indices, indptr),
                                    shape=self.matrix.shape)
            thresh = DIAG_PIVOT_THRESH
        else:
            ordered, thresh = self.matrix[:, q], 1.0
        try:
            # SciPy turns on SymmetricMode with the natural order: the
            # diagonal of the ordered matrix is preferred at equal size
            lu = spla.splu(ordered, permc_spec="NATURAL", diag_pivot_thresh=thresh)
        except RuntimeError:
            return None  # an exactly zero pivot: factorize afresh
        self._lu = _OrderedLU(lu, order)
        self.ordering, self.order = order.name, order
        return lu

    @classmethod
    def reusing(cls, order: Ordering | None, matrix: sp.spmatrix,
                label: str = "unlabeled") -> "Factorization":
        """LU of ``matrix`` on a held ``order`` (a fresh LU when None)."""
        return cls._made(matrix, label, held=order)

    @classmethod
    def symmetric(cls, matrix: sp.spmatrix, label: str = "unlabeled") -> "Factorization":
        """Fresh LU of ``matrix`` on the symmetric path, whatever its values."""
        return cls._made(matrix, label, symmetric_path=True)

    @classmethod
    def _made(cls, matrix: sp.spmatrix, label: str, **attrs) -> "Factorization":
        fact = cls.__new__(cls)
        fact.__dict__.update(attrs)
        fact.__init__(matrix, label)
        return fact

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution of ``matrix x = b`` for ``b`` of shape ``(n,)`` or, a
        block of right-hand sides, ``(n, k)``: one SuperLU call solves
        every column.  The residual contract holds per column; one
        refinement step solves the columns that fail it, and a column
        past ``RESIDUAL_HARD`` raises.  A column with non-finite entries
        is not checked: divergence in the outer iteration propagates to
        its detector."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise SolverError(f"rhs shape {b.shape} incompatible with n={self.n}")
        x = self._lu.solve(b)
        bs, xs = b.reshape(self.n, -1), x.reshape(self.n, -1)  # views, a column each
        nb = np.abs(bs).max(axis=0, initial=0.0)
        cols = np.flatnonzero(np.isfinite(nb))  # NaN and inf propagate to the max
        nb = nb[cols]
        res = np.abs(bs[:, cols] - self.matrix @ xs[:, cols]).max(axis=0, initial=0.0)
        fail = res > RESIDUAL_TOL * (1.0 + nb)
        if fail.any():
            cols, nb = cols[fail], nb[fail]
            r = bs[:, cols] - self.matrix @ xs[:, cols]
            xs[:, cols] += self._lu.solve(r)
            res = np.abs(bs[:, cols] - self.matrix @ xs[:, cols]).max(axis=0)
            if (res > RESIDUAL_HARD * (1.0 + nb)).any():
                raise SolverError(
                    f"solve residual {res.max():.3e} exceeds {RESIDUAL_HARD:.0e}*(1+||b||)")
        return x


def krylov_solve(matrix: sp.spmatrix, fact: Factorization,
                 b: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Restarted GMRES on ``matrix x = b`` preconditioned on the right with
    ``fact``, the LU of a nearby matrix, starting from that LU's solution.

    Each iteration takes one LU solve, ``z_j = LU^-1 v_j``, and keeps
    ``z_j``, so the update ``x += Z y`` needs none: a solve costs
    ``iterations + 1`` LU solves.  Arnoldi orthogonalizes by classical
    Gram-Schmidt applied twice, and Givens rotations reduce the Hessenberg
    matrix; with right preconditioning their residual estimate is that of
    ``matrix x = b`` itself.  A cycle of at most ``KRYLOV_RESTART``
    iterations stops when the estimate meets ``KRYLOV_RTOL ||b||_2``, and
    ends with the true residual, from which the next of at most
    ``KRYLOV_CYCLES`` cycles restarts.

    Returns ``(x, iterations)``, with ``x`` None unless the true residual
    meets ``||b - Ax||_2 <= KRYLOV_RTOL ||b||_2`` as well as the solve
    contract.  The relative test is what holds the answer: the loads of a
    Newton direction shrink with the defect, and at loads near 1e-8 the
    contract's ``1 +`` floor accepts a relative error near 1.
    """
    lu_solve = fact._lu.solve
    tol = KRYLOV_RTOL * np.linalg.norm(b)
    x = lu_solve(b)
    r = b - matrix @ x
    beta = np.linalg.norm(r)
    iterations, m = 0, KRYLOV_RESTART
    for _ in range(KRYLOV_CYCLES):
        if beta <= tol:
            break
        V, Z = np.empty((m + 1, len(b))), np.empty((m, len(b)))
        H, g = np.zeros((m, m)), np.zeros(m + 1)
        cs, sn = np.zeros(m), np.zeros(m)
        V[0], g[0] = r / beta, beta
        for j in range(m):
            Z[j] = lu_solve(V[j])
            w = matrix @ Z[j]
            for _ in range(2):
                h = V[: j + 1] @ w
                w -= h @ V[: j + 1]
                H[: j + 1, j] += h
            hn = np.linalg.norm(w)
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            rho = np.hypot(H[j, j], hn)
            cs[j], sn[j] = H[j, j] / rho, hn / rho
            H[j, j], g[j + 1], g[j] = rho, -sn[j] * g[j], cs[j] * g[j]
            iterations += 1
            if abs(g[j + 1]) <= tol or hn == 0.0:
                break
            V[j + 1] = w / hn
        k = j + 1
        x += la.solve_triangular(H[:k, :k], g[:k]) @ Z[:k]
        r = b - matrix @ x
        beta = np.linalg.norm(r)
    accepted = (beta <= tol
                and np.abs(r).max() <= RESIDUAL_TOL * (1.0 + np.abs(b).max()))
    return (x if accepted else None), iterations


class EliminatedPattern:
    """Sparsity pattern of square matrices whose constrained dofs are
    eliminated symmetrically, in CSC.

    Built once from the distinct ``(rows, cols)`` pairs a matrix of the
    pattern may hold; a matrix is then given by its entry ``values``, one
    per pair, or, with ``entries``, one per entry, entry ``k`` being on
    pair ``entries[k]`` (pairs that repeat, as in element-by-element
    assembly, are named once each).  Entries on a constrained row or
    column are dropped, not stored as zeros, which COLAMD and SuperLU
    would fill like nonzeros, and each constrained dof gets a unit
    diagonal.  The CSC structure comes from SciPy's COO to CSC conversion
    of the numbered pairs, which sorts within each column only, and a
    pair that repeats raises ``ValueError``.
    ``matrix(values)`` sums each slot's values in entry order with one
    ``bincount``, and every matrix shares ``indices``/``indptr``.
    ``coupling(values)`` maps constrained values to their load on the free
    rows.  Every LU made on the pattern (``factorize``) after its first
    takes the ordering the pattern holds: the first LU's, or, by the fill
    rule, that of the second when the first was COLAMD, filled more than
    ``FILL_RATIO`` times ``reference_nnz`` and the second's symmetric LU
    filled less.  ``order`` and ``lu_nnz`` are the ordering the pattern
    holds and the fill of the LU that made it (None before the first LU);
    the trial spends ``reference_nnz``, so it runs at most once.

    The build drops the CSC numbering, the slot of each kept pair and the
    row and column masks before it gathers the slot of each entry, where
    it peaks.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n: int,
                 constrained: np.ndarray, entries: np.ndarray | None = None,
                 reference_nnz: int | None = None):
        self.n = n
        self.constrained = np.asarray(constrained, dtype=np.intp)
        nc = len(self.constrained)
        free = np.ones(n, dtype=bool)
        free[self.constrained] = False
        free_row, free_col = free[rows], free[cols]
        keep = free_row & free_col
        nk = np.count_nonzero(keep)
        # the kept pairs and the unit diagonal in CSC, each storing its number
        numbered = sp.csc_matrix((np.arange(nk + nc, dtype=np.int32), (
            np.concatenate([rows[keep], self.constrained], dtype=rows.dtype),
            np.concatenate([cols[keep], self.constrained], dtype=cols.dtype))),
            shape=(n, n))
        if numbered.nnz != nk + nc:
            raise ValueError("a pair of the pattern repeats")
        self.indices = numbered.indices.astype(np.int32, copy=False)
        self.indptr = numbered.indptr.astype(np.int32, copy=False)
        slots = np.empty(nk + nc, dtype=np.intp)
        slots[numbered.data] = np.arange(nk + nc)
        del numbered
        self._slots = np.full(len(rows), nk + nc)  # dropped: one slot past the end
        self._slots[keep] = slots[:nk]
        self._diagonal = slots[nk:].copy()
        coupled = free_row & ~free_col
        del slots, keep, free_row, free_col  # the build peaks at the gather below
        if entries is not None:
            self._slots, coupled = self._slots[entries], coupled[entries]
        self._coupled = np.flatnonzero(coupled)
        del coupled
        pairs = self._coupled if entries is None else entries[self._coupled]
        position = np.empty(n, dtype=np.intp)
        position[self.constrained] = np.arange(nc)
        self._coupled_at = rows[pairs], position[cols[pairs]]
        self.order: Ordering | None = None
        self.lu_nnz: int | None = None
        self.reference_nnz = reference_nnz

    def matrix(self, values: np.ndarray) -> sp.csc_matrix:
        data = np.bincount(self._slots, weights=values,
                           minlength=len(self.indices) + 1)[:-1]
        data[self._diagonal] = 1.0
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def coupling(self, values: np.ndarray) -> sp.csr_matrix:
        return sp.coo_matrix((values[self._coupled], self._coupled_at),
                             shape=(self.n, len(self.constrained))).tocsr()

    def factorize(self, matrix: sp.csc_matrix, label: str) -> Factorization:
        """LU of a matrix of this pattern, on the held ordering after the
        first, or the fill rule's fresh symmetric trial."""
        if (self.reference_nnz is not None and self.order is not None
                and self.order.name == "colamd"
                and self.lu_nnz > FILL_RATIO * self.reference_nnz):
            self.reference_nnz = None  # the trial runs once
            fact = Factorization.symmetric(matrix, label)
            keep = fact.lu_nnz < self.lu_nnz
        else:
            fact = Factorization.reusing(self.order, matrix, label)
            keep = fact.order is not self.order  # a fresh LU
        if keep:
            self.order, self.lu_nnz = fact.order, fact.lu_nnz
        return fact


class SaddlePattern(EliminatedPattern):
    """Eliminated pattern of the saddle matrix ``[[A, B^T], [B, 0]]``, with
    the velocity Dirichlet dofs constrained and the first pressure dof
    pinned to zero (removing the constant-pressure nullspace).

    ``a_rows``/``a_cols`` are the entries of the velocity block ``A``, or
    its pairs with ``a_entries`` the pair of each entry (as ``entries`` of
    an ``EliminatedPattern``), and ``values(*a_values)`` is the value
    vector of a matrix: the divergence values, then those of ``A``.  More
    unpinned pressures than free velocity dofs make every matrix of the
    pattern singular, and the pattern raises ``SolverError``.
    ``solve`` is the layout of every saddle solve: the momentum load goes
    into the velocity rows and the Dirichlet values (zero when omitted)
    onto the constrained rows, and the solution splits into
    ``(velocity, multiplier)``.  A pattern whose every matrix is known at
    once makes their LUs side by side, each afresh (``factorize_all``), and
    keeps only that layout after it.
    """

    def __init__(self, a_rows: np.ndarray, a_cols: np.ndarray, B: sp.spmatrix,
                 dirichlet_dofs: np.ndarray, a_entries: np.ndarray | None = None,
                 reference_nnz: int | None = None):
        self.n_vel = n_vel = B.shape[1]
        n_free = n_vel - len(dirichlet_dofs)
        if B.shape[0] - 1 > n_free:
            raise SolverError(
                f"singular saddle system: {B.shape[0] - 1} unpinned pressures "
                f"constrain {n_free} free velocity dofs, so B has dependent rows")
        b = B.tocoo()
        self._b_values = np.concatenate([b.data, b.data])
        nb = len(self._b_values)
        super().__init__(np.concatenate([b.col, n_vel + b.row, a_rows]),
                         np.concatenate([n_vel + b.row, b.col, a_cols]),
                         n_vel + B.shape[0], np.append(dirichlet_dofs, n_vel),
                         None if a_entries is None else np.concatenate(
                             [np.arange(nb, dtype=a_entries.dtype), nb + a_entries]),
                         reference_nnz)

    def values(self, *a_values: np.ndarray) -> np.ndarray:
        return np.concatenate([self._b_values, *a_values])

    def factorize_all(self, *systems: tuple[np.ndarray, str]) -> list["SaddleFactorization"]:
        """LU and coupling of every matrix the pattern will have, given by
        its ``values`` and label as ``(values, label)`` pairs, the LUs fresh
        and made side by side.  Once the matrices and couplings exist (each
        matrix after the first ``checked`` and tested for symmetry) the
        pattern drops the tables that build them, keeping the saddle layout
        ``solve`` reads.  SuperLU of every matrix after the first runs on
        one worker thread (``fresh_lu``) while the calling thread
        factorizes the first.  Every ``Factorization`` is made on the
        calling thread, one after the other, the later ones from the
        worker's LUs, so an error of a worker's LU raises there; the
        worker ends before this returns.  The pattern, which can make no
        other LU, holds no ordering."""
        matrices = [(self.matrix(values), label) for values, label in systems]
        matrices[1:] = [(checked(matrix, label), label) for matrix, label in matrices[1:]]
        couplings = [self.coupling(values) for values, _ in systems]
        del self._slots, self._diagonal, self._coupled, self._coupled_at, self._b_values
        with ThreadPoolExecutor(max_workers=1) as worker:
            made = [worker.submit(fresh_lu, matrix, label, exactly_symmetric(matrix))
                    for matrix, label in matrices[1:]]
            facts = [Factorization(*matrices[0])]
            facts += [Factorization._made(matrix, label, made=lu)
                      for (matrix, label), lu in zip(matrices[1:], made)]
        return [SaddleFactorization(self, fact, coupling)
                for fact, coupling in zip(facts, couplings)]

    def solve(self, solve, load: np.ndarray, values: np.ndarray | None = None,
              coupling: sp.spmatrix | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(velocity, multiplier) of ``solve``, a solver of a matrix of this
        pattern, for the momentum ``load``, zero divergence and the
        Dirichlet ``values`` (carried into the free rows by the matrix's
        ``coupling``); constrained entries are set exactly.

        ``load`` is one load of shape ``(n_vel,)`` or a stack ``(k, n_vel)``
        of them; a stack goes to ``solve`` as one ``(n, k)`` block, and
        velocity and multiplier come back stacked the same way."""
        cvals = (np.zeros(len(self.constrained)) if values is None
                 else np.append(values, 0.0))
        load = np.asarray(load)
        b = np.zeros(load.shape[:-1] + (self.n,))
        b[..., : self.n_vel] = load
        if cvals.any():
            b -= coupling @ cvals
        b[..., self.constrained] = cvals
        x = solve(b.T).T
        x[..., self.constrained] = cvals
        return x[..., : self.n_vel], x[..., self.n_vel:]


class SaddleFactorization:
    """LU and Dirichlet coupling of one matrix of a ``SaddlePattern``
    (``SaddlePattern.factorize_all``); each solve takes one momentum load
    or a stack of them and the Dirichlet values (zero when omitted), as
    ``SaddlePattern.solve``."""

    def __init__(self, pattern: SaddlePattern, fact: Factorization,
                 coupling: sp.csr_matrix):
        self.pattern, self.fact, self.coupling = pattern, fact, coupling

    def solve(self, load: np.ndarray, values: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        return self.pattern.solve(self.fact.solve, load, values, self.coupling)
