"""Taylor-Hood P2/P1 finite-element machinery on triangles.

Degrees of freedom: scalar P2 nodes are the mesh vertices followed by the
edge midpoints; velocity fields store the x-component block before the
y-component block (length 2*n_scalar); pressure is P1 on vertices.

Quadrature: every form reads one 7-point degree-5 rule, exact for each
polynomial integrand here: the mass form (P2*P2) has degree 4, the
vorticity load (P2*grad(P2)) degree 3, the divergence (P1*grad(P2)) and
the stiffness degree 2, and the trilinear convection term
(P2*grad(P2)*P2) degree 5.  Loads and errors of non-polynomial data are
approximated on the same rule.

The set-up kernels sum their products with ``_ordered_sum``, in the order
``np.einsum`` sums them, so each equals its einsum form bit for bit
(``tests/test_fem.py`` keeps those forms as oracles) without einsum's
slow multi-operand loops.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, Tag, node_tags


def rule_deg5() -> tuple[np.ndarray, np.ndarray]:
    """7-point degree-5 rule on the reference triangle; weights sum to 1/2."""
    s15 = np.sqrt(15.0)
    pts = [(1.0 / 3.0, 1.0 / 3.0)]
    ws = [0.5 * 9.0 / 40.0]
    for a, w in (((6.0 + s15) / 21.0, (155.0 + s15) / 1200.0),
                 ((6.0 - s15) / 21.0, (155.0 - s15) / 1200.0)):
        pts += [(a, a), (1.0 - 2.0 * a, a), (a, 1.0 - 2.0 * a)]
        ws += [0.5 * w] * 3
    return np.array(pts), np.array(ws)


def p2_values(pts: np.ndarray) -> np.ndarray:
    """P2 shape functions at reference points; order [v0,v1,v2,e01,e12,e20]."""
    x, y = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1.0 - x - y, x, y
    return np.stack(
        [l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
         4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0], axis=1)


def p2_grads(pts: np.ndarray) -> np.ndarray:
    """Reference gradients of the P2 shape functions, shape (npts, 6, 2)."""
    x, y = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1.0 - x - y, x, y
    d0 = np.array([-1.0, -1.0])
    d1 = np.array([1.0, 0.0])
    d2 = np.array([0.0, 1.0])
    g = np.empty((len(pts), 6, 2))
    g[:, 0] = np.outer(4 * l0 - 1, d0)
    g[:, 1] = np.outer(4 * l1 - 1, d1)
    g[:, 2] = np.outer(4 * l2 - 1, d2)
    g[:, 3] = np.outer(4 * l1, d0) + np.outer(4 * l0, d1)
    g[:, 4] = np.outer(4 * l2, d1) + np.outer(4 * l1, d2)
    g[:, 5] = np.outer(4 * l0, d2) + np.outer(4 * l2, d0)
    return g


def _ordered_sum(terms):
    """The sum of the arrays ``terms``, from zero, one at a time in order:
    the order in which ``np.einsum`` sums its products, so a kernel that
    passes einsum's products in einsum's order equals the einsum bit for
    bit, signed zeros included."""
    total = 0.0
    for term in terms:
        total += term  # the first term makes a new array, the rest add in place
    return total


def p1_values(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([1.0 - x - y, x, y], axis=1)


class _Rule:
    """Per-mesh tables of the quadrature rule.

    ``g`` holds the physical gradients of the P2 shape functions at the
    points, ``x`` the physical points.  ``g_table``, the gradients as one
    matrix per triangle for ``Space.velocity_grad_at_quad``, is built on
    first use.
    """

    def __init__(self, space: "Space", pts: np.ndarray, ws: np.ndarray):
        self.w = ws
        self.phi = p2_values(pts)           # (nq, 6)
        self.psi = p1_values(pts)           # (nq, 3)
        gref = p2_grads(pts)                # (nq, 6, 2)
        # physical gradient: g[t,q,j,d] = sum_e Jinv[t,e,d] gref[q,j,e], one
        # point at a time: a freed temporary the size of g raises glibc's
        # mmap threshold, which left the peak RSS of an h = 0.025 solve 6 MB
        # higher in about half of the runs
        self.g = np.stack([_ordered_sum(space.jinv[:, None, e, :] * gq[:, e, None]
                                        for e in range(2)) for gq in gref], axis=1)
        p = space.mesh.vertices[space.mesh.triangles]  # (nt, 3, 2)
        lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)
        # physical points: x[t,q,d] = sum_k lam[q,k] p[t,k,d]
        self.x = _ordered_sum(lam[:, k, None] * p[:, None, k, :] for k in range(3))

    @cached_property
    def g_table(self) -> np.ndarray:
        """The gradients as one (6, 2*nq) matrix per triangle, [j, 2q+d]."""
        nt, nq = self.g.shape[:2]
        return np.ascontiguousarray(self.g.transpose(0, 2, 1, 3)).reshape(nt, 6, 2 * nq)


class Space:
    """Dof layout and precomputed assembly tables for one mesh."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.edges, self.tri_edges = mesh.edges, mesh.tri_edges
        nv = mesh.n_vertices
        self.n_scalar = nv + len(self.edges)
        self.n_velocity = 2 * self.n_scalar
        self.n_pressure = nv
        self.tri_p2 = np.hstack([mesh.triangles, nv + self.tri_edges])
        self.p2_coords = np.vstack(
            [mesh.vertices,
             0.5 * (mesh.vertices[self.edges[:, 0]] + mesh.vertices[self.edges[:, 1]])])

        p = mesh.vertices[mesh.triangles]
        j11 = p[:, 1, 0] - p[:, 0, 0]
        j21 = p[:, 1, 1] - p[:, 0, 1]
        j12 = p[:, 2, 0] - p[:, 0, 0]
        j22 = p[:, 2, 1] - p[:, 0, 1]
        self.det = j11 * j22 - j12 * j21
        self.jinv = np.empty((mesh.n_triangles, 2, 2))
        self.jinv[:, 0, 0] = j22 / self.det
        self.jinv[:, 0, 1] = -j12 / self.det
        self.jinv[:, 1, 0] = -j21 / self.det
        self.jinv[:, 1, 1] = j11 / self.det

        # each boundary edge's two vertices and midpoint, by the corner rule
        mid = nv + mesh.edge_index(mesh.boundary_edges)
        nodes, self.boundary_node_tags = node_tags(
            np.column_stack([mesh.boundary_edges, mid]), mesh.boundary_tags)
        self.boundary_nodes = nodes
        self.dirichlet_dofs = np.concatenate([nodes, nodes + self.n_scalar])

    @cached_property
    def rule(self) -> _Rule:
        return _Rule(self, *rule_deg5())

    @property
    def scalar_mass(self) -> sp.csr_matrix:
        """The scalar P2 mass matrix, assembled anew on each access: a run
        keeps only the block-diagonal velocity copy (``assemble_mass``)."""
        r = self.rule
        ref = np.einsum("q,qi,qj->ij", r.w, r.phi, r.phi)
        ref = 0.5 * (ref + ref.T)  # exact symmetry
        return self._scatter(self.det[:, None, None] * ref, self.tri_p2, self.n_scalar)

    @property
    def scalar_stiffness(self) -> sp.csr_matrix:
        """The scalar P2 stiffness matrix, assembled anew on each access,
        as ``scalar_mass``."""
        g = self.rule.g
        # sum over q of det w_q (g_i0 g_j0 + g_i1 g_j1), d summed first
        elem = _ordered_sum(
            dw * g[:, q, :, None, 0] * g[:, q, None, :, 0]
            + dw * g[:, q, :, None, 1] * g[:, q, None, :, 1]
            for q, dw in enumerate(self._weights()[:, :, None, None]))
        elem = 0.5 * (elem + elem.transpose(0, 2, 1))  # exact symmetry
        return self._scatter(elem, self.tri_p2, self.n_scalar)

    def _weights(self) -> np.ndarray:
        """``det * w_q`` per point and triangle, shape (nq, nt)."""
        return self.rule.w[:, None] * self.det

    def _scatter(self, elem: np.ndarray, row_nodes: np.ndarray,
                 n_rows: int) -> sp.csr_matrix:
        """Sum the element matrices ``elem`` (nt, k, 6) into an
        ``(n_rows, n_scalar)`` matrix: row i of triangle t is node
        ``row_nodes[t, i]``, column j its P2 node ``tri_p2[t, j]``."""
        rows = np.broadcast_to(row_nodes[:, :, None], elem.shape).ravel()
        cols = np.broadcast_to(self.tri_p2[:, None, :], elem.shape).ravel()
        m = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n_rows, self.n_scalar))
        return m.tocsr()

    def scatter_p2_vector(self, elem: np.ndarray) -> np.ndarray:
        """Accumulate per-triangle scalar load contributions (nt, 6)."""
        return np.bincount(self.tri_p2.ravel(), weights=elem.ravel(),
                           minlength=self.n_scalar)

    def split(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._check_velocity(u)
        return u[: self.n_scalar], u[self.n_scalar:]

    def _check_velocity(self, u: np.ndarray):
        if u.shape[-1] != self.n_velocity:
            raise ValueError(
                f"expected VelocityP2 coefficients of length {self.n_velocity}, "
                f"got {u.shape[-1]}")

    def velocity_at_quad(self, u: np.ndarray) -> np.ndarray:
        """Field values at quadrature points, shape (nt, nq, 2)."""
        ux, uy = self.split(u)
        vx = ux[self.tri_p2] @ self.rule.phi.T   # (nt, nq)
        vy = uy[self.tri_p2] @ self.rule.phi.T
        return np.stack([vx, vy], axis=-1)

    def velocity_grad_at_quad(self, u: np.ndarray) -> np.ndarray:
        """Gradients at quadrature points, shape (nt, nq, 2, 2), [c,d]=d_d u_c."""
        self._check_velocity(u)
        local = u.reshape(2, -1)[:, self.tri_p2].transpose(1, 0, 2)  # (nt, 2, 6)
        grads = local @ self.rule.g_table                            # (nt, 2, 2*nq)
        return grads.reshape(len(grads), 2, -1, 2).transpose(0, 2, 1, 3)


def build_space(mesh: Mesh) -> Space:
    return Space(mesh)


def assemble_mass(space: Space) -> sp.csr_matrix:
    """Velocity mass matrix, SPD, block-diagonal over components."""
    m = space.scalar_mass
    return sp.block_diag((m, m), format="csr")


def assemble_stiffness(space: Space) -> sp.csr_matrix:
    """Velocity stiffness (vector Laplacian), symmetric positive semidefinite."""
    k = space.scalar_stiffness
    return sp.block_diag((k, k), format="csr")


def assemble_divergence(space: Space) -> sp.csr_matrix:
    """Pressure-test divergence matrix B with entries int(psi * div u)."""
    r = space.rule
    # elem[t,k,j,d] = sum over q of det w_q psi_k d_d phi_j
    elem = _ordered_sum(dw[:, None, None, None] * r.psi[q, None, :, None, None]
                        * r.g[:, q, None]
                        for q, dw in enumerate(space._weights()))
    return sp.hstack([space._scatter(elem[..., d], space.mesh.triangles, space.n_pressure)
                      for d in range(2)], format="csr")


def convection_scalar_block(space: Space, a: np.ndarray) -> np.ndarray:
    """Element tensors (nt,6,6) of int((a.grad)phi_j phi_i); shared by both
    velocity components."""
    r = space.rule
    aq = space.velocity_at_quad(a) * (space.det[:, None] * r.w)[:, :, None]
    # weighted (a.grad)phi_j, (nt, nq, 6)
    adotg = aq[:, :, None, 0] * r.g[..., 0] + aq[:, :, None, 1] * r.g[..., 1]
    return r.phi.T @ adotg


def convection_vector(space: Space, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Load vector of the trilinear term, entries int((a.grad)u . phi_i)."""
    r = space.rule
    aq = space.velocity_at_quad(a)          # (nt, nq, 2)
    gu = space.velocity_grad_at_quad(u)     # (nt, nq, 2, 2)
    # ((a.grad)u)_c times det*w at each quadrature point, (nt, nq, 2)
    integrand = aq[:, :, None, 0] * gu[..., 0] + aq[:, :, None, 1] * gu[..., 1]
    integrand *= (space.det[:, None] * r.w)[:, :, None]
    elem = integrand.transpose(2, 0, 1) @ r.phi  # (2, nt, 6), one matmul
    return np.concatenate([space.scatter_p2_vector(e) for e in elem])


def load_vector(space: Space, f, t: float) -> np.ndarray:
    """Body-force load int(f(x,t) . phi_i) on the quadrature rule.  A force
    whose values at the points are not finite, or not one 2-vector per
    point, raises ``ValueError``."""
    r = space.rule
    points = r.x.reshape(-1, 2)
    fq = np.asarray(f(points, t), dtype=np.float64)
    if fq.shape != points.shape or not np.isfinite(fq).all():
        raise ValueError(f"forcing f must give {len(points)} x 2 finite values at "
                         f"the quadrature points, got shape {fq.shape} at t={t}")
    fq = fq.reshape(r.x.shape)
    # elem[t,c,i] = sum over q of det w_q f_c phi_i
    elem = _ordered_sum((dw[:, None] * fq[:, q])[:, :, None] * r.phi[q]
                        for q, dw in enumerate(space._weights()))
    return np.concatenate([space.scatter_p2_vector(elem[:, c]) for c in range(2)])


def interpolate_velocity(space: Space, fun, t: float | None = None) -> np.ndarray:
    """Nodal interpolation of a velocity function at the P2 nodes."""
    vals = np.asarray(fun(space.p2_coords, t) if t is not None else fun(space.p2_coords))
    return np.concatenate([vals[:, 0], vals[:, 1]])


def lid_boundary_values(space: Space, g) -> np.ndarray:
    """Dirichlet values over space.dirichlet_dofs for lid data (g(x), 0).

    g is a callable of the x-coordinate array; wall nodes get zero.
    """
    x = space.p2_coords[space.boundary_nodes, 0]
    lid = space.boundary_node_tags == int(Tag.LID)
    vx = np.where(lid, np.asarray(g(x), dtype=float), 0.0)
    return np.concatenate([vx, np.zeros_like(vx)])


def vorticity_load(space: Space, u: np.ndarray) -> np.ndarray:
    """Weak vorticity of the stream-function Poisson problem.

    Entries int(u_y * dphi_i/dx - u_x * dphi_i/dy), the integration by
    parts of (d2 u1 - d1 u2) against P2 test functions vanishing on the
    boundary.
    """
    r = space.rule
    uq = space.velocity_at_quad(u)
    # elem[t,i] = sum over q of det w_q (u_y d_x phi_i - u_x d_y phi_i)
    weights = space._weights()
    elem = _ordered_sum(dw[:, None] * uq[:, q, 1, None] * r.g[:, q, :, 0]
                        for q, dw in enumerate(weights))
    elem -= _ordered_sum(dw[:, None] * uq[:, q, 0, None] * r.g[:, q, :, 1]
                         for q, dw in enumerate(weights))
    return space.scatter_p2_vector(elem)
