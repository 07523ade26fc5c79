"""Taylor-Hood P2/P1 finite-element machinery on triangles.

Degrees of freedom: scalar P2 nodes are the mesh vertices followed by the
edge midpoints; velocity fields store the x-component block before the
y-component block (length 2*n_scalar); pressure is P1 on vertices.

Quadrature: 6-point degree-4 rule for bilinear forms (exact for P2*P2
products), 7-point degree-5 rule for the trilinear convection terms
(P2*grad(P2)*P2 is degree 5) and general loads.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, Tag, unique_edges


def rule_deg4() -> tuple[np.ndarray, np.ndarray]:
    """6-point degree-4 rule on the reference triangle; weights sum to 1/2."""
    s10 = np.sqrt(10.0)
    t = np.sqrt(38.0 - 44.0 * np.sqrt(2.0 / 5.0))
    a1 = (8.0 - s10 + t) / 18.0
    a2 = (8.0 - s10 - t) / 18.0
    w1 = (620.0 + np.sqrt(213125.0 - 53320.0 * s10)) / 3720.0
    w2 = (620.0 - np.sqrt(213125.0 - 53320.0 * s10)) / 3720.0
    pts, ws = [], []
    for a, w in ((a1, w1), (a2, w2)):
        pts += [(a, a), (1.0 - 2.0 * a, a), (a, 1.0 - 2.0 * a)]
        ws += [0.5 * w] * 3
    return np.array(pts), np.array(ws)


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


def p1_values(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([1.0 - x - y, x, y], axis=1)


class _Rule:
    """Per-mesh tables for one quadrature rule."""

    def __init__(self, space: "Space", pts: np.ndarray, ws: np.ndarray):
        self.w = ws
        self.phi = p2_values(pts)           # (nq, 6)
        self.psi = p1_values(pts)           # (nq, 3)
        gref = p2_grads(pts)                # (nq, 6, 2)
        # physical gradient: g[t,q,j,d] = sum_e Jinv[t,e,d] gref[q,j,e]
        self.g = np.einsum("ted,qje->tqjd", space.jinv, gref)
        p = space.mesh.vertices[space.mesh.triangles]  # (nt, 3, 2)
        lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)
        self.x = np.einsum("qk,tkd->tqd", lam, p)      # physical points


class Space:
    """Dof layout and precomputed assembly tables for one mesh."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.edges, self.tri_edges = unique_edges(mesh.triangles)
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

        self._boundary_nodes_and_tags()

    def _boundary_nodes_and_tags(self):
        nv = self.mesh.n_vertices
        edge_index = {(int(i), int(j)): k for k, (i, j) in enumerate(self.edges)}
        tag_of: dict[int, int] = {}
        for (i, j), tag in zip(self.mesh.boundary_edges, self.mesh.boundary_tags):
            mid = nv + edge_index[(int(i), int(j))]
            for node in (int(i), int(j), mid):
                # LID < WALL, and the corner vertices belong to the lid
                tag_of[node] = min(tag_of.get(node, int(tag)), int(tag))
        nodes = np.array(sorted(tag_of), dtype=np.int64)
        self.boundary_nodes = nodes
        self.boundary_node_tags = np.array([tag_of[int(n)] for n in nodes], dtype=np.int64)
        self.dirichlet_dofs = np.concatenate([nodes, nodes + self.n_scalar])

    @cached_property
    def rule4(self) -> _Rule:
        return _Rule(self, *rule_deg4())

    @cached_property
    def rule5(self) -> _Rule:
        return _Rule(self, *rule_deg5())

    @cached_property
    def scalar_mass(self) -> sp.csr_matrix:
        r = self.rule4
        ref = np.einsum("q,qi,qj->ij", r.w, r.phi, r.phi)
        ref = 0.5 * (ref + ref.T)  # exact symmetry
        return self._scatter_p2p2(self.det[:, None, None] * ref)

    @cached_property
    def scalar_stiffness(self) -> sp.csr_matrix:
        r = self.rule4
        elem = np.einsum("t,q,tqid,tqjd->tij", self.det, r.w, r.g, r.g)
        elem = 0.5 * (elem + elem.transpose(0, 2, 1))  # exact symmetry
        return self._scatter_p2p2(elem)

    def _scatter_p2p2(self, elem: np.ndarray) -> sp.csr_matrix:
        nt = self.mesh.n_triangles
        rows = np.broadcast_to(self.tri_p2[:, :, None], (nt, 6, 6)).ravel()
        cols = np.broadcast_to(self.tri_p2[:, None, :], (nt, 6, 6)).ravel()
        m = sp.coo_matrix((elem.ravel(), (rows, cols)),
                          shape=(self.n_scalar, self.n_scalar))
        return m.tocsr()

    def _scatter_p1p2(self, elem: np.ndarray) -> sp.csr_matrix:
        nt = self.mesh.n_triangles
        rows = np.broadcast_to(self.mesh.triangles[:, :, None], (nt, 3, 6)).ravel()
        cols = np.broadcast_to(self.tri_p2[:, None, :], (nt, 3, 6)).ravel()
        m = sp.coo_matrix((elem.ravel(), (rows, cols)),
                          shape=(self.n_pressure, self.n_scalar))
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

    def velocity_at_quad(self, u: np.ndarray, rule: _Rule) -> np.ndarray:
        """Field values at quadrature points, shape (nt, nq, 2)."""
        ux, uy = self.split(u)
        vx = ux[self.tri_p2] @ rule.phi.T   # (nt, nq)
        vy = uy[self.tri_p2] @ rule.phi.T
        return np.stack([vx, vy], axis=-1)

    def velocity_grad_at_quad(self, u: np.ndarray, rule: _Rule) -> np.ndarray:
        """Gradients at quadrature points, shape (nt, nq, 2, 2), [c,d]=d_d u_c."""
        ux, uy = self.split(u)
        gx = np.einsum("tm,tqmd->tqd", ux[self.tri_p2], rule.g)
        gy = np.einsum("tm,tqmd->tqd", uy[self.tri_p2], rule.g)
        return np.stack([gx, gy], axis=2)


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
    r = space.rule4
    bx = space._scatter_p1p2(
        np.einsum("t,q,qk,tqj->tkj", space.det, r.w, r.psi, r.g[:, :, :, 0]))
    by = space._scatter_p1p2(
        np.einsum("t,q,qk,tqj->tkj", space.det, r.w, r.psi, r.g[:, :, :, 1]))
    return sp.hstack([bx, by], format="csr")


def convection_scalar_block(space: Space, a: np.ndarray) -> np.ndarray:
    """Element tensors (nt,6,6) of int((a.grad)phi_j phi_i); shared by both
    velocity components."""
    r = space.rule5
    aq = space.velocity_at_quad(a, r)       # (nt, nq, 2)
    adotg = np.einsum("tqd,tqjd->tqj", aq, r.g)
    return np.einsum("t,q,qi,tqj->tij", space.det, r.w, r.phi, adotg)


def assemble_convection(space: Space, a: np.ndarray) -> sp.csr_matrix:
    """Matrix C(a) of the form int((a.grad)u . w); linear in a."""
    c = space._scatter_p2p2(convection_scalar_block(space, a))
    return sp.block_diag((c, c), format="csr")


def assemble_linearized_convection(space: Space, y: np.ndarray) -> sp.csr_matrix:
    """L(y) = C(y) + D(y) with D(y) the reaction part int((u.grad)y . w)."""
    r = space.rule5
    c = space._scatter_p2p2(convection_scalar_block(space, y))
    gy = space.velocity_grad_at_quad(y, r)   # (nt, nq, 2, 2)
    blocks = [[None, None], [None, None]]
    for ci in range(2):
        for d in range(2):
            elem = np.einsum("t,q,qi,qj,tq->tij",
                             space.det, r.w, r.phi, r.phi, gy[:, :, ci, d])
            blocks[ci][d] = space._scatter_p2p2(elem)
    dmat = sp.bmat(blocks, format="csr")
    return sp.block_diag((c, c), format="csr") + dmat


def convection_vector(space: Space, a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Load vector of the trilinear term, entries int((a.grad)u . phi_i)."""
    r = space.rule5
    aq = space.velocity_at_quad(a, r)
    gu = space.velocity_grad_at_quad(u, r)
    integrand = np.einsum("tqd,tqcd->tqc", aq, gu)      # (nt, nq, 2)
    out = np.empty(space.n_velocity)
    for c in range(2):
        elem = np.einsum("t,q,tq,qi->ti", space.det, r.w, integrand[:, :, c], r.phi)
        out[c * space.n_scalar:(c + 1) * space.n_scalar] = space.scatter_p2_vector(elem)
    return out


def load_vector(space: Space, f, t: float) -> np.ndarray:
    """Body-force load int(f(x,t) . phi_i) with the degree-5 rule."""
    r = space.rule5
    fq = np.asarray(f(r.x.reshape(-1, 2), t)).reshape(r.x.shape)
    out = np.empty(space.n_velocity)
    for c in range(2):
        elem = np.einsum("t,q,tq,qi->ti", space.det, r.w, fq[:, :, c], r.phi)
        out[c * space.n_scalar:(c + 1) * space.n_scalar] = space.scatter_p2_vector(elem)
    return out


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
    r = space.rule4
    uq = space.velocity_at_quad(u, r)
    elem = np.einsum("t,q,tq,tqi->ti", space.det, r.w, uq[:, :, 1], r.g[:, :, :, 0])
    elem -= np.einsum("t,q,tq,tqi->ti", space.det, r.w, uq[:, :, 0], r.g[:, :, :, 1])
    return space.scatter_p2_vector(elem)
