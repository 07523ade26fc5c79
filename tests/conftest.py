import numpy as np
import pytest
import scipy.sparse as sp

from nslsq import newton
from nslsq.fem import Space, build_space, convection_scalar_block
from nslsq.linalg import SaddleFactorization, SaddlePattern, SolverError
from nslsq.mesh import Mesh, generate_semidisk, generate_unit_square


@pytest.fixture(scope="session")
def square1() -> Space:
    return build_space(generate_unit_square(1))


@pytest.fixture(scope="session")
def square2() -> Space:
    return build_space(generate_unit_square(2))


@pytest.fixture(scope="session")
def square4() -> Space:
    return build_space(generate_unit_square(4))


@pytest.fixture(scope="session")
def disk_coarse() -> Space:
    return build_space(generate_semidisk(0.12))


# The injected failures at k = 1 of the outer loop: the patched ``newton``
# name, the error it raises on its second call, and the outcome that ends the loop.
LOOP_FAILURES = (
    ("line_search_quartic", ValueError("Cauchy-Schwarz violated"), "line_search_failed"),
    ("compute_direction", SolverError("injected singular level"), "solver_failed"),
)


def fail_second_call(monkeypatch, name: str, error: Exception):
    """Patch ``newton.<name>`` to raise ``error`` on its second call."""
    original = getattr(newton, name)
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 2:
            raise error
        return original(*args)

    monkeypatch.setattr(newton, name, failing)


def constant_field(space: Space, cx: float, cy: float) -> np.ndarray:
    u = np.empty(space.n_velocity)
    u[: space.n_scalar] = cx
    u[space.n_scalar:] = cy
    return u


def linear_field(space: Space, coeffs_x, coeffs_y) -> np.ndarray:
    """Velocity (a + b*x + c*y) per component from coefficient triples."""
    x, y = space.p2_coords[:, 0], space.p2_coords[:, 1]
    ax, bx, cx = coeffs_x
    ay, by, cy = coeffs_y
    return np.concatenate([ax + bx * x + cx * y, ay + by * x + cy * y])


def jittered_semidisk(h: float, seed: int) -> Mesh:
    """The semi-disk with every interior vertex moved by at most a tenth
    of the shortest edge of the mesh."""
    mesh = generate_semidisk(h)
    p, t = mesh.vertices, mesh.triangles
    shortest = min(np.linalg.norm(p[t[:, i]] - p[t[:, (i + 1) % 3]], axis=1).min()
                   for i in range(3))
    rng = np.random.default_rng(seed)
    shift = rng.uniform(-0.07, 0.07, p.shape) * shortest
    shift[np.unique(mesh.boundary_edges)] = 0.0
    return Mesh(p + shift, t, mesh.boundary_edges, mesh.boundary_tags)


def eliminate_dirichlet(matrix, constrained: np.ndarray):
    """Reference symmetric elimination of the constrained dofs of a square
    matrix, independent of ``linalg.EliminatedPattern``.

    Returns the eliminated matrix (the free-free entries and a unit
    diagonal on the constrained dofs, through ``coo.tocsc()``) and the
    coupling matrix mapping constrained values to the rhs correction of
    the free rows.
    """
    n = matrix.shape[0]
    coo = matrix.tocoo()
    free = np.ones(n, dtype=bool)
    free[constrained] = False
    keep = free[coo.row] & free[coo.col]
    rows = np.concatenate([coo.row[keep], constrained])
    cols = np.concatenate([coo.col[keep], constrained])
    data = np.concatenate([coo.data[keep], np.ones(len(constrained))])
    eliminated = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()

    pos = np.full(n, -1, dtype=np.int64)
    pos[constrained] = np.arange(len(constrained))
    cpl = free[coo.row] & ~free[coo.col]
    coupling = sp.coo_matrix(
        (coo.data[cpl], (coo.row[cpl], pos[coo.col[cpl]])),
        shape=(n, len(constrained))).tocsr()
    return eliminated, coupling


def linearized_pattern_reference(space: Space, M, B) -> dict:
    """The arrays of the linearized saddle pattern, built the direct way:
    every entry of the divergence blocks, of ``M`` and of the four
    convection blocks in (c, d, triangle, i, j) order, deduplicated by one
    ``np.unique`` over all of their keys.

    Returns ``indices``, ``indptr``, ``_slots``, ``_diagonal``,
    ``_coupled`` and ``_coupled_at`` as ``linalg.EliminatedPattern``
    names them.
    """
    n_vel = space.n_velocity
    n = n_vel + B.shape[0]
    b, a = B.tocoo(), M.tocoo()
    tri = space.tri_p2 + space.n_scalar * np.arange(2)[:, None, None]
    shape = (2, 2, *space.tri_p2.shape, 6)
    rows = np.concatenate([b.col, n_vel + b.row, a.row,
                           np.broadcast_to(tri[:, None, :, :, None], shape).ravel()])
    cols = np.concatenate([n_vel + b.row, b.col, a.col,
                           np.broadcast_to(tri[None, :, :, None, :], shape).ravel()])
    constrained = np.append(space.dirichlet_dofs, n_vel)
    nc = len(constrained)
    free = np.ones(n, dtype=bool)
    free[constrained] = False
    keep = free[rows] & free[cols]
    keys, slots = np.unique(
        np.concatenate([cols[keep].astype(np.int64) * n + rows[keep],
                        constrained * (n + 1)]),
        return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    all_slots = np.full(len(rows), len(keys))
    all_slots[keep] = slots[: len(slots) - nc]
    coupled = np.flatnonzero(free[rows] & ~free[cols])
    position = np.empty(n, dtype=np.intp)
    position[constrained] = np.arange(nc)
    return {"indices": (keys % n).astype(np.int32), "indptr": indptr,
            "_slots": all_slots, "_diagonal": slots[len(slots) - nc:],
            "_coupled": coupled,
            "_coupled_at": (rows[coupled], position[cols[coupled]])}


def boundary_edges_brute_force(triangles: np.ndarray) -> set[tuple[int, int]]:
    """Edges appearing in exactly one triangle, as sorted vertex pairs."""
    count: dict[tuple[int, int], int] = {}
    for a, b, c in np.asarray(triangles):
        for i, j in ((a, b), (b, c), (c, a)):
            key = (int(min(i, j)), int(max(i, j)))
            count[key] = count.get(key, 0) + 1
    return {e for e, n in count.items() if n == 1}


def unique_edges_reference(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mesh.unique_edges`` by a dict over the sorted vertex pairs, each
    edge numbered at its first appearance."""
    index: dict[tuple[int, int], int] = {}
    tri_edges = np.empty((len(triangles), 3), dtype=np.int64)
    for t, (a, b, c) in enumerate(np.asarray(triangles)):
        for k, (i, j) in enumerate(((a, b), (b, c), (c, a))):
            key = (int(min(i, j)), int(max(i, j)))
            e = index.get(key)
            if e is None:
                e = len(index)
                index[key] = e
            tri_edges[t, k] = e
    edges = np.array(list(index.keys()), dtype=np.int64).reshape(-1, 2)
    return edges, tri_edges


def space_layout_reference(mesh: Mesh) -> dict:
    """The dof layout of ``fem.Space`` built the direct way: the dict edge
    numbering and a dict of boundary node tags, where each boundary
    edge's vertices and midpoint take the smallest tag of their edges.

    Returns ``edges``, ``tri_edges``, ``tri_p2``, ``boundary_nodes``,
    ``boundary_node_tags`` and ``dirichlet_dofs`` as ``Space`` names them.
    """
    nv = mesh.n_vertices
    edges, tri_edges = unique_edges_reference(mesh.triangles)
    edge_index = {(int(i), int(j)): k for k, (i, j) in enumerate(edges)}
    tag_of: dict[int, int] = {}
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        mid = nv + edge_index[(int(i), int(j))]
        for node in (int(i), int(j), mid):
            tag_of[node] = min(tag_of.get(node, int(tag)), int(tag))
    nodes = np.array(sorted(tag_of), dtype=np.int64)
    return {"edges": edges, "tri_edges": tri_edges,
            "tri_p2": np.hstack([mesh.triangles, nv + tri_edges]),
            "boundary_nodes": nodes,
            "boundary_node_tags": np.array([tag_of[int(n)] for n in nodes], dtype=np.int64),
            "dirichlet_dofs": np.concatenate([nodes, nodes + nv + len(edges)])}


def assemble_convection(space: Space, a: np.ndarray) -> sp.csr_matrix:
    """Matrix C(a) of the form int((a.grad)u . w); linear in a."""
    c = space._scatter(convection_scalar_block(space, a), space.tri_p2, space.n_scalar)
    return sp.block_diag((c, c), format="csr")


def assemble_linearized_convection(space: Space, y: np.ndarray) -> sp.csr_matrix:
    """L(y) = C(y) + D(y) with D(y) the reaction part int((u.grad)y . w)."""
    r = space.rule
    c = space._scatter(convection_scalar_block(space, y), space.tri_p2, space.n_scalar)
    gy = space.velocity_grad_at_quad(y)   # (nt, nq, 2, 2)
    blocks = [[None, None], [None, None]]
    for ci in range(2):
        for d in range(2):
            elem = np.einsum("t,q,qi,qj,tq->tij",
                             space.det, r.w, r.phi, r.phi, gy[:, :, ci, d])
            blocks[ci][d] = space._scatter(elem, space.tri_p2, space.n_scalar)
    dmat = sp.bmat(blocks, format="csr")
    return sp.block_diag((c, c), format="csr") + dmat


def saddle_factorization(A: sp.spmatrix, B: sp.spmatrix, dirichlet_dofs: np.ndarray,
                         label: str) -> SaddleFactorization:
    """LU of [[A, B^T], [B, 0]] on a saddle pattern of its own."""
    a = A.tocoo()
    pattern = SaddlePattern(a.row, a.col, B, dirichlet_dofs)
    (fact,) = pattern.factorize_all((pattern.values(a.data), label))
    return fact
