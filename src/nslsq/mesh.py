"""Triangulations of the two cavity geometries with tagged boundaries.

Meshes are plain vertex/triangle arrays plus a list of boundary edges,
each tagged as moving lid or no-slip wall.  Generators are deterministic
structured constructions; external meshes come in through the Triangle
``.node``/``.ele`` plain-text format.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

R_DISK = 0.5  # semi-disk radius


class Tag(IntEnum):
    """Boundary tags.  LID carries the driven velocity, WALL is no-slip.

    A boundary node, a vertex or an edge midpoint (numbered by the edge
    table ``Mesh.edges``), takes the smallest tag among its boundary
    edges (``node_tags``), so corners shared with a wall are LID.  Tags
    double as Triangle vertex markers; a read edge takes its larger
    endpoint marker, so WALL > LID keeps the corners off the wall edges.
    """

    LID = 1
    WALL = 2


class MeshError(ValueError):
    pass


class ParseError(ValueError):
    pass


@dataclass
class Mesh:
    """Immutable 2D triangulation with tagged boundary edges.

    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise
    boundary_edges : (nb, 2) int array, canonicalized (i < j, lexicographic)
    boundary_tags : (nb,) int array of Tag values
    edges, tri_edges : the edge table of ``unique_edges``, built once; it
        numbers the P2 edge-midpoint dofs, and no edge of it may be used by
        more than two triangles
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(self.boundary_edges, dtype=np.int64)
        self.boundary_tags = np.ascontiguousarray(self.boundary_tags, dtype=np.int64)
        self._canonicalize()
        self._validate()
        for a in (self.vertices, self.triangles, self.boundary_edges,
                  self.boundary_tags, self.edges, self.tri_edges):
            a.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def areas(self) -> np.ndarray:
        """Signed triangle areas (positive for the stored orientation)."""
        return _signed_areas(self.vertices, self.triangles)

    def edge_index(self, pairs: np.ndarray) -> np.ndarray:
        """Table index of each edge of the mesh given as a sorted vertex pair."""
        keys = self.edges @ [self.n_vertices, 1]
        order = np.argsort(keys)
        return order[np.searchsorted(keys, pairs @ [self.n_vertices, 1], sorter=order)]

    def _canonicalize(self):
        if len(self.boundary_edges):
            self.boundary_edges = np.sort(self.boundary_edges, axis=1)
            order = np.lexsort((self.boundary_edges[:, 1], self.boundary_edges[:, 0]))
            self.boundary_edges = self.boundary_edges[order]
            self.boundary_tags = self.boundary_tags[order]

    def _validate(self):
        nv = self.n_vertices
        if not self.n_triangles:
            raise MeshError("empty triangulation: the mesh has no triangles")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("non-finite vertex coordinates")
        if self.triangles.min(initial=0) < 0 or self.triangles.max(initial=-1) >= nv:
            raise MeshError("triangle vertex index out of range")
        if len(self.boundary_edges) and (
            self.boundary_edges.min() < 0 or self.boundary_edges.max() >= nv
        ):
            raise MeshError("boundary edge vertex index out of range")
        unused = np.flatnonzero(np.bincount(self.triangles.ravel(), minlength=nv) == 0)
        if len(unused):
            raise MeshError(f"vertex {unused[0]} belongs to no triangle")
        areas = self.areas()
        bad = np.nonzero(areas <= 0.0)[0]
        if len(bad):
            raise MeshError(f"triangle {bad[0]} has non-positive area {areas[bad[0]]}")
        self.edges, self.tri_edges = unique_edges(self.triangles)
        uses = np.bincount(self.tri_edges.ravel(), minlength=len(self.edges))
        if uses.max(initial=0) > 2:
            k = int(np.argmax(uses))
            raise MeshError(f"edge {tuple(self.edges[k].tolist())} is shared by "
                            f"{uses[k]} triangles (non-manifold)")
        # Boundary edges are exactly the edges owned by a single triangle.
        found = _boundary_of(self.edges, self.tri_edges) @ [nv, 1]
        stored = self.boundary_edges.reshape(-1, 2) @ [nv, 1]
        missing = np.setdiff1d(found, stored)[:3].tolist()
        extra = np.setdiff1d(stored, found)[:3].tolist()
        if missing or extra:
            raise MeshError(
                f"boundary edge set mismatch: missing={[divmod(k, nv) for k in missing]} "
                f"extra={[divmod(k, nv) for k in extra]}"
            )


def unique_edges(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All mesh edges and the triangle->edge map.

    Returns (edges, tri_edges): edges is (ne, 2) sorted vertex pairs in
    first-appearance order (deterministic); tri_edges is (nt, 3) with the
    edge index of (v0,v1), (v1,v2), (v2,v0) per triangle.
    """
    t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    pairs = np.sort(t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    n = int(t.max(initial=-1)) + 1
    _, first, inverse = np.unique(pairs @ [n, 1], return_index=True, return_inverse=True)
    order = np.argsort(first)  # the sorted keys, reordered to first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return pairs[first[order]], rank[inverse].reshape(-1, 3)


def _boundary_of(edges: np.ndarray, tri_edges: np.ndarray) -> np.ndarray:
    """The edges that exactly one triangle uses, in lexicographic order."""
    b = edges[np.bincount(tri_edges.ravel(), minlength=len(edges)) == 1]
    return b[np.lexsort((b[:, 1], b[:, 0]))]


def node_tags(edge_nodes: np.ndarray, tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The corner rule: each node in the rows (one per boundary edge) of
    ``edge_nodes`` takes the smallest tag among its edges.  Returns the
    nodes in ascending order and their tags."""
    nodes, at = np.unique(edge_nodes, return_inverse=True)
    smallest = np.full(len(nodes), np.iinfo(np.int64).max)
    np.minimum.at(smallest, at.ravel(), np.repeat(tags, edge_nodes.shape[1]))
    return nodes, smallest


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    d1 = vertices[triangles[:, 1]] - vertices[triangles[:, 0]]
    d2 = vertices[triangles[:, 2]] - vertices[triangles[:, 0]]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _oriented(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Flip triangles with negative signed area to counterclockwise."""
    t = np.array(triangles, dtype=np.int64)
    neg = _signed_areas(vertices, t) < 0
    t[neg] = t[neg][:, [0, 2, 1]]
    return t


def generate_unit_square(n: int) -> Mesh:
    """Crossed-triangle mesh of [0,1]^2: n*n cells, 4 triangles each.

    All boundary edges are tagged WALL.
    """
    if n < 1:
        raise MeshError(f"n must be >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    centers = (xs[:-1] + xs[1:]) / 2
    # the (n+1)^2 grid vertices, then the n^2 cell centers, x running fastest
    vertices = np.vstack([np.stack(np.meshgrid(x, x), axis=-1).reshape(-1, 2)
                          for x in (xs, centers)])
    g = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)  # grid vertex (x_i, y_j) is g[j, i]
    c00, c10, c11, c01 = g[:-1, :-1], g[:-1, 1:], g[1:, 1:], g[1:, :-1]
    m = (n + 1) ** 2 + np.arange(n * n).reshape(n, n)
    triangles = np.stack([c00, c10, m, c10, c11, m, c11, c01, m, c01, c00, m],
                         axis=-1).reshape(-1, 3)
    edges = _boundary_of(*unique_edges(triangles))
    return Mesh(vertices, triangles, edges, np.full(len(edges), Tag.WALL))


def generate_semidisk(h_target: float) -> Mesh:
    """Structured polar triangulation of the half-disk of radius 1/2, y <= 0.

    Rings of vertices at radii i/nr * R are connected by split quads; the
    innermost ring fans to the center.  The straight diameter edges are
    tagged LID (including the two corner vertices), the arc chords WALL.
    The grading factor 0.8 reproduces the triangle/vertex counts of a
    quasi-uniform unstructured mesh of the same nominal size.
    """
    if not (0.0 < h_target < R_DISK):
        raise MeshError(f"h_target must be in (0, {R_DISK}), got {h_target}")
    s = 0.8 * h_target
    nr = max(2, round(R_DISK / s))
    na = max(4, round(np.pi * R_DISK / s))

    vertices = [(0.0, 0.0)]
    for i in range(1, nr + 1):
        r = R_DISK * i / nr
        for j in range(na + 1):
            theta = -np.pi + np.pi * j / na
            x, y = r * np.cos(theta), r * np.sin(theta)
            if j == 0:
                x, y = -r, 0.0
            elif j == na:
                x, y = r, 0.0
            vertices.append((x, y))
    vertices = np.array(vertices)

    ring = 1 + np.arange(nr * (na + 1)).reshape(nr, na + 1)  # vertex (i, j) is ring[i - 1, j]
    fan = np.column_stack([np.zeros(na, dtype=np.int64), ring[0, :-1], ring[0, 1:]])
    a, b, c, d = ring[:-1, :-1], ring[1:, :-1], ring[1:, 1:], ring[:-1, 1:]
    quads = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    triangles = _oriented(vertices, np.vstack([fan, quads]))

    edges = _boundary_of(*unique_edges(triangles))
    on_diameter = (vertices[edges, 1] == 0.0).all(axis=1)
    mesh = Mesh(vertices, triangles, edges, np.where(on_diameter, Tag.LID, Tag.WALL))
    lengths = edge_lengths(mesh)
    if lengths.max() > 1.5 * h_target:
        raise MeshError(
            f"max edge length {lengths.max():.3g} exceeds 1.5*h_target={1.5 * h_target:.3g}"
        )
    return mesh


def edge_lengths(mesh: Mesh) -> np.ndarray:
    """Length of each edge of the mesh's table."""
    d = mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]]
    return np.hypot(d[:, 0], d[:, 1])


def _table(text: str, name: str, kind: str, size: int):
    """Yield the line number and ``size`` integers of a Triangle table's
    header, then its records as (line number, fields); the caller checks
    the header before it takes a record.

    Comments (``#`` on) and blank lines are skipped.  The header's first
    integer counts the records, and a record is an index and the columns
    the rest of the header declares.  ParseError names the file ``name``,
    the line and the ``kind`` of record.
    """
    lines = (line.split("#", 1)[0].split() for line in text.splitlines())
    records = ((n, fields) for n, fields in enumerate(lines, start=1) if fields)
    lineno, header = next(records, (None, None))
    if header is None:
        raise ParseError(f"{name}: empty file")
    try:
        values = [int(x) for x in header]
    except ValueError:
        values = []
    if len(values) != size:
        raise ParseError(f"{name} line {lineno}: bad header {header!r}")
    count, width = values[0], 1 + sum(values[1:])
    if count < 0:
        raise ParseError(f"{name} line {lineno}: negative {kind} count {count}")
    yield lineno, values
    for k in range(count):
        lineno, fields = next(records, (None, None))
        if fields is None:
            raise ParseError(f"{name}: expected {count} {kind} records, got {k}")
        if len(fields) != width:
            raise ParseError(f"{name} line {lineno}: expected {width} fields")
        yield lineno, fields
    lineno, _ = next(records, (None, None))
    if lineno is not None:
        raise ParseError(f"{name} line {lineno}: record past the declared "
                         f"{count} {kind} records")


def read_triangle_format(node_text: str, ele_text: str) -> Mesh:
    """Parse Triangle ``.node``/``.ele`` texts (2D, attribute-free subset).

    Vertex boundary markers are ``Tag`` values, as ``write_triangle_format``
    writes them, or 0 for an unmarked vertex; a file without a marker
    column marks none.  A boundary edge gets the larger of its endpoint
    markers, and an edge between two unmarked vertices is WALL.
    Clockwise triangles are reordered.  Raises ParseError with the
    offending line number, also for a record past a header's count and
    for a ``.node`` or ``.ele`` index that does not follow its predecessor.
    """
    rows = _table(node_text, ".node", "vertex", 4)
    lineno, (nv, dim, nattr, nmark) = next(rows)
    if dim != 2 or nattr != 0:
        raise ParseError(f".node line {lineno}: only 2D attribute-free files supported")
    if nmark not in (0, 1):
        raise ParseError(f".node line {lineno}: boundary marker count must be 0 or 1")
    vertices = np.zeros((nv, 2))
    markers = np.zeros(nv, dtype=np.int64)
    base = 0  # with no vertices, every .ele index is out of range
    for k, (lineno, fields) in enumerate(rows):
        try:
            idx = int(fields[0])
            vertices[k] = float(fields[1]), float(fields[2])
            markers[k] = int(fields[3]) if nmark else 0
        except (ValueError, OverflowError):  # past int64 overflows
            raise ParseError(f".node line {lineno}: malformed record") from None
        if k == 0:
            if idx not in (0, 1):
                raise ParseError(f".node line {lineno}: first index must be 0 or 1")
            base = idx
        if idx - base != k:
            raise ParseError(f".node line {lineno}: non-consecutive index {idx}")

    rows = _table(ele_text, ".ele", "triangle", 3)
    lineno, (nt, per_tri, nattr) = next(rows)
    if per_tri != 3 or nattr != 0:
        raise ParseError(f".ele line {lineno}: only 3-node attribute-free triangles supported")
    triangles = np.zeros((nt, 3), dtype=np.int64)
    for k, (lineno, fields) in enumerate(rows):
        try:
            idx = int(fields[0])
            tri = [int(f) - base for f in fields[1:]]
        except ValueError:
            raise ParseError(f".ele line {lineno}: malformed record") from None
        if min(tri) < 0 or max(tri) >= nv:
            raise ParseError(f".ele line {lineno}: vertex index out of range")
        if idx - base != k:
            raise ParseError(f".ele line {lineno}: non-consecutive index {idx}")
        triangles[k] = tri

    triangles = _oriented(vertices, triangles)
    edges = _boundary_of(*unique_edges(triangles))
    marks = markers[edges].max(axis=1)
    unknown = np.flatnonzero(~np.isin(marks, [0, *Tag]))
    if len(unknown):
        (i, j), mark = edges[unknown[0]].tolist(), marks[unknown[0]]
        raise ParseError(f"boundary edge ({i},{j}) has unmapped marker {mark}")
    return Mesh(vertices, triangles, edges, np.where(marks == 0, Tag.WALL, marks))


def write_triangle_format(mesh: Mesh) -> tuple[str, str]:
    """Triangle ``.node``/``.ele`` texts; round-trips bit-stable.

    Vertex markers: 0 interior, else the boundary vertex's tag by the
    corner rule of ``node_tags`` (corners shared by LID and WALL edges
    are marked LID, matching the generators' corner policy).
    """
    markers = np.zeros(mesh.n_vertices, dtype=np.int64)
    nodes, tags = node_tags(mesh.boundary_edges, mesh.boundary_tags)
    markers[nodes] = tags
    lines = [f"{mesh.n_vertices} 2 0 1"]
    for k, (x, y) in enumerate(mesh.vertices):
        lines.append(f"{k + 1} {float(x)!r} {float(y)!r} {markers[k]}")
    node_text = "\n".join(lines) + "\n"
    lines = [f"{mesh.n_triangles} 3 0"]
    for k, (a, b, c) in enumerate(mesh.triangles):
        lines.append(f"{k + 1} {a + 1} {b + 1} {c + 1}")
    ele_text = "\n".join(lines) + "\n"
    return node_text, ele_text
