import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nslsq.mesh import (
    Mesh,
    MeshError,
    ParseError,
    Tag,
    edge_lengths,
    generate_semidisk,
    generate_unit_square,
    read_triangle_format,
    unique_edges,
    write_triangle_format,
)

from conftest import boundary_edges_brute_force, unique_edges_reference

TWO_TRI_NODE = """\
4 2 0 1
1 0.0 0.0 2
2 1.0 0.0 2
3 1.0 1.0 2
4 0.0 1.0 2
"""
TWO_TRI_ELE = """\
2 3 0
1 1 2 3
2 1 3 4
"""


def test_unit_square_n1_counts():
    mesh = generate_unit_square(1)
    assert mesh.n_vertices == 5
    assert mesh.n_triangles == 4
    assert len(mesh.boundary_edges) == 4
    assert set(mesh.boundary_tags) == {Tag.WALL}


def test_unit_square_n2_counts():
    mesh = generate_unit_square(2)
    assert mesh.n_triangles == 16
    assert len(mesh.boundary_edges) == 8


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_unit_square_area_partition(n):
    mesh = generate_unit_square(n)
    assert abs(mesh.areas().sum() - 1.0) < 1e-12


@pytest.mark.parametrize("make", [lambda: generate_unit_square(3), lambda: generate_semidisk(0.12)])
def test_positive_areas_and_boundary_extraction(make):
    mesh = make()
    assert (mesh.areas() > 0).all()
    assert {tuple(e) for e in mesh.boundary_edges} == boundary_edges_brute_force(mesh.triangles)


def test_semidisk_counts_match_reference_mesh():
    mesh = generate_semidisk(1.62e-2)
    assert abs(mesh.n_triangles - 9064) <= 0.2 * 9064
    assert abs(mesh.n_vertices - 4663) <= 0.2 * 4663


@pytest.mark.parametrize("h", [0.12, 0.05])
def test_semidisk_geometry(h):
    mesh = generate_semidisk(h)
    assert abs(mesh.areas().sum() - np.pi / 8) < 0.01 * np.pi / 8
    assert edge_lengths(mesh).max() <= 1.5 * h
    lid = mesh.boundary_edges[mesh.boundary_tags == Tag.LID]
    assert np.max(np.abs(mesh.vertices[lid.ravel(), 1])) == 0.0
    wall = mesh.boundary_edges[mesh.boundary_tags == Tag.WALL]
    radii = np.hypot(*mesh.vertices[np.unique(wall)].T)
    assert np.max(np.abs(radii - 0.5)) <= 1e-12


def test_semidisk_corners_are_lid():
    mesh = generate_semidisk(0.1)
    for corner in ((-0.5, 0.0), (0.5, 0.0)):
        k = int(np.argmin(np.hypot(*(mesh.vertices - corner).T)))
        assert np.allclose(mesh.vertices[k], corner)
        incident = mesh.boundary_tags[(mesh.boundary_edges == k).any(axis=1)]
        assert Tag.LID in incident


def test_semidisk_lid_covers_diameter():
    mesh = generate_semidisk(0.1)
    lid = mesh.boundary_edges[mesh.boundary_tags == Tag.LID]
    xs = np.sort(mesh.vertices[np.unique(lid), 0])
    assert xs[0] == -0.5 and xs[-1] == 0.5


def test_semidisk_rejects_bad_h():
    with pytest.raises(MeshError):
        generate_semidisk(0.0)
    with pytest.raises(MeshError):
        generate_semidisk(0.6)


def test_read_two_triangle_file():
    mesh = read_triangle_format(TWO_TRI_NODE, TWO_TRI_ELE)
    assert mesh.n_triangles == 2
    assert len(mesh.boundary_edges) == 4
    assert (mesh.areas() > 0).all()


def test_read_fixes_clockwise_triangle():
    ele = "2 3 0\n1 1 3 2\n2 1 3 4\n"
    mesh = read_triangle_format(TWO_TRI_NODE, ele)
    assert (mesh.areas() > 0).all()


def test_read_reports_out_of_range_index():
    ele = "2 3 0\n1 1 2 3\n2 1 3 9\n"
    with pytest.raises(ParseError, match="line 3"):
        read_triangle_format(TWO_TRI_NODE, ele)


def test_read_reports_malformed_line():
    node = TWO_TRI_NODE.replace("2 1.0 0.0 2", "2 1.0 oops 2")
    with pytest.raises(ParseError, match="line 3"):
        read_triangle_format(node, TWO_TRI_ELE)


def test_read_rejects_non_consecutive_ele_index():
    """An .ele record index must follow its predecessor from the .node
    file's base, as .node indices must."""
    for bad in ("3 1 3 4", "0 1 3 4", "1 1 3 4"):
        ele = TWO_TRI_ELE.replace("2 1 3 4", bad)
        index = bad.split()[0]
        with pytest.raises(ParseError, match=rf"^\.ele line 3: non-consecutive index {index}$"):
            read_triangle_format(TWO_TRI_NODE, ele)
    first = TWO_TRI_ELE.replace("1 1 2 3", "0 1 2 3")
    with pytest.raises(ParseError, match=r"^\.ele line 2: non-consecutive index 0$"):
        read_triangle_format(TWO_TRI_NODE, first)


def test_read_rejects_unmapped_marker():
    """Markers are Tag values or 0; a boundary edge with a larger endpoint
    marker than any tag is rejected."""
    node = TWO_TRI_NODE.replace("2 1.0 0.0 2", "2 1.0 0.0 3")
    with pytest.raises(ParseError, match=r"^boundary edge \(0,1\) has unmapped marker 3$"):
        read_triangle_format(node, TWO_TRI_ELE)


def test_read_takes_markers_as_tags():
    """Marker 1 is the lid and 2 a wall; an edge between two unmarked
    vertices is a wall."""
    node = "4 2 0 1\n1 0.0 0.0 1\n2 1.0 0.0 1\n3 1.0 1.0 0\n4 0.0 1.0 0\n"
    mesh = read_triangle_format(node, TWO_TRI_ELE)
    tags = dict(zip(map(tuple, mesh.boundary_edges.tolist()), mesh.boundary_tags.tolist()))
    assert tags == {(0, 1): Tag.LID, (1, 2): Tag.LID, (2, 3): Tag.WALL, (0, 3): Tag.LID}


def test_write_read_round_trip_bit_stable():
    """Both generators' meshes, the semi-disk with lid and wall markers and
    the all-wall unit square, read back bit for bit."""
    for mesh in (generate_semidisk(0.11), generate_unit_square(3)):
        node, ele = write_triangle_format(mesh)
        back = read_triangle_format(node, ele)
        assert np.array_equal(mesh.vertices, back.vertices)
        assert np.array_equal(mesh.triangles, back.triangles)
        assert np.array_equal(mesh.boundary_edges, back.boundary_edges)
        assert np.array_equal(mesh.boundary_tags, back.boundary_tags)
        node2, ele2 = write_triangle_format(back)
        assert node2 == node and ele2 == ele


def test_mesh_validation_rejects_bad_boundary():
    mesh = generate_unit_square(1)
    with pytest.raises(MeshError, match="boundary edge set"):
        Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges[:-1], mesh.boundary_tags[:-1])


@pytest.mark.parametrize("make", [lambda: generate_unit_square(3), lambda: generate_semidisk(0.12)])
def test_every_edge_shared_by_at_most_two_triangles(make):
    mesh = make()
    edges, tri_edges = unique_edges(mesh.triangles)
    counts = np.bincount(tri_edges.ravel(), minlength=len(edges))
    assert counts.max() <= 2
    boundary = {tuple(e) for e in mesh.boundary_edges}
    for e, c in zip(edges, counts):
        assert c == (1 if tuple(e) in boundary else 2)


def test_comments_and_zero_based_indices():
    node = "# comment\n3 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\n"
    ele = "1 3 0\n0 0 1 2\n"
    mesh = read_triangle_format(node, ele)
    assert mesh.n_triangles == 1
    assert len(mesh.boundary_edges) == 3
    assert set(mesh.boundary_tags) == {Tag.WALL}  # no marker column: all wall


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 12)] * 3), max_size=40))
def test_unique_edges_numbers_edges_at_first_appearance(triangles):
    triangles = np.array(triangles, dtype=np.int64).reshape(-1, 3)
    edges, tri_edges = unique_edges(triangles)
    ref_edges, ref_tri_edges = unique_edges_reference(triangles)
    assert edges.dtype == tri_edges.dtype == np.int64
    assert np.array_equal(edges, ref_edges)
    assert np.array_equal(tri_edges, ref_tri_edges)


def test_mesh_keeps_its_edge_table():
    mesh = generate_semidisk(0.12)
    edges, tri_edges = unique_edges(mesh.triangles)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.tri_edges, tri_edges)
    assert not mesh.edges.flags.writeable and not mesh.tri_edges.flags.writeable
    assert np.array_equal(mesh.edge_index(edges[::-1]), np.arange(len(edges))[::-1])


def test_mesh_validation_rejects_unused_vertex():
    mesh = generate_unit_square(1)
    vertices = np.vstack([mesh.vertices, [[2.0, 2.0]]])
    with pytest.raises(MeshError, match="vertex 5 belongs to no triangle"):
        Mesh(vertices, mesh.triangles, mesh.boundary_edges, mesh.boundary_tags)


def test_mesh_validation_names_missing_and_extra_edges():
    mesh = generate_unit_square(1)
    edges = np.vstack([mesh.boundary_edges[1:], [[0, 4]]])
    with pytest.raises(MeshError, match=r"missing=\[\(0, 1\)\] extra=\[\(0, 4\)\]"):
        Mesh(mesh.vertices, mesh.triangles, edges, mesh.boundary_tags)


def test_mesh_validation_rejects_non_manifold_edge():
    """A fan of three positive-area triangles on one edge is rejected, by
    the edge that three triangles use."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, 3.0]])
    triangles = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    edges = np.array([[0, 2], [1, 2], [0, 3], [1, 3], [0, 4], [1, 4]])
    with pytest.raises(MeshError, match=r"edge \(0, 1\) is shared by 3 triangles"):
        Mesh(vertices, triangles, edges, np.full(len(edges), Tag.WALL))


def test_read_reports_records_past_the_declared_counts():
    node = TWO_TRI_NODE + "5 0.5 0.5 2\n"
    with pytest.raises(ParseError, match=r"\.node line 6: record past the declared 4 vertex"):
        read_triangle_format(node, TWO_TRI_ELE)
    ele = TWO_TRI_ELE + "3 2 3 4\n"
    with pytest.raises(ParseError, match=r"\.ele line 4: record past the declared 2 triangle"):
        read_triangle_format(TWO_TRI_NODE, ele)
    # comments and blank lines after the last record are not records
    mesh = read_triangle_format(TWO_TRI_NODE + "\n# end\n", TWO_TRI_ELE + "# end\n")
    assert mesh.n_vertices == 4 and mesh.n_triangles == 2


def test_read_reports_marker_past_int64():
    """A marker too large for the int64 marker array is a malformed
    record of its line, not an ``OverflowError``."""
    node = "3 2 0 1\n1 0 0 99999999999999999999\n2 1 0 0\n3 0 1 0\n"
    with pytest.raises(ParseError, match=r"^\.node line 2: malformed record$"):
        read_triangle_format(node, "1 3 0\n1 1 2 3\n")


def test_read_reports_triangles_over_an_empty_vertex_list():
    with pytest.raises(ParseError, match=r"\.ele line 2: vertex index out of range"):
        read_triangle_format("0 2 0 1\n", TWO_TRI_ELE)


def test_read_reports_negative_counts():
    node = TWO_TRI_NODE.replace("4 2 0 1", "-4 2 0 1")
    with pytest.raises(ParseError, match=r"\.node line 1: negative vertex count -4"):
        read_triangle_format(node, TWO_TRI_ELE)
    ele = TWO_TRI_ELE.replace("2 3 0", "-2 3 0")
    with pytest.raises(ParseError, match=r"\.ele line 1: negative triangle count -2"):
        read_triangle_format(TWO_TRI_NODE, ele)


def _node(old, new):
    return TWO_TRI_NODE.replace(old, new), TWO_TRI_ELE


def _ele(old, new):
    return TWO_TRI_NODE, TWO_TRI_ELE.replace(old, new)


READER_ERRORS = [
    (("", TWO_TRI_ELE), ".node: empty file"),
    (("# only a comment\n\n", TWO_TRI_ELE), ".node: empty file"),
    (_node("4 2 0 1", "4 2 0"), ".node line 1: bad header ['4', '2', '0']"),
    (_node("4 2 0 1", "4 2 x 1"), ".node line 1: bad header ['4', '2', 'x', '1']"),
    (_node("4 2 0 1", "-4 2 0 1"), ".node line 1: negative vertex count -4"),
    (_node("4 2 0 1", "4 3 0 1"), ".node line 1: only 2D attribute-free files supported"),
    (_node("4 2 0 1", "4 2 1 1"), ".node line 1: only 2D attribute-free files supported"),
    (_node("4 2 0 1", "4 2 0 2"), ".node line 1: boundary marker count must be 0 or 1"),
    (_node("4 0.0 1.0 2\n", ""), ".node: expected 4 vertex records, got 3"),
    (_node("2 1.0 0.0 2", "2 1.0 0.0"), ".node line 3: expected 4 fields"),
    (_node("4 2 0 1", "4 2 0 0"), ".node line 2: expected 3 fields"),
    (_node("2 1.0 0.0 2", "2 1.0 oops 2"), ".node line 3: malformed record"),
    (_node("1 0.0 0.0 2", "2 0.0 0.0 2"), ".node line 2: first index must be 0 or 1"),
    (_node("2 1.0 0.0 2", "3 1.0 0.0 2"), ".node line 3: non-consecutive index 3"),
    (_node("4 0.0 1.0 2\n", "4 0.0 1.0 2\n5 0.5 0.5 2\n"),
     ".node line 6: record past the declared 4 vertex records"),
    ((TWO_TRI_NODE, ""), ".ele: empty file"),
    (_ele("2 3 0", "2 3"), ".ele line 1: bad header ['2', '3']"),
    (_ele("2 3 0", "-2 3 0"), ".ele line 1: negative triangle count -2"),
    (_ele("2 3 0", "2 4 0"), ".ele line 1: only 3-node attribute-free triangles supported"),
    (_ele("2 3 0", "2 3 1"), ".ele line 1: only 3-node attribute-free triangles supported"),
    (_ele("2 1 3 4\n", ""), ".ele: expected 2 triangle records, got 1"),
    (_ele("2 1 3 4", "2 1 3"), ".ele line 3: expected 4 fields"),
    (_ele("2 1 3 4", "2 1 3 x"), ".ele line 3: malformed record"),
    (_ele("2 1 3 4", "2 1 3 9"), ".ele line 3: vertex index out of range"),
    (_ele("2 1 3 4", "3 1 3 4"), ".ele line 3: non-consecutive index 3"),
    (_ele("2 1 3 4\n", "2 1 3 4\n3 2 3 4\n"),
     ".ele line 4: record past the declared 2 triangle records"),
]


@pytest.mark.parametrize("texts, message", READER_ERRORS,
                         ids=[message for _, message in READER_ERRORS])
def test_read_error_messages(texts, message):
    """Every ParseError of the two files' checks, by its whole text."""
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        read_triangle_format(*texts)


def test_empty_triangulation_is_rejected():
    with pytest.raises(MeshError, match="^empty triangulation: the mesh has no triangles$"):
        read_triangle_format("0 2 0 1\n", "0 3 0\n")
    with pytest.raises(MeshError, match="empty triangulation"):
        Mesh(np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize("name, make, digest", [
    ("square3", lambda: generate_unit_square(3), "1c6c42ecc5401eb7"),
    ("disk0.2", lambda: generate_semidisk(0.2), "2579011ec36828ea"),
])
def test_write_triangle_format_text_is_frozen(name, make, digest):
    """The texts of two meshes, frozen as written by the dict-based marker
    loop that ``node_tags`` replaced."""
    import hashlib

    node, ele = write_triangle_format(make())
    assert hashlib.sha256((node + ele).encode()).hexdigest()[:16] == digest
