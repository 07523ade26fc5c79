import numpy as np
import pytest
import scipy.sparse as sp

from nslsq import fem
from nslsq import manufactured as mf
from nslsq.fem import (
    assemble_divergence,
    assemble_mass,
    assemble_stiffness,
    build_space,
    convection_vector,
    lid_boundary_values,
    rule_deg5,
)
from nslsq.mesh import (
    Tag,
    generate_semidisk,
    generate_unit_square,
    read_triangle_format,
    write_triangle_format,
)
from nslsq.timestepping import Operators, TimeGrid

from conftest import (
    assemble_convection,
    assemble_linearized_convection,
    constant_field,
    jittered_semidisk,
    linear_field,
    space_layout_reference,
)

# P2 element mass matrix of a triangle with area A, local order
# [v0, v1, v2, e01, e12, e20], integrated exactly (frozen CAS result).
P2_MASS_OVER_AREA = np.array(
    [[6, -1, -1, 0, -4, 0],
     [-1, 6, -1, 0, 0, -4],
     [-1, -1, 6, -4, 0, 0],
     [0, 0, -4, 32, 16, 16],
     [-4, 0, 0, 16, 32, 16],
     [0, -4, 0, 16, 16, 32]]) / 180.0


def reference_element_matrices_sympy():
    """Exact P2 mass and stiffness element matrices and the divergence
    blocks ``[int(psi_k d_x phi_j) | int(psi_k d_y phi_j)]`` (3 x 12, the
    layout of B) on the reference triangle (0,0)-(1,0)-(0,1), by symbolic
    integration."""
    import sympy as sy

    x, y = sy.symbols("x y")
    l0, l1, l2 = 1 - x - y, x, y
    basis = [l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
             4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0]

    def integral(f):
        return sy.integrate(sy.integrate(f, (y, 0, 1 - x)), (x, 0, 1))

    mass = sy.zeros(6, 6)
    stiff = sy.zeros(6, 6)
    for i in range(6):
        for j in range(i, 6):
            mass[i, j] = mass[j, i] = integral(basis[i] * basis[j])
            stiff[i, j] = stiff[j, i] = integral(
                sy.diff(basis[i], x) * sy.diff(basis[j], x)
                + sy.diff(basis[i], y) * sy.diff(basis[j], y))
    div = sy.zeros(3, 12)
    for k, psi in enumerate((l0, l1, l2)):
        for d, var in enumerate((x, y)):
            for j in range(6):
                div[k, 6 * d + j] = integral(psi * sy.diff(basis[j], var))
    return tuple(np.array(m, dtype=float) for m in (mass, stiff, div))


@pytest.fixture(scope="module")
def ref_space():
    # single reference triangle (0,0)-(1,0)-(0,1); boundary all WALL
    from nslsq.mesh import Mesh

    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]),
                np.array([[0, 1], [1, 2], [0, 2]]),
                np.array([Tag.WALL] * 3))
    return build_space(mesh)


def test_quadrature_rules_integrate_their_degree():
    from math import factorial

    pts, ws = rule_deg5()
    for i in range(6):
        for j in range(6 - i):
            exact = factorial(i) * factorial(j) / factorial(i + j + 2)
            got = np.sum(ws * pts[:, 0] ** i * pts[:, 1] ** j)
            assert abs(got - exact) < 1e-15


def test_element_mass_matches_frozen_analytic(ref_space):
    elem = ref_space.scalar_mass.toarray()
    area = 0.5
    assert np.abs(elem - area * P2_MASS_OVER_AREA).max() < 1e-12


def test_element_matrices_match_sympy(ref_space):
    mass_exact, stiff_exact, div_exact = reference_element_matrices_sympy()
    assert np.abs(ref_space.scalar_mass.toarray() - mass_exact).max() < 1e-12
    assert np.abs(ref_space.scalar_stiffness.toarray() - stiff_exact).max() < 1e-12
    assert np.abs(assemble_divergence(ref_space).toarray() - div_exact).max() < 1e-12
    assert np.abs(mass_exact - 0.5 * P2_MASS_OVER_AREA).max() < 1e-15


def test_mass_of_constant_is_domain_area(square2):
    M = assemble_mass(square2)
    u = constant_field(square2, 1.0, 0.0)
    assert abs(u @ (M @ u) - 1.0) < 1e-10
    assert (abs(M - M.T)).max() == 0.0


def test_stiffness_kernel_and_linear_energy(square2):
    K = assemble_stiffness(square2)
    c = constant_field(square2, 3.0, -2.0)
    assert np.abs(K @ c).max() < 1e-12
    u = linear_field(square2, (0.0, 1.0, 0.0), (0.0, 0.0, 0.0))  # u=(x,0)
    assert abs(u @ (K @ u) - 1.0) < 1e-10
    assert (abs(K - K.T)).max() == 0.0


def test_divergence_of_rigid_rotation_vanishes(square2):
    B = assemble_divergence(square2)
    u = linear_field(square2, (0.0, 0.0, -1.0), (0.0, 1.0, 0.0))  # (-y, x)
    assert np.abs(B @ u).max() < 1e-10


def test_divergence_theorem_and_constant_flux(square2):
    B = assemble_divergence(square2)
    ones = np.ones(square2.n_pressure)
    u = linear_field(square2, (0.0, 1.0, 0.0), (0.0, 0.0, 0.0))  # (x,0): div=1
    assert abs(ones @ (B @ u) - 1.0) < 1e-10
    c = constant_field(square2, 2.0, 5.0)  # closed constant flux
    assert abs(ones @ (B @ c)) < 1e-10


def test_convection_zero_and_linearity(square2):
    a0 = np.zeros(square2.n_velocity)
    assert assemble_convection(square2, a0).nnz == 0 or \
        np.abs(assemble_convection(square2, a0).data).max() == 0.0
    rng = np.random.default_rng(3)
    a1 = rng.standard_normal(square2.n_velocity)
    a2 = rng.standard_normal(square2.n_velocity)
    lhs = assemble_convection(square2, a1 + a2)
    rhs = assemble_convection(square2, a1) + assemble_convection(square2, a2)
    assert np.abs((lhs - rhs).toarray()).max() < 1e-12


def test_convection_skew_symmetry_identity(square2):
    """For zero-trace a: u^T C(a) u = -1/2 int(div a |u|^2), exactly at the
    quadrature level (degree-5 integrands, telescoping interior fluxes)."""
    space = square2
    rng = np.random.default_rng(7)
    a = rng.standard_normal(space.n_velocity)
    dofs = space.dirichlet_dofs
    a[dofs] = 0.0  # zero boundary trace
    u = rng.standard_normal(space.n_velocity)
    C = assemble_convection(space, a)
    lhs = u @ (C @ u)
    r = space.rule
    ga = space.velocity_grad_at_quad(a)
    uq = space.velocity_at_quad(u)
    diva = ga[:, :, 0, 0] + ga[:, :, 1, 1]
    u2 = uq[:, :, 0] ** 2 + uq[:, :, 1] ** 2
    rhs = -0.5 * np.einsum("t,q,tq,tq->", space.det, r.w, diva, u2)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) < 1e-12 * scale


def test_convection_kind_mismatch_raises(square2):
    with pytest.raises(ValueError, match="VelocityP2"):
        assemble_convection(square2, np.zeros(7))


def test_linearized_convection_zero_and_split(square2):
    space = square2
    z = np.zeros(space.n_velocity)
    L0 = assemble_linearized_convection(space, z)
    assert np.abs(L0.toarray()).max() == 0.0
    rng = np.random.default_rng(11)
    y = rng.standard_normal(space.n_velocity)
    u = rng.standard_normal(space.n_velocity)
    L = assemble_linearized_convection(space, y)
    # D(y)u = C(u)y, so L(y)u must equal C(y)u + C(u)y
    split = assemble_convection(space, y) @ u + assemble_convection(space, u) @ y
    assert np.abs(L @ u - split).max() < 1e-12 * max(1.0, np.abs(split).max())


def test_linearized_convection_is_directional_derivative(square2):
    space = square2
    rng = np.random.default_rng(13)
    y = rng.standard_normal(space.n_velocity)
    u = rng.standard_normal(space.n_velocity)
    L = assemble_linearized_convection(space, y)
    errs = []
    for eps in (1e-4, 2e-4):
        fd = (convection_vector(space, y + eps * u, y + eps * u)
              - convection_vector(space, y, y)) / eps
        errs.append(np.abs(fd - L @ u).max())
    # remainder is eps * C(u)u: linear in eps
    assert errs[1] / errs[0] == pytest.approx(2.0, rel=0.05)


def _convection_vector_einsum(space, a, u):
    """The per-component einsum form of ``convection_vector``."""
    r = space.rule
    integrand = np.einsum("tqd,tqcd->tqc", space.velocity_at_quad(a),
                          space.velocity_grad_at_quad(u))
    return np.concatenate([
        space.scatter_p2_vector(
            np.einsum("t,q,tq,qi->ti", space.det, r.w, integrand[:, :, c], r.phi))
        for c in range(2)])


def test_convection_vector_matches_matrix(square2):
    """The load equals the convection matrix times u, and the einsum
    formula it replaced, on a structured square and a jittered semi-disk."""
    rng = np.random.default_rng(17)
    for space in (square2, build_space(jittered_semidisk(0.2, 3))):
        a = rng.standard_normal(space.n_velocity)
        u = rng.standard_normal(space.n_velocity)
        direct = convection_vector(space, a, u)
        viamat = assemble_convection(space, a) @ u
        assert np.abs(direct - viamat).max() < 1e-12 * max(1.0, np.abs(direct).max())
        oracle = _convection_vector_einsum(space, a, u)
        assert np.abs(direct - oracle).max() <= 1e-14 * np.abs(oracle).max()


# The einsum forms of the set-up kernels.  The kernels sum the same
# products in the order np.einsum sums them (``fem._ordered_sum``), so each
# equals its form here bit for bit; that order is einsum's, measured on
# numpy 2.4.6.
def _rule_einsum(space, pts):
    """``_Rule.g`` and ``_Rule.x`` at reference points ``pts``."""
    p = space.mesh.vertices[space.mesh.triangles]
    lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)
    return (np.einsum("ted,qje->tqjd", space.jinv, fem.p2_grads(pts)),
            np.einsum("qk,tkd->tqd", lam, p))


def _stiffness_einsum(space):
    r = space.rule
    elem = np.einsum("t,q,tqid,tqjd->tij", space.det, r.w, r.g, r.g)
    return space._scatter(0.5 * (elem + elem.transpose(0, 2, 1)), space.tri_p2,
                          space.n_scalar)


def _divergence_einsum(space):
    r = space.rule
    return sp.hstack([
        space._scatter(np.einsum("t,q,qk,tqj->tkj", space.det, r.w, r.psi, r.g[:, :, :, d]),
                       space.mesh.triangles, space.n_pressure)
        for d in range(2)], format="csr")


def _load_vector_einsum(space, f, t):
    r = space.rule
    fq = np.asarray(f(r.x.reshape(-1, 2), t)).reshape(r.x.shape)
    return np.concatenate([
        space.scatter_p2_vector(np.einsum("t,q,tq,qi->ti", space.det, r.w, fq[:, :, c], r.phi))
        for c in range(2)])


def _vorticity_load_einsum(space, u):
    r = space.rule
    uq = space.velocity_at_quad(u)
    elem = np.einsum("t,q,tq,tqi->ti", space.det, r.w, uq[:, :, 1], r.g[:, :, :, 0])
    elem -= np.einsum("t,q,tq,tqi->ti", space.det, r.w, uq[:, :, 0], r.g[:, :, :, 1])
    return space.scatter_p2_vector(elem)


def _same_bits(got, want):
    """Equal shapes and float64 bit patterns, signed zeros included."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64),
                                                      want.view(np.uint64))


def _same_matrix(got, want):
    return (_same_bits(got.data, want.data) and np.array_equal(got.indices, want.indices)
            and np.array_equal(got.indptr, want.indptr))


@pytest.mark.parametrize("make", [
    lambda: generate_unit_square(2),
    lambda: generate_semidisk(0.12),
    lambda: jittered_semidisk(0.2, 3),
    lambda: generate_unit_square(8),
], ids=["square2", "disk_coarse", "jittered", "square8"])
def test_set_up_kernels_equal_their_einsum_forms(make):
    """The rule's gradients and points, the stiffness, the divergence
    blocks, the load vector and the vorticity load equal their einsum forms
    bit for bit."""
    space = build_space(make())
    g, x = _rule_einsum(space, rule_deg5()[0])
    assert _same_bits(space.rule.g, g) and _same_bits(space.rule.x, x)
    assert _same_matrix(space.scalar_stiffness, _stiffness_einsum(space))
    assert _same_matrix(assemble_divergence(space), _divergence_einsum(space))
    rng = np.random.default_rng(31)
    f = mf.forcing(0.1)
    assert _same_bits(fem.load_vector(space, f, 0.3), _load_vector_einsum(space, f, 0.3))
    u = rng.standard_normal(space.n_velocity)
    assert _same_bits(fem.vorticity_load(space, u), _vorticity_load_einsum(space, u))


def test_gradient_table_is_built_on_first_use(square2):
    """Set-up builds no gradient table; the first linearized operator,
    which reads it, builds it."""
    space = build_space(square2.mesh)
    ops = Operators(space, TimeGrid(0.1, 1), nu=0.01)
    assert "g_table" not in vars(space.rule)
    ops.linearized(np.random.default_rng(29).standard_normal(space.n_velocity))
    assert "g_table" in vars(space.rule)


def test_assembly_determinism(disk_coarse):
    rng = np.random.default_rng(19)
    y = rng.standard_normal(disk_coarse.n_velocity)
    a1 = assemble_linearized_convection(disk_coarse, y)
    a2 = assemble_linearized_convection(disk_coarse, y)
    assert np.array_equal(a1.data, a2.data)
    assert np.array_equal(a1.indices, a2.indices)
    assert np.array_equal(a1.indptr, a2.indptr)
    m1, m2 = assemble_mass(disk_coarse), assemble_mass(disk_coarse)
    assert np.array_equal(m1.data, m2.data)


def test_lid_values_interpolate_g(disk_coarse):
    g = lambda x: (1 - np.exp(100 * (x - 0.5))) * (1 - np.exp(-100 * (x + 0.5)))
    vals = lid_boundary_values(disk_coarse, g)
    nodes = disk_coarse.boundary_nodes
    center = np.nonzero((np.abs(disk_coarse.p2_coords[nodes, 0]) < 1e-14)
                        & (np.abs(disk_coarse.p2_coords[nodes, 1]) < 1e-14))[0]
    assert len(center) == 1
    expected = (1 - np.exp(-50.0)) ** 2
    assert abs(vals[center[0]] - expected) < 1e-14
    assert np.abs(vals[len(nodes):]).max() == 0.0  # vertical component zero
    wall = disk_coarse.boundary_node_tags == Tag.WALL
    assert np.abs(vals[: len(nodes)][wall]).max() == 0.0


def test_p2_partition_of_unity():
    pts = np.array([[0.2, 0.3], [0.6, 0.1], [1 / 3, 1 / 3]])
    assert np.abs(fem.p2_values(pts).sum(axis=1) - 1.0).max() < 1e-14
    assert np.abs(fem.p2_grads(pts).sum(axis=1)).max() < 1e-14


def test_dirichlet_nodes_are_exactly_boundary_support(square2):
    # every constrained node's support point lies on the boundary of [0,1]^2
    nodes = square2.boundary_nodes
    xy = square2.p2_coords[nodes]
    on_bdry = (np.abs(xy) < 1e-14) | (np.abs(xy - 1.0) < 1e-14)
    assert on_bdry.any(axis=1).all()
    # and interior nodes are not constrained
    interior = np.setdiff1d(np.arange(square2.n_scalar), nodes)
    xy_in = square2.p2_coords[interior]
    assert ((xy_in > 1e-14) & (xy_in < 1 - 1e-14)).all()


def _read_zero_based_clockwise(mesh):
    """``mesh`` through the Triangle reader, written with zero-based
    indices and every other triangle clockwise."""
    node, ele = write_triangle_format(mesh)
    rows = [line.split() for line in node.splitlines()[1:]]
    node = "\n".join([node.splitlines()[0]] + [
        " ".join([str(int(r[0]) - 1)] + r[1:]) for r in rows]) + "\n"
    tris = [[int(f) - 1 for f in line.split()] for line in ele.splitlines()[1:]]
    ele = "\n".join([ele.splitlines()[0]] + [
        f"{k} {a} {c} {b}" if k % 2 else f"{k} {a} {b} {c}"
        for k, a, b, c in tris]) + "\n"
    return read_triangle_format(node, ele)


@pytest.mark.parametrize("make", [
    *[lambda n=n: generate_unit_square(n) for n in (1, 2, 3, 8)],
    lambda: generate_semidisk(0.2),
    lambda: generate_semidisk(0.05),
    lambda: jittered_semidisk(0.1, 3),
    lambda: _read_zero_based_clockwise(generate_semidisk(0.2)),
], ids=["square1", "square2", "square3", "square8", "disk0.2", "disk0.05",
        "jittered", "read"])
def test_space_layout_matches_dict_construction(make):
    """The dof layout, and the writer's vertex markers, equal those of the
    dict-based edge numbering and corner rule."""
    mesh = make()
    space = build_space(mesh)
    ref = space_layout_reference(mesh)
    for name, want in ref.items():
        got = getattr(space, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    vertex = ref["boundary_nodes"] < mesh.n_vertices
    markers = np.zeros(mesh.n_vertices, dtype=np.int64)
    markers[ref["boundary_nodes"][vertex]] = ref["boundary_node_tags"][vertex]
    node, _ = write_triangle_format(mesh)
    written = [int(line.split()[3]) for line in node.splitlines()[1:]]
    assert np.array_equal(written, markers)
