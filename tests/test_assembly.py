"""Element matrices, Nitsche boundary operator, interface operators.

Every derived matrix is checked against a hand-rolled dense computation
that shares no code with the assembly routines.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latincut import assembly
from latincut.assembly import (
    assemble_boundary_traction,
    assemble_body_force,
    assemble_elasticity,
    assemble_ghost_penalty,
    assemble_latin_augmentation,
    assemble_nitsche_matrix,
    assemble_nitsche_rhs,
    build_space,
    dirichlet_constraints,
    elasticity_matrix,
    gradient_jump_matrix,
    interface_band,
    interface_eval_operator,
    interface_mass,
    scatter_band_to_space,
    strain_displacement,
)
from latincut.cutgeom import (
    Material,
    boundary_segments,
    build_cut_domain,
    build_interface,
    decompose_mesh,
)
from latincut.errors import InvalidGeometryError
from latincut.levelset import Ellipse, HalfPlane, interpolate_levelset
from latincut.linalg import factorize
from latincut.mesh import build_structured_mesh

MAT = Material(e=1.0, nu=0.3)
coeff = st.floats(-1.0, 1.0)


# --- independent scalar oracles ------------------------------------------

def d_matrix_oracle(mat):
    lam = mat.e * mat.nu / ((1 + mat.nu) * (1 - 2 * mat.nu))
    mu = mat.e / (2 * (1 + mat.nu))
    return np.array([[lam + 2 * mu, lam, 0], [lam, lam + 2 * mu, 0], [0, 0, mu]])


def b_matrix_oracle(tri):
    """P1 strain-displacement matrix from shape-function gradients."""
    p0, p1, p2 = tri
    area = 0.5 * ((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1]))
    grads = []
    for a, b, c in ((p0, p1, p2), (p1, p2, p0), (p2, p0, p1)):
        edge = c - b  # opposite edge
        grads.append(np.array([-edge[1], edge[0]]) / (2 * area))
    bmat = np.zeros((3, 6))
    for i, g in enumerate(grads):
        bmat[0, 2 * i] = g[0]
        bmat[1, 2 * i + 1] = g[1]
        bmat[2, 2 * i] = g[1]
        bmat[2, 2 * i + 1] = g[0]
    return bmat, area


def traction_map_oracle(tri, mat, normal):
    """Rows of n . sigma as a map from the six element dofs."""
    bmat, _ = b_matrix_oracle(tri)
    d = d_matrix_oracle(mat)
    nmat = np.array(
        [[normal[0], 0.0, normal[1]], [0.0, normal[1], normal[0]]]
    )
    return nmat @ d @ bmat


def ellipse_setup(n=10):
    mesh = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), n, n)
    ls = [interpolate_levelset(Ellipse(1.0, 0.5, 0.654545), mesh)]
    deco = decompose_mesh(mesh, ls)
    dom = build_cut_domain(1, mesh, MAT, deco)
    return mesh, ls, deco, dom, build_space(dom)


# --- constitutive and element kinematics ---------------------------------

def test_elasticity_matrix_literal():
    d = elasticity_matrix(MAT)
    lam, mu = 0.3 / (1.3 * 0.4), 1.0 / 2.6
    np.testing.assert_allclose(
        d,
        [[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]],
        rtol=1e-14,
    )
    np.testing.assert_allclose(d, d_matrix_oracle(MAT), rtol=1e-14)


def test_strain_displacement_reference_triangle():
    b, area = strain_displacement(np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]))
    assert area[0] == pytest.approx(0.5, rel=1e-15)
    np.testing.assert_allclose(
        b[0],
        [
            [-1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0, 0.0, 1.0],
            [-1.0, -1.0, 0.0, 1.0, 1.0, 0.0],
        ],
        atol=1e-15,
    )


@given(sx=coeff, sy=coeff, rot=coeff, tx=coeff, ty=coeff)
def test_strain_displacement_matches_oracle(sx, sy, rot, tx, ty):
    tri = np.array([[0.1, -0.2], [1.0, 0.3], [0.2, 0.9]])
    c, s = np.cos(rot), np.sin(rot)
    tri = tri @ np.array([[c, -s], [s, c]]).T * (1.0 + 0.5 * sx) + np.array([tx, ty])
    b, area = strain_displacement(tri[None])
    b_ref, area_ref = b_matrix_oracle(tri)
    assert area[0] == pytest.approx(area_ref, rel=1e-12)
    np.testing.assert_allclose(b[0], b_ref, atol=1e-12)


# --- stiffness on a cut domain -------------------------------------------

def test_elasticity_matches_dense_elementwise_oracle():
    mesh, ls, deco, dom, space = ellipse_setup(8)
    k = assemble_elasticity(space).toarray()

    phys_area = np.zeros(mesh.n_triangles)
    np.add.at(phys_area, dom.qcells, dom.qweights)
    d = d_matrix_oracle(MAT)
    k_ref = np.zeros_like(k)
    for cell in dom.cells:
        tri = mesh.vertices[mesh.triangles[cell]]
        bmat, _ = b_matrix_oracle(tri)
        ke = phys_area[cell] * bmat.T @ d @ bmat
        dofs = space.element_dofs(np.array([cell]))[0]
        k_ref[np.ix_(dofs, dofs)] += ke
    scale = np.abs(k_ref).max()
    assert np.abs(k - k_ref).max() < 1e-13 * scale


@given(a1=coeff, a2=coeff, b1=coeff, b2=coeff)
def test_linear_field_energy_identity(a1, a2, b1, b2):
    # constant-strain field: u^T K u must equal |Omega| * eps^T D eps
    mesh, ls, deco, dom, space = ellipse_setup(6)
    k = assemble_elasticity(space)
    pts = mesh.vertices[space.vertices]
    u = np.empty(space.n_dofs)
    u[0::2] = a1 * pts[:, 0] + a2 * pts[:, 1]
    u[1::2] = b1 * pts[:, 0] + b2 * pts[:, 1]
    eps = np.array([a1, b2, a2 + b1])
    expect = dom.area * eps @ d_matrix_oracle(MAT) @ eps
    assert u @ k.matvec(u) == pytest.approx(expect, rel=1e-11, abs=1e-13)


# --- patch tests ----------------------------------------------------------

def uncut_square(n=6):
    mesh = build_structured_mesh((0.0, 0.0, 1.0, 1.0), n, n)
    ls = [interpolate_levelset(HalfPlane(0.0, 1.0, 2.0), mesh)]  # never cuts
    dom = build_cut_domain(0, mesh, MAT, decompose_mesh(mesh, ls))
    return mesh, dom, build_space(dom)


def linear_field(pts):
    return np.column_stack(
        (0.3 * pts[:, 0] - 0.2 * pts[:, 1] + 0.05, 0.1 * pts[:, 0] + 0.4 * pts[:, 1] - 0.07)
    )


def test_strong_dirichlet_patch():
    mesh, dom, space = uncut_square()
    k = assemble_elasticity(space)
    sides = {s: linear_field for s in ("left", "right", "bottom", "top")}
    fixed, vals = dirichlet_constraints(space, sides)
    free = np.setdiff1d(np.arange(space.n_dofs), fixed)
    lift = np.asarray(k.csr[np.ix_(free, fixed)] @ vals).ravel()
    u = np.zeros(space.n_dofs)
    u[fixed] = vals
    u[free] = factorize(k.submatrix(free)).solve(-lift)
    exact = linear_field(mesh.vertices[space.vertices]).ravel()
    assert np.abs(u - exact).max() < 1e-10


def test_nitsche_patch():
    mesh, dom, space = uncut_square()
    segs = boundary_segments(mesh, ["left", "right", "bottom", "top"])
    alpha = 10.0
    k = assemble_elasticity(space) + assemble_nitsche_matrix(space, segs, alpha)
    rhs = assemble_nitsche_rhs(space, segs, alpha, linear_field)
    u = factorize(k).solve(rhs)
    exact = linear_field(mesh.vertices[space.vertices]).ravel()
    assert np.abs(u - exact).max() < 1e-8


def test_nitsche_data_term_needed_for_consistency():
    # without the symmetrization load the linear patch field is not
    # reproduced exactly; with it the error is roundoff
    mesh, dom, space = uncut_square()
    segs = boundary_segments(mesh, ["left", "right", "bottom", "top"])
    alpha = 10.0
    k = assemble_elasticity(space) + assemble_nitsche_matrix(space, segs, alpha)
    fac = factorize(k)
    exact = linear_field(mesh.vertices[space.vertices]).ravel()
    err_full = np.abs(
        fac.solve(assemble_nitsche_rhs(space, segs, alpha, linear_field)) - exact
    ).max()
    err_pen = np.abs(
        fac.solve(
            assemble_nitsche_rhs(space, segs, alpha, linear_field, symmetrize_data=False)
        )
        - exact
    ).max()
    assert err_full < 1e-10
    assert err_pen > 100 * max(err_full, 1e-14)


# --- ghost penalty --------------------------------------------------------

def ghost_energy_oracle(space, gamma_g, u):
    """Face-by-face jump energy with independently computed tractions."""
    dom = space.domain
    mesh = space.mesh
    total = 0.0
    for f in dom.ghost_faces:
        v0, v1, left, right = mesh.faces[f]
        normal = mesh.face_normals[f]
        flen = np.linalg.norm(mesh.vertices[v1] - mesh.vertices[v0])
        jump = np.zeros(2)
        for sign, cell in ((1.0, left), (-1.0, right)):
            tri = mesh.vertices[mesh.triangles[cell]]
            tmap = traction_map_oracle(tri, dom.material, normal)
            dofs = space.element_dofs(np.array([cell]))[0]
            jump += sign * tmap @ u[dofs]
        h_face = max(
            np.linalg.norm(tri[a] - tri[b])
            for tri in (
                mesh.vertices[mesh.triangles[left]],
                mesh.vertices[mesh.triangles[right]],
            )
            for a, b in ((0, 1), (1, 2), (2, 0))
        )
        total += gamma_g * h_face * flen / dom.material.e * (jump @ jump)
    return total


def test_ghost_penalty_matches_face_oracle():
    mesh, ls, deco, dom, space = ellipse_setup(9)
    assert dom.ghost_faces.size > 0
    gamma = 0.37
    g = assemble_ghost_penalty(space, gamma)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(space.n_dofs)
    energy = u @ g.matvec(u)
    assert energy == pytest.approx(ghost_energy_oracle(space, gamma, u), rel=1e-11)
    assert energy > 0


def test_ghost_penalty_vanishes_on_linear_fields():
    mesh, ls, deco, dom, space = ellipse_setup(9)
    g = assemble_ghost_penalty(space, 0.1)
    u = linear_field(mesh.vertices[space.vertices]).ravel()
    scale = np.abs(g.data).max() * (u @ u)
    assert abs(u @ g.matvec(u)) < 1e-12 * scale
    # gamma_g = 0 must produce an all-zero operator
    assert assemble_ghost_penalty(space, 0.0).csr.nnz == 0


# --- interface band operators ---------------------------------------------

def band_pieces(n=10):
    mesh = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), n, n)
    ls = [interpolate_levelset(Ellipse(1.0, 0.5, 0.654545), mesh)]
    deco = decompose_mesh(mesh, ls)
    iface = build_interface(0, 1, mesh, deco)
    return mesh, ls, deco, iface


def test_interface_eval_exact_for_linear_fields():
    mesh, ls, deco, iface = band_pieces()
    segs = iface.segments
    e = interface_eval_operator(mesh, segs, iface.band_vertices)
    z = linear_field(mesh.vertices[iface.band_vertices]).ravel()
    vals = (e @ z).reshape(-1, 2)
    np.testing.assert_allclose(vals, linear_field(segs.qpoints), atol=1e-13)


def test_interface_mass_constant_energy_is_length():
    mesh, ls, deco, iface = band_pieces()
    segs = iface.segments
    e = interface_eval_operator(mesh, segs, iface.band_vertices)
    m = interface_mass(e, segs.qweights)
    z = np.tile([1.0, 0.0], iface.band_vertices.size)
    assert z @ m.matvec(z) == pytest.approx(segs.length.sum(), rel=1e-12)


def jump_energy_oracle(mesh, face_ids, band_vertices, gamma, z):
    """Componentwise normal-gradient jump energy, own P1 gradients."""
    bmap = {int(v): i for i, v in enumerate(band_vertices)}
    zc = z.reshape(-1, 2)
    total = 0.0
    for f in face_ids:
        v0, v1, left, right = mesh.faces[f]
        normal = mesh.face_normals[f]
        flen = np.linalg.norm(mesh.vertices[v1] - mesh.vertices[v0])
        h_face = 0.0
        jumps = np.zeros(2)
        for sign, cell in ((1.0, left), (-1.0, right)):
            tri_v = mesh.triangles[cell]
            tri = mesh.vertices[tri_v]
            h_face = max(
                h_face,
                *(np.linalg.norm(tri[a] - tri[b]) for a, b in ((0, 1), (1, 2), (2, 0))),
            )
            area2 = 2 * 0.5 * abs(
                (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
                - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1])
            )
            for comp in range(2):
                nodal = np.array([zc[bmap[int(v)], comp] for v in tri_v])
                # gradient of the P1 interpolant via the shoelace formula
                gx = (
                    nodal[0] * (tri[1, 1] - tri[2, 1])
                    + nodal[1] * (tri[2, 1] - tri[0, 1])
                    + nodal[2] * (tri[0, 1] - tri[1, 1])
                ) / area2
                gy = (
                    nodal[0] * (tri[2, 0] - tri[1, 0])
                    + nodal[1] * (tri[0, 0] - tri[2, 0])
                    + nodal[2] * (tri[1, 0] - tri[0, 0])
                ) / area2
                jumps[comp] += sign * (gx * normal[0] + gy * normal[1])
        total += gamma * h_face**2 * flen * (jumps @ jumps)
    return total


def test_gradient_jump_matches_oracle_and_kills_linears():
    mesh, ls, deco, iface = band_pieces()
    gamma = 0.23
    j = gradient_jump_matrix(mesh, iface.interior_faces, iface.band_vertices, gamma)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(2 * iface.band_vertices.size)
    expect = jump_energy_oracle(mesh, iface.interior_faces, iface.band_vertices, gamma, z)
    assert z @ j.matvec(z) == pytest.approx(expect, rel=1e-11)
    lin = linear_field(mesh.vertices[iface.band_vertices]).ravel()
    scale = np.abs(j.data).max() * (lin @ lin)
    assert abs(lin @ j.matvec(lin)) < 1e-12 * scale


def test_latin_augmentation_energy_for_constants():
    mesh, ls, deco, iface = band_pieces()
    spaces = [build_space(build_cut_domain(i, mesh, MAT, deco)) for i in (0, 1)]
    band = interface_band(iface, spaces)
    k = 2.5
    c = np.array([0.4, -1.1])
    expect = k * iface.segments.length.sum() * (c @ c)
    for space in spaces:
        aug = assemble_latin_augmentation(space, [band], k)
        u = np.tile(c, space.vertices.size)
        assert u @ aug.matvec(u) == pytest.approx(expect, rel=1e-12)


def test_scatter_band_roundtrip():
    mesh, ls, deco, iface = band_pieces()
    dom = build_cut_domain(0, mesh, MAT, deco)
    space = build_space(dom)
    dofs = scatter_band_to_space(space, iface.band_vertices)
    z = np.arange(2.0 * iface.band_vertices.size)
    u = np.zeros(space.n_dofs)
    u[dofs] = z
    # the same index map reads the band values back out
    np.testing.assert_array_equal(u[dofs], z)
    assert u.sum() == pytest.approx(z.sum())


def test_interface_band_is_its_parts():
    mesh, ls, deco, iface = band_pieces()
    spaces = [build_space(build_cut_domain(i, mesh, MAT, deco)) for i in (0, 1)]
    band = interface_band(iface, spaces)
    e = interface_eval_operator(mesh, iface.segments, iface.band_vertices)
    m = interface_mass(e, iface.segments.qweights)
    assert (band.eval_op != e).nnz == 0
    for attr in ("indptr", "indices", "data"):
        assert getattr(band.mass, attr).tobytes() == getattr(m, attr).tobytes()
    assert sorted(band.dofs) == [0, 1]
    for i, space in enumerate(spaces):
        expect = space.vertex_dofs(iface.band_vertices).ravel()
        np.testing.assert_array_equal(band.dofs[i], expect)


# --- loads and constraints -------------------------------------------------

def test_body_force_total():
    mesh, ls, deco, dom, space = ellipse_setup(8)
    f = (0.7, -0.3)
    rhs = assemble_body_force(space, f)
    assert rhs[0::2].sum() == pytest.approx(0.7 * dom.area, rel=1e-12)
    assert rhs[1::2].sum() == pytest.approx(-0.3 * dom.area, rel=1e-12)


def test_boundary_traction_total():
    mesh, dom, space = uncut_square(4)
    segs = boundary_segments(mesh, ["top"])
    rhs = assemble_boundary_traction(space, segs, (0.0, -2.0))
    assert rhs[1::2].sum() == pytest.approx(-2.0, rel=1e-12)
    assert abs(rhs[0::2].sum()) < 1e-14
    # callable data is evaluated at quadrature points
    rhs2 = assemble_boundary_traction(
        space, segs, lambda p: np.column_stack((p[:, 0], np.zeros(p.shape[0])))
    )
    assert rhs2[0::2].sum() == pytest.approx(0.5, rel=1e-12)  # int_0^1 x dx


def test_dirichlet_corner_first_match_and_errors():
    mesh, dom, space = uncut_square(3)
    fixed, vals = dirichlet_constraints(
        space, {"top": (0.0, -1.0), "left": (5.0, 5.0)}
    )
    # the top-left corner vertex belongs to both sides; "top" wins
    corner = int(np.flatnonzero(
        (np.abs(mesh.vertices[:, 0]) < 1e-12) & (np.abs(mesh.vertices[:, 1] - 1) < 1e-12)
    )[0])
    dx, dy = space.vertex_dofs(np.array([corner]))[0]
    assert vals[np.flatnonzero(fixed == dx)[0]] == 0.0
    assert vals[np.flatnonzero(fixed == dy)[0]] == -1.0
    with pytest.raises(InvalidGeometryError):
        dirichlet_constraints(space, {"north": (0.0, 0.0)})


def test_vector_data_validation():
    mesh, dom, space = uncut_square(2)
    with pytest.raises(InvalidGeometryError):
        assemble_body_force(space, lambda p: np.zeros(3))  # wrong shape


def test_space_dof_guards():
    mesh, ls, deco, dom, space = ellipse_setup(10)
    outside = dom.status == 0
    if outside.any():
        cell = int(np.flatnonzero(outside)[0])
        with pytest.raises(InvalidGeometryError):
            space.element_dofs(np.array([cell]))
    missing = np.flatnonzero(space.vmap < 0)
    if missing.size:
        with pytest.raises(InvalidGeometryError):
            space.vertex_dofs(missing[:1])
