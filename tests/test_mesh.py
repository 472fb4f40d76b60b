"""Structured mesh construction, adjacency and point location."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latincut.errors import InvalidMeshError
from latincut.mesh import (
    BOUNDARY,
    StructuredLocator,
    build_face_adjacency,
    build_structured_mesh,
    triangle_areas,
    triangle_diameters,
)

RECT = (-1.2, -1.2, 1.2, 1.2)


def reference_face_adjacency(vertices, triangles):
    """Dict-per-edge oracle for build_face_adjacency, one triangle at a time."""
    directed = {}
    for t, (a, b, c) in enumerate(triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (int(min(u, v)), int(max(u, v)))
            fwd = int(u) < int(v)
            rec = directed.get(key)
            if rec is None:
                directed[key] = (t, -2) if fwd else (-2, t)
            else:
                left, right = rec
                if (left, right)[0 if fwd else 1] != -2:
                    raise InvalidMeshError(f"edge {key} claimed twice in one direction")
                directed[key] = (t, right) if fwd else (left, t)
    keys = sorted(directed)
    faces = np.empty((len(keys), 4), dtype=np.int64)
    for f, key in enumerate(keys):
        left, right = directed[key]
        if left == -2:  # only seen backwards: store reversed, owner on the left
            faces[f] = (key[1], key[0], right, BOUNDARY)
        else:
            faces[f] = (key[0], key[1], left, BOUNDARY if right == -2 else right)
    d = vertices[faces[:, 1]] - vertices[faces[:, 0]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    if np.any(lengths <= 0.0):
        raise InvalidMeshError("zero-length face")
    normals = np.column_stack((d[:, 1], -d[:, 0])) / lengths[:, None]
    return faces, normals


def assert_adjacency_matches_reference(vertices, triangles):
    faces, normals = build_face_adjacency(vertices, triangles)
    ref_faces, ref_normals = reference_face_adjacency(vertices, triangles)
    assert faces.dtype == ref_faces.dtype
    np.testing.assert_array_equal(faces, ref_faces)
    np.testing.assert_array_equal(normals, ref_normals)


def shoelace(vertices, triangles):
    """Independent signed-area oracle, one triangle at a time."""
    out = []
    for a, b, c in triangles:
        x0, y0 = vertices[a]
        x1, y1 = vertices[b]
        x2, y2 = vertices[c]
        out.append(0.5 * (x0 * (y1 - y2) + x1 * (y2 - y0) + x2 * (y0 - y1)))
    return np.asarray(out)


def test_counts_and_h():
    m = build_structured_mesh(RECT, 5, 3)
    assert m.n_vertices == 6 * 4
    assert m.n_triangles == 2 * 5 * 3
    dx, dy = 2.4 / 5, 2.4 / 3
    assert m.h == pytest.approx(np.hypot(dx, dy), rel=1e-14)
    assert m.structured.nx == 5 and m.structured.ny == 3


def test_areas_match_shoelace_and_are_ccw():
    m = build_structured_mesh(RECT, 4, 6)
    areas = triangle_areas(m.vertices, m.triangles)
    np.testing.assert_allclose(areas, shoelace(m.vertices, m.triangles), rtol=1e-14)
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(2.4 * 2.4, rel=1e-13)


def test_diameters_are_longest_edges():
    m = build_structured_mesh((0.0, 0.0, 2.0, 1.0), 4, 2)
    diam = triangle_diameters(m.vertices, m.triangles)
    for t, (a, b, c) in enumerate(m.triangles):
        pts = m.vertices[[a, b, c]]
        edges = [np.linalg.norm(pts[k] - pts[(k + 1) % 3]) for k in range(3)]
        assert diam[t] == pytest.approx(max(edges), rel=1e-14)


def test_face_adjacency_invariants():
    nx, ny = 5, 4
    m = build_structured_mesh(RECT, nx, ny)
    faces, normals = m.faces, m.face_normals
    # every face has an owner on the left; boundary marked on the right
    assert np.all(faces[:, 2] != BOUNDARY)
    boundary = faces[:, 3] == BOUNDARY
    assert boundary.sum() == 2 * (nx + ny)
    interior = ~boundary
    assert np.all(faces[interior, 2] != faces[interior, 3])
    # each triangle claims exactly three faces
    counts = np.zeros(m.n_triangles, dtype=int)
    np.add.at(counts, faces[:, 2], 1)
    np.add.at(counts, faces[interior, 3], 1)
    assert np.all(counts == 3)
    # unit normals pointing from the left triangle to the right one
    assert np.allclose(np.hypot(normals[:, 0], normals[:, 1]), 1.0, atol=1e-14)
    mids = 0.5 * (m.vertices[faces[:, 0]] + m.vertices[faces[:, 1]])
    centroids = m.vertices[m.triangles].mean(axis=1)
    to_left = centroids[faces[:, 2]] - mids
    assert np.all(np.einsum("fi,fi->f", to_left, normals) < 0)
    to_right = centroids[faces[interior, 3]] - mids[interior]
    assert np.all(np.einsum("fi,fi->f", to_right, normals[interior]) > 0)


def test_boundary_tags_cover_each_side():
    nx, ny = 6, 3
    m = build_structured_mesh(RECT, nx, ny)
    assert sorted(m.boundary_tags) == ["bottom", "left", "right", "top"]
    assert m.boundary_tags["top"].size == nx
    assert m.boundary_tags["bottom"].size == nx
    assert m.boundary_tags["left"].size == ny
    assert m.boundary_tags["right"].size == ny
    tagged = np.concatenate(list(m.boundary_tags.values()))
    assert np.array_equal(np.sort(tagged), np.flatnonzero(m.faces[:, 3] == BOUNDARY))
    mids = 0.5 * (m.vertices[m.faces[:, 0]] + m.vertices[m.faces[:, 1]])
    assert np.allclose(mids[m.boundary_tags["top"], 1], 1.2)
    assert np.allclose(mids[m.boundary_tags["left"], 0], -1.2)


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 5), (4, 1), (3, 2), (7, 5), (12, 12)])
def test_locator_slot_is_the_lattice_order(nx, ny):
    # StructuredLocator returns a point's slot as its triangle index, which
    # holds because build_structured_mesh emits triangles in slot order
    m = build_structured_mesh(RECT, nx, ny)
    centroids = m.triangle_coords().mean(axis=1)
    np.testing.assert_array_equal(StructuredLocator(m).locate(centroids), np.arange(m.n_triangles))


def test_locator_agrees_with_barycentric_membership():
    m = build_structured_mesh(RECT, 7, 5)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.2, 1.2, size=(200, 2))
    tris = StructuredLocator(m).locate(pts)
    coords = m.vertices[m.triangles[tris]]

    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    for p, (a, b, c) in zip(pts, coords):
        s = [
            cross2(b - a, p - a),
            cross2(c - b, p - b),
            cross2(a - c, p - c),
        ]
        assert min(s) >= -1e-12 * m.h**2


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rect=RECT, nx=0, ny=3),
        dict(rect=RECT, nx=3, ny=0),
        dict(rect=(0, 0, 0, 1), nx=2, ny=2),
        dict(rect=(0, 1, 1, 0), nx=2, ny=2),
    ],
)
def test_invalid_construction_rejected(kwargs):
    with pytest.raises(InvalidMeshError):
        build_structured_mesh(**kwargs)


def test_non_manifold_soup_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    # edge (0, 1) traversed twice in the same direction
    tris = np.array([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(InvalidMeshError, match="same direction"):
        build_face_adjacency(verts, tris)
    with pytest.raises(InvalidMeshError):
        reference_face_adjacency(verts, tris)
    # edge (0, 1) shared by three triangles, both directions present
    verts = np.vstack((verts, [[0.5, -1.0]]))
    tris = np.array([[0, 1, 2], [1, 0, 4], [0, 1, 3]])
    with pytest.raises(InvalidMeshError, match="claimed by 3 triangles"):
        build_face_adjacency(verts, tris)
    with pytest.raises(InvalidMeshError):
        reference_face_adjacency(verts, tris)


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (5, 3), (12, 12)])
def test_face_adjacency_matches_reference_on_lattices(nx, ny):
    m = build_structured_mesh(RECT, nx, ny)
    assert_adjacency_matches_reference(m.vertices, m.triangles)


@given(
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_face_adjacency_matches_reference_on_permuted_soups(nx, ny, seed):
    m = build_structured_mesh(RECT, nx, ny)
    rng = np.random.default_rng(seed)
    relabel = rng.permutation(m.n_vertices)
    vertices = np.empty_like(m.vertices)
    vertices[relabel] = m.vertices
    triangles = relabel[m.triangles][rng.permutation(m.n_triangles)]
    # rotating a triangle's vertex order keeps it counterclockwise
    shift = rng.integers(0, 3, size=m.n_triangles)
    cols = (np.arange(3)[None, :] + shift[:, None]) % 3
    triangles = np.take_along_axis(triangles, cols, axis=1)
    assert np.all(triangle_areas(vertices, triangles) > 0)
    assert_adjacency_matches_reference(vertices, triangles)


def test_zero_length_face_rejected():
    verts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InvalidMeshError):
        build_face_adjacency(verts, np.array([[0, 1, 2]]))


@given(
    nx=st.integers(1, 8),
    ny=st.integers(1, 8),
    x0=st.floats(-3, 3),
    w=st.floats(0.1, 5),
    y0=st.floats(-3, 3),
    hgt=st.floats(0.1, 5),
)
def test_area_partition_property(nx, ny, x0, w, y0, hgt):
    m = build_structured_mesh((x0, y0, x0 + w, y0 + hgt), nx, ny)
    areas = triangle_areas(m.vertices, m.triangles)
    assert np.all(areas > 0)
    assert areas.sum() == pytest.approx(w * hgt, rel=1e-12)
