"""Cut-cell decomposition: areas, segments, normals."""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from latincut import experiments
from latincut.cutgeom import (
    CUT,
    INSIDE,
    MIN_REGION_AREA,
    MIN_SEGMENT,
    OUTSIDE,
    Material,
    MeshDecomposition,
    _run_sums,
    _split_cells,
    boundary_segments,
    build_cut_domain,
    build_interface,
    decompose_mesh,
)
from latincut.errors import (
    DegenerateCutError,
    EmptyDomainError,
    EmptyInterfaceError,
    InvalidGeometryError,
)
from latincut.levelset import (
    ZERO_SHIFT,
    Circle,
    Ellipse,
    HalfPlane,
    classify_point,
    classify_values,
    interpolate_levelset,
)
from latincut.mesh import BOUNDARY, build_structured_mesh, triangle_areas

MAT = Material(e=1.0, nu=0.3)


def test_material_lame_constants():
    # plane-strain Lame parameters at E = 1, nu = 0.3, worked by hand
    assert MAT.lam == pytest.approx(0.3 / (1.3 * 0.4), rel=1e-14)
    assert MAT.mu == pytest.approx(1.0 / 2.6, rel=1e-14)
    bad_inputs = (
        dict(e=0.0, nu=0.3), dict(e=float("nan"), nu=0.3), dict(e=float("inf"), nu=0.3),
        dict(e=1.0, nu=0.5), dict(e=1.0, nu=-0.1),
    )
    for bad in bad_inputs:
        with pytest.raises(InvalidGeometryError):
            Material(**bad)


def two_block(n=7, cut=0.5):
    mesh = build_structured_mesh((0.0, 0.0, 1.0, 1.0), n, n)
    ls = [interpolate_levelset(HalfPlane(0.0, 1.0, -cut), mesh)]
    return mesh, ls


def test_two_block_areas_and_interface():
    mesh, ls = two_block()
    deco = decompose_mesh(mesh, ls)
    assert deco.n_subdomains == 2
    assert deco.pairs == [(0, 1)]
    above = build_cut_domain(0, mesh, MAT, deco)
    below = build_cut_domain(1, mesh, MAT, deco)
    assert above.area == pytest.approx(0.5, rel=1e-13)
    assert below.area == pytest.approx(0.5, rel=1e-13)
    assert above.qpoints[:, 1].min() > 0.5
    assert below.qpoints[:, 1].max() < 0.5

    iface = build_interface(0, 1, mesh, decompose_mesh(mesh, ls))
    segs = iface.segments
    assert segs.length.sum() == pytest.approx(1.0, rel=1e-13)
    # normals point from the low subdomain (above) into the high one (below)
    np.testing.assert_allclose(segs.normal, [[0.0, -1.0]] * segs.normal.shape[0], atol=1e-13)
    np.testing.assert_allclose(segs.qpoints[:, 1], 0.5, atol=1e-13)


def test_segment_set_internal_consistency():
    mesh = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), 16, 16)
    ls = [interpolate_levelset(Ellipse(1.0, 0.5, 0.654545), mesh)]
    segs = build_interface(0, 1, mesh, decompose_mesh(mesh, ls)).segments
    d = segs.p1 - segs.p0
    np.testing.assert_allclose(np.hypot(d[:, 0], d[:, 1]), segs.length, rtol=1e-12)
    np.testing.assert_allclose(
        np.hypot(segs.normal[:, 0], segs.normal[:, 1]), 1.0, atol=1e-13
    )
    # normals are perpendicular to their segments
    assert np.max(np.abs(np.einsum("si,si->s", segs.normal, d) / segs.length)) < 1e-12
    # per-segment quadrature weights sum to the segment length
    gathered = np.zeros(segs.length.shape)
    np.add.at(gathered, segs.qseg, segs.qweights)
    np.testing.assert_allclose(gathered, segs.length, rtol=1e-12)
    # quadrature points are on their segments
    rel = segs.qpoints - segs.p0[segs.qseg]
    cross = rel[:, 0] * d[segs.qseg, 1] - rel[:, 1] * d[segs.qseg, 0]
    assert np.max(np.abs(cross)) < 1e-12


def test_interface_normals_point_low_to_high():
    mesh = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), 14, 14)
    ls = [interpolate_levelset(Ellipse(1.0, 0.5, 0.654545), mesh)]
    segs = build_interface(0, 1, mesh, decompose_mesh(mesh, ls)).segments
    mids = 0.5 * (segs.p0 + segs.p1)
    delta = 1e-6 * mesh.h
    high = classify_point(mids + delta * segs.normal, ls)
    low = classify_point(mids - delta * segs.normal, ls)
    assert np.all(high == 1)
    assert np.all(low == 0)


@given(
    cx=st.floats(-0.4, 0.4),
    cy=st.floats(-0.4, 0.4),
    a=st.floats(0.5, 1.2),
    b=st.floats(0.5, 1.2),
    r=st.floats(0.3, 0.55),
)
@example(cx=0.125, cy=0.125, a=0.5, b=0.5, r=0.3125)  # inclusion between vertices
def test_partition_of_area_property(cx, cy, a, b, r):
    mesh = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), 8, 8)
    ls = [interpolate_levelset(Ellipse(a, b, r, (cx, cy)), mesh)]
    deco = decompose_mesh(mesh, ls)

    def area(i):
        # an inclusion small enough to fall between vertices leaves every
        # level-set value positive: its subdomain covers no cells and holds
        # no area, and building it is refused
        if np.all(deco.status[i] == OUTSIDE):
            with pytest.raises(EmptyDomainError):
                build_cut_domain(i, mesh, MAT, deco)
            return 0.0
        return build_cut_domain(i, mesh, MAT, deco).area

    total = sum(area(i) for i in range(deco.n_subdomains))
    assert total == pytest.approx(2.4 * 2.4, abs=1e-10)


def geometry_errors(n):
    """Area and perimeter error of the discrete ellipse at mesh size n."""
    mesh = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), n, n)
    ls = [interpolate_levelset(Ellipse(1.0, 0.5, 0.654545), mesh)]
    deco = decompose_mesh(mesh, ls)
    area = build_cut_domain(1, mesh, MAT, deco).area
    length = build_interface(0, 1, mesh, deco).segments.length.sum()
    return area, length


def test_cut_geometry_second_order():
    r = 0.654545
    big, small = 1.0 * r, 0.5 * r
    exact_area = np.pi * big * small
    exact_len, _ = integrate.quad(
        lambda t: np.hypot(big * np.sin(t), small * np.cos(t)), 0.0, 2.0 * np.pi
    )
    ns = [12, 24, 48, 96]
    area_err, len_err = [], []
    for n in ns:
        area, length = geometry_errors(n)
        area_err.append(abs(area - exact_area))
        len_err.append(abs(length - exact_len))
    hs = [2.4 / n for n in ns]
    area_rate = np.polyfit(np.log(hs), np.log(area_err), 1)[0]
    len_rate = np.polyfit(np.log(hs), np.log(len_err), 1)[0]
    assert 1.6 < area_rate < 2.6
    assert 1.6 < len_rate < 2.6


def test_boundary_segments_lengths_and_normals():
    mesh = build_structured_mesh((0.0, 0.0, 2.0, 1.0), 4, 2)
    segs = boundary_segments(mesh, ["top", "left"])
    assert segs.length.sum() == pytest.approx(3.0, rel=1e-13)
    on_top = segs.normal[segs.qseg[np.isclose(segs.qpoints[:, 1], 1.0)]]
    np.testing.assert_allclose(on_top, np.tile([0.0, 1.0], (on_top.shape[0], 1)), atol=1e-13)
    on_left = segs.normal[segs.qseg[np.isclose(segs.qpoints[:, 0], 0.0)]]
    np.testing.assert_allclose(on_left, np.tile([-1.0, 0.0], (on_left.shape[0], 1)), atol=1e-13)
    with pytest.raises(InvalidGeometryError):
        boundary_segments(mesh, ["north"])


def test_empty_domain_and_interface():
    mesh = build_structured_mesh((0.0, 0.0, 1.0, 1.0), 4, 4)
    ls = [interpolate_levelset(Circle((10.0, 10.0), 0.5), mesh)]
    deco = decompose_mesh(mesh, ls)
    with pytest.raises(EmptyDomainError):
        build_cut_domain(1, mesh, MAT, deco)
    with pytest.raises(EmptyInterfaceError):
        build_interface(0, 1, mesh, deco)
    with pytest.raises(InvalidGeometryError):
        build_interface(1, 0, mesh, deco)


UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def split_one(vals):
    """One triangle through the array pass: its regions by subdomain and
    its (adj, owner, governing level set, p0, p1) segments."""
    (_, tris, sub), (_, p0, p1, adj, k) = _split_cells(
        UNIT_TRI[None], np.asarray(vals, dtype=float)[None], 1e-12
    )
    regions = {int(a): tris[sub == a] for a in np.unique(sub)}
    return regions, list(zip(adj, k + 1, k, p0, p1))


def test_decompose_element_single_cut():
    vals = np.array([[-1.0, 1.0, 1.0]])
    regions, segments = split_one(vals)
    def area_of(tris):
        return sum(
            0.5 * abs((t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1])
                      - (t[2, 0] - t[0, 0]) * (t[1, 1] - t[0, 1]))
            for t in tris
        )
    # lone negative corner cuts off a quarter-scale corner triangle
    assert area_of(regions[1]) == pytest.approx(0.125, rel=1e-13)
    assert area_of(regions[0]) == pytest.approx(0.375, rel=1e-13)
    assert len(segments) == 1
    lo, hi, gov, p0, p1 = segments[0]
    assert (lo, hi, gov) == (0, 1, 0)
    got = {tuple(np.round(p0, 12)), tuple(np.round(p1, 12))}
    assert got == {(0.5, 0.0), (0.0, 0.5)}


def test_decompose_element_priority_split():
    # ls0: y = 0.25 (negative below), ls1: x = 0.5 (negative left).
    # The later set wins where both are negative, and its segment is split
    # where ls0 crosses it.  All three region areas and segment lengths of
    # this configuration are derived by hand.
    def f0(p):
        return p[1] - 0.25

    def f1(p):
        return p[0] - 0.5

    vals = np.array([[f0(p) for p in UNIT_TRI], [f1(p) for p in UNIT_TRI]])
    regions, segments = split_one(vals)

    def area_of(tris):
        return sum(
            0.5 * abs((t[1, 0] - t[0, 0]) * (t[2, 1] - t[0, 1])
                      - (t[2, 0] - t[0, 0]) * (t[1, 1] - t[0, 1]))
            for t in tris
        )

    assert area_of(regions[2]) == pytest.approx(0.375, rel=1e-12)
    assert area_of(regions[1]) == pytest.approx(0.09375, rel=1e-12)
    assert area_of(regions[0]) == pytest.approx(0.03125, rel=1e-12)

    by_pair = {}
    for lo, hi, gov, p0, p1 in segments:
        by_pair.setdefault((lo, hi), 0.0)
        by_pair[(lo, hi)] += float(np.hypot(*(p1 - p0)))
    assert set(by_pair) == {(1, 2), (0, 2), (0, 1)}
    assert by_pair[(1, 2)] == pytest.approx(0.25, rel=1e-12)
    assert by_pair[(0, 2)] == pytest.approx(0.25, rel=1e-12)
    assert by_pair[(0, 1)] == pytest.approx(0.25, rel=1e-12)


def test_decompose_element_degenerate_rejected():
    vals = np.zeros((1, 3))
    with pytest.raises(DegenerateCutError):
        split_one(vals)


# decompose_mesh written as a loop that clips one cell at a time: the
# oracle every MeshDecomposition array of the array pass must match byte
# for byte, dict key order and dtypes included.


@dataclass
class _PairSegments:
    p0: list = field(default_factory=list)
    p1: list = field(default_factory=list)
    cell: list = field(default_factory=list)
    normal: list = field(default_factory=list)


def _clip(coords: np.ndarray, vals: np.ndarray, k: int):
    """Split a triangle by the linear level set in row k of vals.

    coords : (3, 2); vals : (n_ls, 3) values of all level sets at corners.
    Returns (negative, positive, segment) where negative/positive are lists
    of (coords, vals) sub-triangles and segment is (p0, p1, vals0, vals1)
    or None.  Corner values must be nonzero in row k.
    """
    vk = vals[k]
    pos_mask = vk > 0.0
    if pos_mask.all():
        return [], [(coords, vals)], None
    if not pos_mask.any():
        return [(coords, vals)], [], None

    # one corner on its own side of the zero line
    lone_positive = pos_mask.sum() == 1
    a = int(np.flatnonzero(pos_mask if lone_positive else ~pos_mask)[0])
    b, c = (a + 1) % 3, (a + 2) % 3
    ta = vk[a] / (vk[a] - vk[b])
    tc = vk[a] / (vk[a] - vk[c])
    p_ab = coords[a] + ta * (coords[b] - coords[a])
    p_ac = coords[a] + tc * (coords[c] - coords[a])
    v_ab = vals[:, a] + ta * (vals[:, b] - vals[:, a])
    v_ac = vals[:, a] + tc * (vals[:, c] - vals[:, a])

    lone = [(np.array([coords[a], p_ab, p_ac]), np.column_stack([vals[:, a], v_ab, v_ac]))]
    rest = [
        (np.array([p_ab, coords[b], coords[c]]), np.column_stack([v_ab, vals[:, b], vals[:, c]])),
        (np.array([p_ab, coords[c], p_ac]), np.column_stack([v_ab, vals[:, c], v_ac])),
    ]
    segment = (p_ab, p_ac, v_ab, v_ac)
    if lone_positive:
        return rest, lone, segment
    return lone, rest, segment


def _decompose_element(
    coords: np.ndarray, vals: np.ndarray, shift: float
) -> tuple[dict, list]:
    """Partition one element.

    Returns (regions, segments): regions maps subdomain index to a list of
    sub-triangle coords; segments is a list of (lo, hi, governing_ls, p0,
    p1) pieces.
    """
    n_ls = vals.shape[0]
    if np.any(np.all(np.abs(vals) <= shift, axis=1)):
        raise DegenerateCutError("a level set vanishes identically on an element")
    # nudge interpolated values off zero exactly like nodal classification
    vals = vals.copy()
    vals[np.abs(vals) < shift] = shift

    regions: dict[int, list] = {}
    raw_segments: list = []
    pending = [(coords, vals)]
    for k in range(n_ls - 1, -1, -1):
        still = []
        for c, v in pending:
            neg, pos, seg = _clip(c, v, k)
            for cn, vn in neg:
                vn[np.abs(vn) < shift] = shift
                regions.setdefault(k + 1, []).append(cn)
            for cp, vp in pos:
                vp[np.abs(vp) < shift] = shift
                still.append((cp, vp))
            if seg is not None:
                raw_segments.append((k, seg))
        pending = still
    if pending:
        regions[0] = [c for c, _ in pending]

    segments = []
    for k, (p0, p1, v0, v1) in raw_segments:
        # split where lower-priority level sets cross this piece
        ts = {0.0, 1.0}
        for kk in range(k):
            a, b = v0[kk], v1[kk]
            if (a > 0.0) != (b > 0.0):
                ts.add(float(a / (a - b)))
        ts = sorted(ts)
        for t0, t1 in zip(ts[:-1], ts[1:]):
            tm = 0.5 * (t0 + t1)
            vm = v0 + tm * (v1 - v0)
            lower_neg = [kk for kk in range(k) if vm[kk] < 0.0]
            adj = (max(lower_neg) + 1) if lower_neg else 0
            segments.append((adj, k + 1, k, p0 + t0 * (p1 - p0), p0 + t1 * (p1 - p0)))
    return regions, segments


def reference_decompose(mesh, levelsets) -> MeshDecomposition:
    n_sub = len(levelsets) + 1
    nt = mesh.n_triangles
    status = np.zeros((n_sub, nt), dtype=np.uint8)
    sub_cells: list[list] = [[] for _ in range(n_sub)]
    sub_coords: list[list] = [[] for _ in range(n_sub)]
    pair_segs: dict[tuple[int, int], _PairSegments] = {}

    corner_vals = np.stack([ls.cell_values() for ls in levelsets])  # (n_ls, nt, 3)
    signs = corner_vals > 0.0
    mixed = (signs.any(axis=2) & ~signs.all(axis=2)).any(axis=0)  # (nt,)

    # uniform elements: classify by their first corner
    uniform = np.flatnonzero(~mixed)
    status[classify_values(corner_vals[:, uniform, 0]), uniform] = INSIDE

    gradients = np.stack([ls.cell_gradients() for ls in levelsets])  # (n_ls, nt, 2)
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    all_coords = mesh.triangle_coords()
    shift = ZERO_SHIFT * mesh.h
    min_len = MIN_SEGMENT * mesh.h

    for cell in np.flatnonzero(mixed):
        regions, segments = _decompose_element(
            all_coords[cell], corner_vals[:, cell, :], shift
        )
        cell_area = areas[cell]
        for sub, tris in regions.items():
            tri_arr = np.asarray(tris)
            e1 = tri_arr[:, 1] - tri_arr[:, 0]
            e2 = tri_arr[:, 2] - tri_arr[:, 0]
            part = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]).sum()
            if part <= MIN_REGION_AREA * cell_area:
                continue
            if part >= (1.0 - 1e-12) * cell_area:
                status[sub, cell] = INSIDE
            else:
                status[sub, cell] = CUT
                sub_cells[sub].extend([cell] * len(tris))
                sub_coords[sub].extend(tris)
        for pi, pj, k, p0, p1 in segments:
            # a lower-priority subdomain across the owner's zero line
            assert pi < pj
            if np.hypot(*(p1 - p0)) <= min_len:
                continue
            # a segment only makes sense where both sides hold material;
            # the area filter above may have discarded a sliver partner
            if status[pi, cell] == OUTSIDE or status[pj, cell] == OUTSIDE:
                continue
            grad = gradients[k, cell]
            norm = np.linalg.norm(grad)
            if norm == 0.0:
                raise DegenerateCutError("level set gradient vanishes on a cut cell")
            normal = -grad / norm  # points into the governing (owner) side
            rec = pair_segs.setdefault((pi, pj), _PairSegments())
            rec.p0.append(p0)
            rec.p1.append(p1)
            rec.cell.append(cell)
            rec.normal.append(normal)

    return MeshDecomposition(
        n_subdomains=n_sub,
        status=status,
        subtri_cells=[np.asarray(c, dtype=np.int64) for c in sub_cells],
        subtri_coords=[
            np.asarray(c) if c else np.empty((0, 3, 2)) for c in sub_coords
        ],
        segments={
            k: (
                np.asarray(v.p0),
                np.asarray(v.p1),
                np.asarray(v.cell, dtype=np.int64),
                np.asarray(v.normal),
            )
            for k, v in pair_segs.items()
        },
    )


def assert_same_decomposition(got: MeshDecomposition, want: MeshDecomposition):
    def same(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()

    assert got.n_subdomains == want.n_subdomains
    same(got.status, want.status)
    assert len(got.subtri_cells) == len(got.subtri_coords) == want.n_subdomains
    for a, b in zip(got.subtri_cells + got.subtri_coords, want.subtri_cells + want.subtri_coords):
        same(a, b)
    assert list(got.segments) == list(want.segments)
    for key, arrays in want.segments.items():
        assert len(got.segments[key]) == len(arrays) == 4
        for a, b in zip(got.segments[key], arrays):
            same(a, b)


def assert_matches_loop(mesh, levelsets):
    """Both paths give the same decomposition, or the same DegenerateCutError."""
    try:
        want = reference_decompose(mesh, levelsets)
    except DegenerateCutError as err:
        with pytest.raises(DegenerateCutError, match=str(err)):
            decompose_mesh(mesh, levelsets)
        return None
    got = decompose_mesh(mesh, levelsets)
    assert_same_decomposition(got, want)
    return got


CRACK_EPS = (0.25, 1e-2, 1e-4, 1e-6, 1e-8, 1e-11)


def study_geometry(case):
    kind, *args = case
    if kind == "crack":
        mode, n, eps = args
        eps_x = eps if mode == "double" else 0.5
        pdef = experiments.crack_problem(eps_x, eps, n, 0.1)
    elif kind == "ellipse":
        pdef = experiments.ellipse_case(base_nx=args[0])
    else:
        pdef = experiments.two_inclusions_case(base_nx=args[0])
    problem = experiments.build_problem(pdef)
    return problem.mesh, problem.levelsets


@pytest.mark.parametrize(
    "case",
    [
        ("crack", mode, n, eps)
        for mode in ("simple", "double")
        for n in (24, 72)
        for eps in CRACK_EPS
    ]
    + [("ellipse", nx) for nx in (12, 40, 160)]
    + [("two_inclusions", nx) for nx in (16, 24, 40)],
    ids=str,
)
def test_array_pass_matches_loop_on_study_geometries(case):
    assert_matches_loop(*study_geometry(case))


def test_array_pass_matches_loop_on_grouping_and_edge_cases():
    mesh = build_structured_mesh((-1.0, -1.0, 1.0, 1.0), 10, 10)
    nested = [
        interpolate_levelset(Circle((0.0, 0.0), 0.6), mesh),
        interpolate_levelset(Circle((0.0, 0.0), 0.3), mesh),
    ]
    assert assert_matches_loop(mesh, nested).pairs == [(0, 1), (1, 2)]
    # no mixed cell at all
    far = [interpolate_levelset(Circle((10.0, 10.0), 0.5), mesh)]
    assert assert_matches_loop(mesh, far).subtri_coords[1].shape == (0, 3, 2)
    # a level set below the zero shift everywhere vanishes on every cell
    # the circle cuts
    flat = [interpolate_levelset(HalfPlane(1e-20, 0.0, 0.0), mesh), nested[1]]
    assert assert_matches_loop(mesh, flat) is None


@pytest.mark.parametrize(
    "pdef",
    [
        experiments.ellipse_case(base_nx=12),
        experiments.two_inclusions_case(base_nx=16),
        experiments.crack_problem(0.25, 1e-8, 12, 0.1),
    ],
    ids=lambda pdef: pdef.name,
)
def test_face_sets_match_face_loop(pdef):
    """Ghost faces and interface band faces, against a plain loop over the
    mesh faces."""
    spaces, interfaces = experiments.problem_spaces(pdef)
    mesh = spaces[0].mesh
    interior = [
        (f, left, right)
        for f, (_, _, left, right) in enumerate(mesh.faces.tolist())
        if right != BOUNDARY
    ]
    n_ghost = 0
    for space in spaces:
        status = space.domain.status.tolist()
        want = [
            f
            for f, left, right in interior
            if status[left] != OUTSIDE
            and status[right] != OUTSIDE
            and CUT in (status[left], status[right])
        ]
        assert space.domain.ghost_faces.tolist() == want
        n_ghost += len(want)
    assert n_ghost > 0
    n_band = 0
    for iface in interfaces.values():
        band = set(iface.segments.cell.tolist())
        want = [f for f, left, right in interior if left in band and right in band]
        assert iface.interior_faces.tolist() == want
        n_band += len(want)
        vertices = {v for c in band for v in mesh.triangles[c].tolist()}
        assert iface.band_vertices.tolist() == sorted(vertices)
    assert n_band > 0


@st.composite
def level_set_family(draw):
    """1-4 half-planes and circles on a small mesh, some lines through a
    vertex."""
    nx = draw(st.integers(3, 10))
    mesh = build_structured_mesh((-1.0, -1.0, 1.0, 1.0), nx, nx)
    coef = st.floats(-1.0, 1.0)
    funcs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["line", "vertex_line", "circle"]))
        if kind == "circle":
            funcs.append(Circle((draw(coef), draw(coef)), draw(st.floats(0.1, 1.0))))
            continue
        a, b = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -0.5)]))
        if kind == "line":
            a, b = a + 0.1 * draw(coef), b + 0.1 * draw(coef)
            funcs.append(HalfPlane(a, b, 0.5 * draw(coef)))
        else:
            x, y = mesh.vertices[draw(st.integers(0, mesh.n_vertices - 1))]
            funcs.append(HalfPlane(a, b, -(a * x + b * y)))
    return mesh, [interpolate_levelset(f, mesh) for f in funcs]


@settings(max_examples=200)
@given(level_set_family())
def test_array_pass_matches_loop_property(family):
    assert_matches_loop(*family)


@given(st.lists(st.integers(0, 20), max_size=12), st.integers(0, 2**32 - 1))
def test_run_sums_match_numpy_sum(lengths, seed):
    # numpy adds fewer than 8 terms left to right but 8 or more with 8
    # accumulators; each run must round exactly as its slice's .sum()
    lengths = np.array(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    rng = np.random.default_rng(seed)
    x = rng.random(lengths.sum()) * 10.0 ** rng.integers(-8, 8, lengths.sum())
    want = [x[s : s + n].sum() for s, n in zip(starts, lengths)]
    assert _run_sums(x, starts, lengths).tobytes() == np.array(want, dtype=float).tobytes()
