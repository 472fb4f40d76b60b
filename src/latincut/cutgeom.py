"""Cut cells, fictitious domains and interface meshes from level sets.

Every element is partitioned into per-subdomain regions by clipping against
the discrete level sets in priority order (highest list index first, since
that subdomain wins wherever its level set is negative).  The zero-set
pieces produced while clipping are attributed to subdomain pairs by
evaluating the remaining level sets at piece midpoints, which resolves
triple junctions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .errors import (
    DegenerateCutError,
    EmptyDomainError,
    EmptyInterfaceError,
    InvalidGeometryError,
)
from .levelset import DiscreteLevelSet, ZERO_SHIFT, classify_values
from .mesh import BOUNDARY, TriMesh, triangle_areas

OUTSIDE = 0
CUT = 1
INSIDE = 2

# Interface pieces shorter than this (relative to h) carry no quadrature.
# Must sit well above the vertex zero-shift scale (1e-12): a level set
# passing exactly through a vertex spawns corner slivers of that size whose
# area partner is dropped, and keeping their segments would leave interface
# quadrature in cells one side does not occupy.
MIN_SEGMENT = 1e-9
# A region this small relative to its element is treated as roundoff debris;
# genuine bad-cut slivers (relative size down to ~1e-11) stay above it.
MIN_REGION_AREA = 1e-13


@dataclass
class Material:
    """Isotropic plane-strain material."""

    e: float
    nu: float

    def __post_init__(self):
        if self.e <= 0.0:
            raise InvalidGeometryError("Young's modulus must be positive")
        if not (0.0 < self.nu < 0.5):
            raise InvalidGeometryError("Poisson ratio must lie in (0, 0.5)")

    @property
    def lam(self) -> float:
        return self.e * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def mu(self) -> float:
        return self.e / (2.0 * (1.0 + self.nu))


@dataclass
class _PairSegments:
    p0: list = field(default_factory=list)
    p1: list = field(default_factory=list)
    cell: list = field(default_factory=list)
    normal: list = field(default_factory=list)


@dataclass
class MeshDecomposition:
    """Partition of every element into per-subdomain regions plus interfaces."""

    mesh: TriMesh
    n_subdomains: int
    status: np.ndarray  # (n_subdomains, nt) with OUTSIDE / CUT / INSIDE
    # physical sub-triangles of cut cells, per subdomain (flat arrays)
    subtri_cells: list[np.ndarray]  # (ns,) parent cell ids
    subtri_coords: list[np.ndarray]  # (ns, 3, 2)
    # interface segments per subdomain pair (i, j), i < j
    seg_p0: dict
    seg_p1: dict
    seg_cell: dict
    seg_normal: dict

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.seg_p0)


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

    Returns (regions, segments): regions maps auxiliary subdomain index to a
    list of sub-triangle coords; segments is a list of
    (aux_lo, aux_hi, governing_ls, p0, p1) pieces.
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


def _validate_grouping(grouping, n_aux: int) -> np.ndarray:
    g = np.asarray(grouping, dtype=np.int64)
    if g.shape != (n_aux,):
        raise InvalidGeometryError(
            f"grouping table must list all {n_aux} auxiliary subdomains"
        )
    n_phys = int(g.max()) + 1
    if g.min() < 0 or set(g.tolist()) != set(range(n_phys)):
        raise InvalidGeometryError("grouping must map onto 0..P-1 without gaps")
    return g


def decompose_mesh(
    mesh: TriMesh,
    levelsets: list[DiscreteLevelSet],
    grouping=None,
) -> MeshDecomposition:
    """Partition all elements and collect interface segments.

    grouping optionally maps the auxiliary subdomains 0..n (one per level
    set, plus the background) onto fewer physical subdomains; interfaces
    internal to a group are dropped.
    """
    n_ls = len(levelsets)
    for ls in levelsets:
        if ls.mesh is not mesh:
            raise InvalidGeometryError("all level sets must live on the same mesh")
    n_aux = n_ls + 1
    g = np.arange(n_aux) if grouping is None else _validate_grouping(grouping, n_aux)
    n_sub = int(g.max()) + 1

    nt = mesh.n_triangles
    status = np.zeros((n_sub, nt), dtype=np.uint8)
    sub_cells: list[list] = [[] for _ in range(n_sub)]
    sub_coords: list[list] = [[] for _ in range(n_sub)]
    pair_segs: dict[tuple[int, int], _PairSegments] = {}

    if n_ls == 0:
        status[0, :] = INSIDE
        return MeshDecomposition(
            mesh=mesh,
            n_subdomains=1,
            status=status,
            subtri_cells=[np.empty(0, dtype=np.int64)],
            subtri_coords=[np.empty((0, 3, 2))],
            seg_p0={},
            seg_p1={},
            seg_cell={},
            seg_normal={},
        )

    corner_vals = np.stack([ls.cell_values() for ls in levelsets])  # (n_ls, nt, 3)
    signs = corner_vals > 0.0
    mixed = (signs.any(axis=2) & ~signs.all(axis=2)).any(axis=0)  # (nt,)

    # uniform elements: classify by their first corner
    uniform = np.flatnonzero(~mixed)
    labels = g[classify_values(corner_vals[:, uniform, 0])]
    status[labels, uniform] = INSIDE

    gradients = np.stack([ls.cell_gradients() for ls in levelsets])  # (n_ls, nt, 2)
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    all_coords = mesh.triangle_coords()
    shift = ZERO_SHIFT * mesh.h
    min_len = MIN_SEGMENT * mesh.h

    for cell in np.flatnonzero(mixed):
        regions, segments = _decompose_element(
            all_coords[cell], corner_vals[:, cell, :], shift
        )
        # merge auxiliary regions into physical subdomains
        merged: dict[int, list] = {}
        for aux, tris in regions.items():
            merged.setdefault(int(g[aux]), []).extend(tris)
        cell_area = areas[cell]
        for phys, tris in merged.items():
            tri_arr = np.asarray(tris)
            e1 = tri_arr[:, 1] - tri_arr[:, 0]
            e2 = tri_arr[:, 2] - tri_arr[:, 0]
            part = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]).sum()
            if part <= MIN_REGION_AREA * cell_area:
                continue
            if part >= (1.0 - 1e-12) * cell_area:
                status[phys, cell] = INSIDE
            else:
                status[phys, cell] = CUT
                sub_cells[phys].extend([cell] * len(tris))
                sub_coords[phys].extend(tris)
        for adj, owner, k, p0, p1 in segments:
            pi, pj = int(g[adj]), int(g[owner])
            if pi == pj:
                continue
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
            if pi > pj:
                pi, pj = pj, pi
                normal = -normal
            rec = pair_segs.setdefault((pi, pj), _PairSegments())
            rec.p0.append(p0)
            rec.p1.append(p1)
            rec.cell.append(cell)
            rec.normal.append(normal)

    return MeshDecomposition(
        mesh=mesh,
        n_subdomains=n_sub,
        status=status,
        subtri_cells=[np.asarray(c, dtype=np.int64) for c in sub_cells],
        subtri_coords=[
            np.asarray(c) if c else np.empty((0, 3, 2)) for c in sub_coords
        ],
        seg_p0={k: np.asarray(v.p0) for k, v in pair_segs.items()},
        seg_p1={k: np.asarray(v.p1) for k, v in pair_segs.items()},
        seg_cell={k: np.asarray(v.cell, dtype=np.int64) for k, v in pair_segs.items()},
        seg_normal={k: np.asarray(v.normal) for k, v in pair_segs.items()},
    )


@dataclass
class CutDomain:
    """One subdomain's share of the background mesh.

    cells is the fictitious cell set (every fully or partially covered
    element); ghost_faces are the interior faces of that set with at least
    one cut neighbor, where the ghost penalty acts.  The bulk quadrature
    covers the physical region only: whole-cell rules on interior cells and
    per-sub-triangle rules on cut cells.
    """

    index: int
    mesh: TriMesh
    material: Material
    status: np.ndarray  # (nt,)
    cells: np.ndarray
    full_cells: np.ndarray
    cut_cells: np.ndarray
    subtri_cells: np.ndarray
    subtri_coords: np.ndarray
    ghost_faces: np.ndarray
    qpoints: np.ndarray  # (nq, 2)
    qweights: np.ndarray  # (nq,)
    qcells: np.ndarray  # (nq,) parent cell per quadrature point

    @property
    def area(self) -> float:
        return float(self.qweights.sum())


def build_cut_domain(
    index: int,
    mesh: TriMesh,
    levelsets: list[DiscreteLevelSet],
    material: Material,
    grouping=None,
    decomposition: MeshDecomposition | None = None,
    quad_degree: int = 2,
) -> CutDomain:
    """Assemble the fictitious domain record of one subdomain."""
    if decomposition is None:
        decomposition = decompose_mesh(mesh, levelsets, grouping)
    if not (0 <= index < decomposition.n_subdomains):
        raise InvalidGeometryError(f"subdomain {index} does not exist")
    status = decomposition.status[index]
    full_cells = np.flatnonzero(status == INSIDE)
    cut_cells = np.flatnonzero(status == CUT)
    cells = np.flatnonzero(status != OUTSIDE)
    if cells.size == 0:
        raise EmptyDomainError(f"subdomain {index} covers no cells")

    in_fict = status != OUTSIDE
    is_cut = status == CUT
    faces = mesh.faces
    interior = faces[:, 3] != BOUNDARY
    left = faces[:, 2]
    right = np.where(interior, faces[:, 3], 0)
    ghost = interior & in_fict[left] & in_fict[right] & (is_cut[left] | is_cut[right])
    ghost_faces = np.flatnonzero(ghost)

    full_pts, full_w = quadrature.triangle_points(
        mesh.triangle_coords(full_cells), quad_degree
    )
    sub_cells = decomposition.subtri_cells[index]
    sub_coords = decomposition.subtri_coords[index]
    cut_pts, cut_w = quadrature.triangle_points(sub_coords, quad_degree)
    nq_full = full_w.shape[1] if full_w.size else 0
    qpoints = np.vstack((full_pts.reshape(-1, 2), cut_pts.reshape(-1, 2)))
    qweights = np.concatenate((full_w.ravel(), cut_w.ravel()))
    qcells = np.concatenate(
        (
            np.repeat(full_cells, nq_full),
            np.repeat(sub_cells, cut_w.shape[1] if cut_w.size else 0),
        )
    )
    return CutDomain(
        index=index,
        mesh=mesh,
        material=material,
        status=status,
        cells=cells,
        full_cells=full_cells,
        cut_cells=cut_cells,
        subtri_cells=sub_cells,
        subtri_coords=sub_coords,
        ghost_faces=ghost_faces,
        qpoints=qpoints,
        qweights=qweights,
        qcells=qcells,
    )


@dataclass
class SegmentSet:
    """Straight segments with parent cells, normals and Gauss quadrature."""

    mesh: TriMesh
    p0: np.ndarray  # (ns, 2)
    p1: np.ndarray
    cell: np.ndarray  # (ns,)
    normal: np.ndarray  # (ns, 2) unit
    length: np.ndarray  # (ns,)
    qpoints: np.ndarray  # (nq, 2)
    qweights: np.ndarray  # (nq,)
    qseg: np.ndarray  # (nq,) parent segment per quadrature point
    n_quad: int

    @property
    def n_segments(self) -> int:
        return self.p0.shape[0]

    @property
    def total_length(self) -> float:
        return float(self.length.sum())

    @property
    def qnormals(self) -> np.ndarray:
        return self.normal[self.qseg]

    @property
    def qcells(self) -> np.ndarray:
        return self.cell[self.qseg]


def _make_segment_set(mesh, p0, p1, cell, normal, n_quad: int) -> SegmentSet:
    pts, w = quadrature.segment_points(p0, p1, n_quad)
    ns = p0.shape[0]
    return SegmentSet(
        mesh=mesh,
        p0=p0,
        p1=p1,
        cell=cell,
        normal=normal,
        length=np.hypot(*(p1 - p0).T).reshape(ns),
        qpoints=pts.reshape(-1, 2),
        qweights=w.ravel(),
        qseg=np.repeat(np.arange(ns), n_quad),
        n_quad=n_quad,
    )


@dataclass
class InterfaceMesh:
    """Discrete interface between two subdomains.

    segments.normal points from the lower-indexed side into the higher one.
    band_cells are the elements the interface crosses; interface fields are
    carried by the vertices of those cells (band_vertices), and the gradient
    jump stabilization acts on interior_faces, the faces with both neighbors
    in the band.
    """

    pair: tuple[int, int]
    segments: SegmentSet
    band_cells: np.ndarray
    band_vertices: np.ndarray
    interior_faces: np.ndarray


def build_interface(
    i: int,
    j: int,
    mesh: TriMesh,
    levelsets: list[DiscreteLevelSet],
    grouping=None,
    decomposition: MeshDecomposition | None = None,
    n_quad: int = 2,
) -> InterfaceMesh:
    """Assemble the interface record of a subdomain pair (i < j)."""
    if not i < j:
        raise InvalidGeometryError("interface pairs are keyed with i < j")
    if decomposition is None:
        decomposition = decompose_mesh(mesh, levelsets, grouping)
    key = (i, j)
    if key not in decomposition.seg_p0 or decomposition.seg_p0[key].size == 0:
        raise EmptyInterfaceError(f"subdomains {i} and {j} share no interface")
    segs = _make_segment_set(
        mesh,
        decomposition.seg_p0[key],
        decomposition.seg_p1[key],
        decomposition.seg_cell[key],
        decomposition.seg_normal[key],
        n_quad,
    )
    band_cells = np.unique(segs.cell)
    band_vertices = np.unique(mesh.triangles[band_cells])
    in_band = np.zeros(mesh.n_triangles, dtype=bool)
    in_band[band_cells] = True
    faces = mesh.faces
    interior = faces[:, 3] != BOUNDARY
    left = faces[:, 2]
    right = np.where(interior, faces[:, 3], 0)
    both = interior & in_band[left] & in_band[right]
    return InterfaceMesh(
        pair=key,
        segments=segs,
        band_cells=band_cells,
        band_vertices=band_vertices,
        interior_faces=np.flatnonzero(both),
    )


def boundary_segments(mesh: TriMesh, sides: list[str], n_quad: int = 2) -> SegmentSet:
    """Tagged boundary faces of the mesh as a segment set (outward normals)."""
    face_ids: list[int] = []
    for side in sides:
        if side not in mesh.boundary_tags:
            raise InvalidGeometryError(f"mesh has no boundary side {side!r}")
        face_ids.extend(int(f) for f in mesh.boundary_tags[side])
    if not face_ids:
        raise InvalidGeometryError("no boundary faces on the requested sides")
    face_ids = sorted(face_ids)
    faces = mesh.faces[face_ids]
    return _make_segment_set(
        mesh,
        mesh.vertices[faces[:, 0]].astype(float),
        mesh.vertices[faces[:, 1]].astype(float),
        faces[:, 2].astype(np.int64),
        mesh.face_normals[face_ids],
        n_quad,
    )
