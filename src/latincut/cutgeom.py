"""Cut cells, fictitious domains and interface meshes from level sets.

Every element is partitioned into per-subdomain regions by clipping against
the discrete level sets in priority order (highest list index first, since
that subdomain wins wherever its level set is negative).  The zero-set
pieces produced while clipping are attributed to subdomain pairs by
evaluating the remaining level sets at piece midpoints, which resolves
triple junctions.

Clipping is one array pass per level set over the pieces of all cut cells,
with the arithmetic of clipping one triangle at a time.  Children are taken
in (parent, slot) order and a stable sort by cell restores each cell's own
order, so every float the decomposition holds, and every sum over it
(region areas included), matches a cell-by-cell loop bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not 0.0 < self.e < np.inf:
            raise InvalidGeometryError("Young's modulus must be positive and finite")
        if not (0.0 < self.nu < 0.5):
            raise InvalidGeometryError("Poisson ratio must lie in (0, 0.5)")

    @property
    def lam(self) -> float:
        return self.e * self.nu / ((1.0 + self.nu) * (1.0 - 2.0 * self.nu))

    @property
    def mu(self) -> float:
        return self.e / (2.0 * (1.0 + self.nu))


@dataclass
class MeshDecomposition:
    """Partition of every element into per-subdomain regions plus interfaces."""

    n_subdomains: int
    status: np.ndarray  # (n_subdomains, nt) with OUTSIDE / CUT / INSIDE
    # physical sub-triangles of cut cells, per subdomain (flat arrays)
    subtri_cells: list[np.ndarray]  # (ns,) parent cell ids
    subtri_coords: list[np.ndarray]  # (ns, 3, 2)
    # interface segments (p0, p1 (ns, 2), parent cell (ns,), unit normal
    # (ns, 2)) per subdomain pair (i, j), i < j
    segments: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.segments)


def _split_segments(p0, p1, v0, v1, k: int):
    """Split zero-line pieces (p0, p1 (s, 2), level-set values v0, v1
    (s, n_ls)) of level set k where lower-priority level sets cross them.

    Returns the sub-pieces (seg, q0, q1, adj) by parent segment seg, then
    along it; adj is 1 + the highest lower-priority level set negative at
    the sub-piece midpoint (0 if none), the subdomain across the line.
    """
    a, b = v0[:, :k], v1[:, :k]
    t = np.full((p0.shape[0], k + 2), np.inf)
    t[:, 0], t[:, 1] = 0.0, 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # adding 0.0 turns a crossing at -0.0 into the 0.0 already present
        t[:, 2:] = np.where((a > 0.0) != (b > 0.0), a / (a - b) + 0.0, np.inf)
    t.sort(axis=1)
    # consecutive distinct break points in [0, 1] bound the sub-pieces
    seg, j = np.nonzero((t[:, 1:] > t[:, :-1]) & (t[:, 1:] <= 1.0))
    t0, t1 = t[seg, j, None], t[seg, j + 1, None]
    tm = 0.5 * (t0 + t1)
    vm = v0[seg, :k] + tm * (v1[seg, :k] - v0[seg, :k])
    adj = ((vm < 0.0) * np.arange(1, k + 1)).max(axis=1, initial=0)
    d = p1[seg] - p0[seg]
    return seg, p0[seg] + t0 * d, p0[seg] + t1 * d, adj


def _split_cells(coords: np.ndarray, vals: np.ndarray, shift: float):
    """Partition triangles by linear level sets, all triangles at once.

    coords : (m, 3, 2); vals : (m, n_ls, 3) values of every level set at the
    corners.  Pieces are clipped against the level sets in priority order
    (highest index first): a piece cut by a zero line splits into the
    triangle at its lone corner a and two on the other side, at
    ta = v_a / (v_a - v_b) and tc = v_a / (v_a - v_c) along its edges.
    Returns the pieces (cell, coords (q, 3, 2), subdomain) and
    the zero-line pieces (cell, p0, p1, adj, k), a segment of level set k
    separating subdomain k + 1 from adj; cell indexes the m triangles.
    Both come cell by cell, each in the order clipping that cell produces.
    """
    if np.any(np.all(np.abs(vals) <= shift, axis=2)):
        raise DegenerateCutError("a level set vanishes identically on an element")
    # nudge values off zero exactly like nodal classification
    vals = np.where(np.abs(vals) < shift, shift, vals)
    # the pieces no subdomain has claimed yet, in (triangle, clipping) order
    pc, pv, pcell = coords, vals, np.arange(coords.shape[0])
    tris, segs = [], []
    for k in range(vals.shape[1] - 1, -1, -1):
        pos = pv[:, k] > 0.0
        n_pos = pos.sum(axis=1)
        cut = np.flatnonzero((n_pos == 1) | (n_pos == 2))
        # the first corner alone on its side of the zero line
        a = np.argmax(pos[cut] == (n_pos[cut] == 1)[:, None], axis=1)
        b, c = (a + 1) % 3, (a + 2) % 3
        ca, cb, cc = pc[cut, a], pc[cut, b], pc[cut, c]
        va, vb, vc = pv[cut, :, a], pv[cut, :, b], pv[cut, :, c]
        ta = (va[:, k] / (va[:, k] - vb[:, k]))[:, None]
        tc = (va[:, k] / (va[:, k] - vc[:, k]))[:, None]
        p_ab, p_ac = ca + ta * (cb - ca), ca + tc * (cc - ca)
        v_ab, v_ac = va + ta * (vb - va), va + tc * (vc - va)
        # child slot 0 is an uncut piece itself or the lone-corner triangle,
        # slots 1 and 2 the triangles on the other side; taking each side's
        # children in (parent, slot) order is the clipping order
        n = pc.shape[0]
        kids = np.empty((n, 3, 3, 2))
        kid_vals = np.empty((n, 3) + vals.shape[1:])
        kids[:, 0], kid_vals[:, 0] = pc, pv
        slots = ((ca, p_ab, p_ac), (p_ab, cb, cc), (p_ab, cc, p_ac))
        kids[cut] = np.stack([np.stack(s, axis=1) for s in slots], axis=1)
        slots = ((va, v_ab, v_ac), (v_ab, vb, vc), (v_ab, vc, v_ac))
        kid_vals[cut] = np.stack([np.stack(s, axis=2) for s in slots], axis=1)
        kid_vals[np.abs(kid_vals) < shift] = shift
        kid_cell = np.repeat(pcell, 3).reshape(n, 3)
        # the side of each child: slot 0 is on the lone corner's side (or the
        # whole piece's), slots 1 and 2 on the other side of a cut piece
        one, two = n_pos == 1, n_pos == 2
        positive = np.stack((one | (n_pos == 3), two, two), axis=1)
        claimed = np.stack(((n_pos == 0) | two, one, one), axis=1)
        tris.append((kid_cell[claimed], kids[claimed], np.full(claimed.sum(), k + 1)))
        seg, q0, q1, adj = _split_segments(p_ab, p_ac, v_ab, v_ac, k)
        segs.append((pcell[cut][seg], q0, q1, adj, np.full(seg.size, k)))
        pc, pv, pcell = kids[positive], kid_vals[positive], kid_cell[positive]
    tris.append((pcell, pc, np.zeros(pcell.size, dtype=np.int64)))

    def by_cell(parts):
        columns = [np.concatenate(c) for c in zip(*parts)]
        order = np.argsort(columns[0], kind="stable")
        return [c[order] for c in columns]

    return by_cell(tris), by_cell(segs)


def _run_sums(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """x[s:s + n].sum() for every run, bit for bit: numpy adds fewer than 8
    terms left to right and 8 or more pairwise."""
    out = np.zeros(starts.size)
    for j in range(min(int(lengths.max(initial=0)), 7)):
        live = lengths > j
        out[live] += x[starts[live] + j]
    for r in np.flatnonzero(lengths >= 8):
        out[r] = x[starts[r] : starts[r] + lengths[r]].sum()
    return out


def decompose_mesh(mesh: TriMesh, levelsets: list[DiscreteLevelSet]) -> MeshDecomposition:
    """Partition all elements and collect interface segments.

    There is one subdomain per level set, plus the background: level set k
    bounds subdomain k + 1, and subdomain 0 is where every level set is
    nonnegative.  A segment of level set k separates subdomain k + 1 from a
    lower one, so its pair is (adj, k + 1) with adj <= k.
    """
    n_ls = len(levelsets)
    for ls in levelsets:
        if ls.mesh is not mesh:
            raise InvalidGeometryError("all level sets must live on the same mesh")
    n_sub = n_ls + 1

    nt = mesh.n_triangles
    status = np.zeros((n_sub, nt), dtype=np.uint8)

    if n_ls == 0:
        status[0, :] = INSIDE
        return MeshDecomposition(
            n_subdomains=1,
            status=status,
            subtri_cells=[np.empty(0, dtype=np.int64)],
            subtri_coords=[np.empty((0, 3, 2))],
            segments={},
        )

    corner_vals = np.stack([ls.cell_values() for ls in levelsets])  # (n_ls, nt, 3)
    signs = corner_vals > 0.0
    mixed = (signs.any(axis=2) & ~signs.all(axis=2)).any(axis=0)  # (nt,)

    # uniform elements: classify by their first corner
    uniform = np.flatnonzero(~mixed)
    status[classify_values(corner_vals[:, uniform, 0]), uniform] = INSIDE

    cells = np.flatnonzero(mixed)
    (tri_cell, tris, sub), (segment_cell, p0, p1, lo, seg_k) = _split_cells(
        mesh.triangle_coords(cells),
        corner_vals[:, cells].transpose(1, 0, 2),
        ZERO_SHIFT * mesh.h,
    )

    # one run of pieces per (subdomain, cell), in its cell's clipping order
    order = np.argsort(sub, kind="stable")
    tris, tri_cell, sub = tris[order], tri_cell[order], sub[order]
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    new_run = np.ones(sub.size, dtype=bool)
    new_run[1:] = (sub[1:] != sub[:-1]) | (tri_cell[1:] != tri_cell[:-1])
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.append(starts, sub.size))
    doubled = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    part = 0.5 * _run_sums(doubled, starts, lengths)
    run_cell, run_sub = tri_cell[starts], sub[starts]
    cell_area = triangle_areas(mesh.vertices, mesh.triangles[cells])[run_cell]
    kept = part > MIN_REGION_AREA * cell_area
    full = part >= (1.0 - 1e-12) * cell_area
    status[run_sub[kept], cells[run_cell[kept]]] = np.where(full[kept], INSIDE, CUT)
    in_cut = np.repeat(kept & ~full, lengths)

    hi = seg_k + 1
    d = p1 - p0
    at = cells[segment_cell]
    # a segment only makes sense where both sides hold material; the area
    # filter above may have discarded a sliver partner
    live = (
        (np.hypot(d[:, 0], d[:, 1]) > MIN_SEGMENT * mesh.h)
        & (status[lo, at] != OUTSIDE)
        & (status[hi, at] != OUTSIDE)
    )
    p0, p1, lo, hi, at = p0[live], p1[live], lo[live], hi[live], at[live]
    grads = np.stack([ls.cell_gradients(cells) for ls in levelsets])
    grad = grads[seg_k[live], segment_cell[live]]
    # np.linalg.norm of each vector: a BLAS dot, which rounds differently
    # from an elementwise sqrt(x*x + y*y)
    norm = np.array([np.linalg.norm(v) for v in grad]).reshape(-1, 1)
    if np.any(norm == 0.0):
        raise DegenerateCutError("level set gradient vanishes on a cut cell")
    normal = -grad / norm  # points into the governing (owner) side, hi
    pair = lo * n_sub + hi
    codes, first = np.unique(pair, return_index=True)
    by_pair = {
        (int(code // n_sub), int(code % n_sub)): pair == code
        for code in codes[np.argsort(first)]
    }
    return MeshDecomposition(
        n_subdomains=n_sub,
        status=status,
        subtri_cells=[cells[tri_cell[in_cut & (sub == s)]] for s in range(n_sub)],
        subtri_coords=[tris[in_cut & (sub == s)] for s in range(n_sub)],
        segments={k: (p0[m], p1[m], at[m], normal[m]) for k, m in by_pair.items()},
    )


def _faces_within(mesh: TriMesh, in_set: np.ndarray) -> tuple[np.ndarray, ...]:
    """Interior faces with both cells in a cell set (mask over mesh.faces),
    and every face's left and right cell (right is 0 on boundary faces)."""
    faces = mesh.faces
    interior = faces[:, 3] != BOUNDARY
    left = faces[:, 2]
    right = np.where(interior, faces[:, 3], 0)
    return interior & in_set[left] & in_set[right], left, right


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
    material: Material,
    decomposition: MeshDecomposition,
) -> CutDomain:
    """Assemble the fictitious domain record of one subdomain."""
    if not (0 <= index < decomposition.n_subdomains):
        raise InvalidGeometryError(f"subdomain {index} does not exist")
    status = decomposition.status[index]
    full_cells = np.flatnonzero(status == INSIDE)
    cells = np.flatnonzero(status != OUTSIDE)
    if cells.size == 0:
        raise EmptyDomainError(f"subdomain {index} covers no cells")

    is_cut = status == CUT
    within, left, right = _faces_within(mesh, status != OUTSIDE)
    ghost_faces = np.flatnonzero(within & (is_cut[left] | is_cut[right]))

    full_pts, full_w = quadrature.triangle_points(mesh.triangle_coords(full_cells))
    sub_cells = decomposition.subtri_cells[index]
    sub_coords = decomposition.subtri_coords[index]
    cut_pts, cut_w = quadrature.triangle_points(sub_coords)
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

    p0: np.ndarray  # (ns, 2)
    p1: np.ndarray
    cell: np.ndarray  # (ns,)
    normal: np.ndarray  # (ns, 2) unit
    length: np.ndarray  # (ns,)
    qpoints: np.ndarray  # (nq, 2)
    qweights: np.ndarray  # (nq,)
    qseg: np.ndarray  # (nq,) parent segment per quadrature point

    @property
    def n_segments(self) -> int:
        return self.p0.shape[0]

    @property
    def qnormals(self) -> np.ndarray:
        return self.normal[self.qseg]

    @property
    def qcells(self) -> np.ndarray:
        return self.cell[self.qseg]


def _make_segment_set(p0, p1, cell, normal, n_quad: int) -> SegmentSet:
    pts, w = quadrature.segment_points(p0, p1, n_quad)
    ns = p0.shape[0]
    return SegmentSet(
        p0=p0,
        p1=p1,
        cell=cell,
        normal=normal,
        length=np.hypot(*(p1 - p0).T).reshape(ns),
        qpoints=pts.reshape(-1, 2),
        qweights=w.ravel(),
        qseg=np.repeat(np.arange(ns), n_quad),
    )


@dataclass
class InterfaceMesh:
    """Discrete interface between two subdomains.

    segments.normal points from the lower-indexed side into the higher one.
    Interface fields are carried by band_vertices, the vertices of the
    elements the interface crosses, and the gradient jump stabilization acts
    on interior_faces, the faces with both neighbors among those elements.
    """

    pair: tuple[int, int]
    segments: SegmentSet
    band_vertices: np.ndarray
    interior_faces: np.ndarray


def build_interface(
    i: int,
    j: int,
    mesh: TriMesh,
    decomposition: MeshDecomposition,
    n_quad: int = 2,
) -> InterfaceMesh:
    """Assemble the interface record of a subdomain pair (i < j)."""
    if not i < j:
        raise InvalidGeometryError("interface pairs are keyed with i < j")
    key = (i, j)
    if key not in decomposition.segments:
        raise EmptyInterfaceError(f"subdomains {i} and {j} share no interface")
    segs = _make_segment_set(*decomposition.segments[key], n_quad)
    band_cells = np.unique(segs.cell)
    band_vertices = np.unique(mesh.triangles[band_cells])
    in_band = np.zeros(mesh.n_triangles, dtype=bool)
    in_band[band_cells] = True
    return InterfaceMesh(
        pair=key,
        segments=segs,
        band_vertices=band_vertices,
        interior_faces=np.flatnonzero(_faces_within(mesh, in_band)[0]),
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
        mesh.vertices[faces[:, 0]].astype(float),
        mesh.vertices[faces[:, 1]].astype(float),
        faces[:, 2].astype(np.int64),
        mesh.face_normals[face_ids],
        n_quad,
    )
