"""Structured background triangle meshes, uniform refinement, face adjacency.

The background mesh never conforms to the physical geometry: cut cells,
fictitious extensions and interface bands are carved out of it downstream.
Faces are stored once per edge with a fixed left/right orientation so ghost
penalty and gradient-jump terms can be assembled without re-deriving
adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidMeshError

BOUNDARY = -1


@dataclass(frozen=True)
class StructuredInfo:
    """Lattice metadata kept through refinement for O(1) point location."""

    rect: tuple[float, float, float, float]  # x0, y0, x1, y1
    nx: int
    ny: int
    diag: str = "bltr"


@dataclass
class TriMesh:
    """Conforming triangle mesh with precomputed face adjacency.

    Attributes
    ----------
    vertices : (nv, 2) float
    triangles : (nt, 3) int, counterclockwise
    faces : (nf, 4) int rows (v0, v1, left_tri, right_tri); right_tri is
        BOUNDARY (-1) on the boundary.  The unit normal of face f points from
        left_tri into right_tri (outward on the boundary).
    face_normals : (nf, 2) float
    h : float, maximum edge length
    boundary_tags : side name -> sorted array of boundary face indices
    """

    vertices: np.ndarray
    triangles: np.ndarray
    faces: np.ndarray
    face_normals: np.ndarray
    h: float
    boundary_tags: dict[str, np.ndarray] = field(default_factory=dict)
    structured: StructuredInfo | None = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_coords(self, tris: np.ndarray | None = None) -> np.ndarray:
        """Vertex coordinates per triangle, shape (m, 3, 2)."""
        idx = self.triangles if tris is None else self.triangles[tris]
        return self.vertices[idx]


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed areas (positive for counterclockwise triangles)."""
    p = vertices[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def triangle_diameters(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Longest edge per triangle."""
    p = vertices[triangles]
    d01 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    d12 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    d20 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    return np.maximum(d01, np.maximum(d12, d20))


def build_face_adjacency(
    vertices: np.ndarray, triangles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Derive the unique face list of a triangle soup.

    Faces are keyed by the sorted vertex pair and emitted in lexicographic
    order, which makes mesh construction deterministic.  The triangle that
    traverses the edge from lower to higher vertex id is on the left; an
    edge traversed only the other way is stored reversed, so its one
    triangle is on the left.  Raises InvalidMeshError on non-manifold
    connectivity (an edge claimed by more than two triangles, or twice with
    the same orientation).
    """
    tri = np.asarray(triangles, dtype=np.int64)
    u = tri.ravel()
    v = tri[:, [1, 2, 0]].ravel()
    owner = np.repeat(np.arange(tri.shape[0], dtype=np.int64), 3)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi, owner = lo[order], hi[order], owner[order]
    fwd = (u < v)[order]

    new_run = np.ones(lo.size, dtype=bool)
    new_run[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    first = np.flatnonzero(new_run)
    claims = np.diff(np.append(first, lo.size))
    crowded = np.flatnonzero(claims > 2)
    if crowded.size:
        f = first[crowded[0]]
        raise InvalidMeshError(
            f"edge {(int(lo[f]), int(hi[f]))} is claimed by "
            f"{int(claims[crowded[0]])} triangles; mesh is non-manifold"
        )
    shared = first[claims == 2]
    same = fwd[shared] == fwd[shared + 1]
    if np.any(same):
        f = shared[np.argmax(same)]
        raise InvalidMeshError(
            f"edge {(int(lo[f]), int(hi[f]))} is claimed twice in the same "
            "direction; mesh is non-manifold or mis-oriented"
        )

    faces = np.empty((first.size, 4), dtype=np.int64)
    lone = claims == 1
    flip = lone & ~fwd[first]
    faces[:, 0] = np.where(flip, hi[first], lo[first])
    faces[:, 1] = np.where(flip, lo[first], hi[first])
    faces[:, 2] = owner[first]
    faces[:, 3] = BOUNDARY
    # the forward claim of a shared edge may sort first or second
    fwd_first = fwd[shared]
    a, b = owner[shared], owner[shared + 1]
    faces[~lone, 2] = np.where(fwd_first, a, b)
    faces[~lone, 3] = np.where(fwd_first, b, a)

    d = vertices[faces[:, 1]] - vertices[faces[:, 0]]
    lengths = np.hypot(d[:, 0], d[:, 1])
    if np.any(lengths <= 0.0):
        raise InvalidMeshError("zero-length face")
    normals = np.column_stack((d[:, 1], -d[:, 0])) / lengths[:, None]
    return faces, normals


def _make_mesh(
    vertices: np.ndarray,
    triangles: np.ndarray,
    h: float,
    boundary_tagger,
    structured: StructuredInfo | None,
) -> TriMesh:
    areas = triangle_areas(vertices, triangles)
    if np.any(areas <= 0.0):
        raise InvalidMeshError("triangles must be counterclockwise with positive area")
    faces, normals = build_face_adjacency(vertices, triangles)
    boundary = np.flatnonzero(faces[:, 3] == BOUNDARY)
    tags = boundary_tagger(vertices, faces, boundary)
    return TriMesh(
        vertices=vertices,
        triangles=triangles,
        faces=faces,
        face_normals=normals,
        h=h,
        boundary_tags=tags,
        structured=structured,
    )


def _tag_rect_sides(rect, tol):
    x0, y0, x1, y1 = rect

    def tagger(vertices, faces, boundary_faces):
        mids = 0.5 * (vertices[faces[boundary_faces, 0]] + vertices[faces[boundary_faces, 1]])
        tags: dict[str, list[int]] = {"left": [], "right": [], "bottom": [], "top": []}
        for f, (mx, my) in zip(boundary_faces, mids):
            if abs(mx - x0) < tol:
                tags["left"].append(int(f))
            elif abs(mx - x1) < tol:
                tags["right"].append(int(f))
            elif abs(my - y0) < tol:
                tags["bottom"].append(int(f))
            elif abs(my - y1) < tol:
                tags["top"].append(int(f))
            else:
                raise InvalidMeshError("boundary face not on any side of the rectangle")
        return {k: np.asarray(sorted(v), dtype=np.int64) for k, v in tags.items()}

    return tagger


def build_structured_mesh(
    rect: tuple[float, float, float, float],
    nx: int,
    ny: int,
    diag: str = "bltr",
) -> TriMesh:
    """Uniform lattice mesh of a rectangle, two triangles per cell.

    Parameters
    ----------
    rect : (x0, y0, x1, y1)
    nx, ny : cells per direction; (nx+1)*(ny+1) vertices, 2*nx*ny triangles.
    diag : "bltr" splits each cell from bottom-left to top-right.

    Returns a TriMesh whose h is the cell diagonal and whose boundary faces
    carry left/right/bottom/top tags.
    """
    if nx < 1 or ny < 1:
        raise InvalidMeshError("nx and ny must be at least 1")
    if diag != "bltr":
        raise InvalidMeshError(f"unsupported diagonal orientation {diag!r}")
    x0, y0, x1, y1 = (float(v) for v in rect)
    if not (x1 > x0 and y1 > y0):
        raise InvalidMeshError("rectangle must have positive extents")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack((X.ravel(), Y.ravel()))

    def vid(i, j):
        return j * (nx + 1) + i

    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    i = i.ravel()
    j = j.ravel()
    n00 = vid(i, j)
    n10 = vid(i + 1, j)
    n01 = vid(i, j + 1)
    n11 = vid(i + 1, j + 1)
    lower = np.column_stack((n00, n10, n11))  # below the bl->tr diagonal
    upper = np.column_stack((n00, n11, n01))
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    dx = (x1 - x0) / nx
    dy = (y1 - y0) / ny
    h = float(np.hypot(dx, dy))
    tol = 1e-12 * max(x1 - x0, y1 - y0)
    info = StructuredInfo(rect=(x0, y0, x1, y1), nx=nx, ny=ny, diag=diag)
    return _make_mesh(vertices, triangles, h, _tag_rect_sides((x0, y0, x1, y1), tol), info)


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Split every triangle into four via edge midpoints.

    Midpoint vertices are deduplicated exactly by indexing the parent face
    list, so refining the same mesh twice gives identical vertex orderings.
    The new h is exactly half the parent's; boundary tags are inherited.
    """
    nv = mesh.n_vertices
    faces = mesh.faces
    midpoints = 0.5 * (mesh.vertices[faces[:, 0]] + mesh.vertices[faces[:, 1]])
    vertices = np.vstack((mesh.vertices, midpoints))

    # face index lookup per (min, max) vertex pair
    pair_to_face: dict[tuple[int, int], int] = {}
    for f, (a, b, _, _) in enumerate(faces):
        pair_to_face[(int(min(a, b)), int(max(a, b)))] = f

    def mid(u, v):
        return nv + pair_to_face[(int(min(u, v)), int(max(u, v)))]

    children = np.empty((4 * mesh.n_triangles, 3), dtype=np.int64)
    for t, (a, b, c) in enumerate(mesh.triangles):
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        children[4 * t + 0] = (a, mab, mca)
        children[4 * t + 1] = (mab, b, mbc)
        children[4 * t + 2] = (mca, mbc, c)
        children[4 * t + 3] = (mab, mbc, mca)

    info = mesh.structured
    if info is not None:
        info = StructuredInfo(rect=info.rect, nx=2 * info.nx, ny=2 * info.ny, diag=info.diag)

    # Children of a tagged boundary face are the two halves split at its
    # midpoint; propagate the parent's tag to both.
    inherits: dict[tuple[int, int], str] = {}
    for tag, bfaces in mesh.boundary_tags.items():
        for f in bfaces:
            a, b = int(faces[f, 0]), int(faces[f, 1])
            m = mid(a, b)
            inherits[(min(a, m), max(a, m))] = tag
            inherits[(min(b, m), max(b, m))] = tag

    def tagger(verts, new_faces, boundary_faces):
        tags: dict[str, list[int]] = {k: [] for k in mesh.boundary_tags}
        for f in boundary_faces:
            a, b = int(new_faces[f, 0]), int(new_faces[f, 1])
            tag = inherits.get((min(a, b), max(a, b)))
            if tag is not None:  # untagged parents stay untagged
                tags[tag].append(int(f))
        return {k: np.asarray(sorted(v), dtype=np.int64) for k, v in tags.items()}

    return _make_mesh(vertices, children, mesh.h / 2.0, tagger, info)


class StructuredLocator:
    """O(1) point-to-triangle lookup on a (possibly refined) structured mesh."""

    def __init__(self, mesh: TriMesh):
        if mesh.structured is None:
            raise InvalidMeshError("point location requires structured metadata")
        self.mesh = mesh
        info = mesh.structured
        self.x0, self.y0, self.x1, self.y1 = info.rect
        self.nx, self.ny = info.nx, info.ny
        self.dx = (self.x1 - self.x0) / self.nx
        self.dy = (self.y1 - self.y0) / self.ny
        # slot = (cell id)*2 + {0: below diagonal, 1: above}
        centroids = mesh.triangle_coords().mean(axis=1)
        slots = self._slots(centroids)
        table = np.full(2 * self.nx * self.ny, -1, dtype=np.int64)
        table[slots] = np.arange(mesh.n_triangles)
        if np.any(table < 0):
            raise InvalidMeshError("mesh does not fill its structured lattice")
        self.table = table

    def _slots(self, pts: np.ndarray) -> np.ndarray:
        fx = (pts[:, 0] - self.x0) / self.dx
        fy = (pts[:, 1] - self.y0) / self.dy
        i = np.clip(np.floor(fx).astype(np.int64), 0, self.nx - 1)
        j = np.clip(np.floor(fy).astype(np.int64), 0, self.ny - 1)
        upper = (fy - j) > (fx - i)
        return (j * self.nx + i) * 2 + upper.astype(np.int64)

    def locate(self, pts: np.ndarray) -> np.ndarray:
        """Triangle index per point; points on edges resolve to either side."""
        return self.table[self._slots(np.asarray(pts, dtype=float))]

    def candidates(self, pt: np.ndarray, tol: float = 1e-9) -> list[int]:
        """All triangles whose closed cell neighborhood may contain pt.

        Used for points that sit exactly on cell boundaries, where the direct
        slot is ambiguous.
        """
        out: list[int] = []
        fx = (pt[0] - self.x0) / self.dx
        fy = (pt[1] - self.y0) / self.dy
        i_set = {int(np.clip(np.floor(fx + s * tol), 0, self.nx - 1)) for s in (-1, 0, 1)}
        j_set = {int(np.clip(np.floor(fy + s * tol), 0, self.ny - 1)) for s in (-1, 0, 1)}
        for j in sorted(j_set):
            for i in sorted(i_set):
                base = (j * self.nx + i) * 2
                out.extend((int(self.table[base]), int(self.table[base + 1])))
        return out
