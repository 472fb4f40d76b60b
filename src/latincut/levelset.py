"""Level-set catalog and P1 discrete level sets.

Subdomains are carved out of the background domain by an ordered list of
level sets: a point belongs to subdomain 0 if every level set is
nonnegative there, and otherwise to subdomain i+1 where i is the highest
list position whose level set is negative.  Later level sets therefore take
priority, which is what resolves triple junctions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGeometryError
from .mesh import TriMesh

# Nodal values closer to zero than this (relative to h) are nudged to the
# positive side so no element sees an exactly-vanishing level set.
ZERO_SHIFT = 1e-12


@dataclass(frozen=True)
class Ellipse:
    """phi = sqrt(((x-cx)/a)^2 + ((y-cy)/b)^2) - r, negative inside."""

    a: float
    b: float
    r: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0 or self.r <= 0.0:
            raise InvalidGeometryError("ellipse needs positive a, b, r")

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        dx = (pts[..., 0] - self.center[0]) / self.a
        dy = (pts[..., 1] - self.center[1]) / self.b
        return np.sqrt(dx * dx + dy * dy) - self.r


@dataclass(frozen=True)
class Circle:
    """phi = |x - center| - r, negative inside."""

    center: tuple[float, float]
    r: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise InvalidGeometryError("circle needs positive radius")

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        dx = pts[..., 0] - self.center[0]
        dy = pts[..., 1] - self.center[1]
        return np.sqrt(dx * dx + dy * dy) - self.r


@dataclass(frozen=True)
class HalfPlane:
    """phi = a*x + b*y + c, negative on one side of the line."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0:
            raise InvalidGeometryError("half-plane needs a nonzero gradient")

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return self.a * pts[..., 0] + self.b * pts[..., 1] + self.c


LevelSetFunction = Ellipse | Circle | HalfPlane


@dataclass
class DiscreteLevelSet:
    """P1 interpolant of a level set on the background mesh.

    classification_values are the vertex samples given, copied with the
    zero-shift applied before any sign decision, so classification,
    subtriangulation and quadrature all agree on which side a vertex is on.
    """

    mesh: TriMesh
    classification_values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.classification_values, dtype=float)
        if vals.shape != (self.mesh.n_vertices,):
            raise InvalidGeometryError("nodal value count must match the mesh")
        shift = ZERO_SHIFT * self.mesh.h
        vals[np.abs(vals) < shift] = shift
        self.classification_values = vals

    def cell_values(self, tris: np.ndarray | None = None) -> np.ndarray:
        """Classification values at triangle corners, shape (m, 3)."""
        idx = self.mesh.triangles if tris is None else self.mesh.triangles[tris]
        return self.classification_values[idx]

    def cell_gradients(self, tris: np.ndarray | None = None) -> np.ndarray:
        """Constant P1 gradient per triangle, shape (m, 2)."""
        p = self.mesh.triangle_coords(tris)
        v = self.cell_values(tris)
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        dv1 = v[:, 1] - v[:, 0]
        dv2 = v[:, 2] - v[:, 0]
        gx = (dv1 * e2[:, 1] - dv2 * e1[:, 1]) / det
        gy = (-dv1 * e2[:, 0] + dv2 * e1[:, 0]) / det
        return np.column_stack((gx, gy))


def interpolate_levelset(func: LevelSetFunction, mesh: TriMesh) -> DiscreteLevelSet:
    """Sample a catalog level set at the mesh vertices."""
    return DiscreteLevelSet(mesh=mesh, classification_values=func.evaluate(mesh.vertices))


def classify_values(values: np.ndarray) -> np.ndarray:
    """Subdomain index per point from stacked level-set values (m, n_pts).

    Implements the priority rule: 0 where all values are >= 0, otherwise
    1 + the highest row index with a negative value.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    neg = values < 0.0
    n_ls = values.shape[0]
    out = np.zeros(values.shape[1], dtype=np.int64)
    any_neg = neg.any(axis=0)
    # argmax on the reversed rows finds the highest negative index
    rev_first = np.argmax(neg[::-1], axis=0)
    out[any_neg] = n_ls - rev_first[any_neg]
    return out


def classify_point(pts: np.ndarray, levelsets: list[DiscreteLevelSet]) -> np.ndarray:
    """Subdomain index of points under the discrete level sets, by the
    priority rule of `classify_values`.

    Points are evaluated through the P1 interpolants (with the zero shift),
    so the answer matches the element classification exactly.
    """
    pts = np.asarray(pts, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if not levelsets:
        labels = np.zeros(pts.shape[0], dtype=np.int64)
    else:
        mesh = levelsets[0].mesh
        from .mesh import StructuredLocator

        loc = StructuredLocator(mesh)
        tris = loc.locate(pts)
        corners = mesh.vertices[mesh.triangles[tris]]
        bary = barycentric_coordinates(pts, corners)
        vals = np.empty((len(levelsets), pts.shape[0]))
        for k, ls in enumerate(levelsets):
            nodal = ls.classification_values[mesh.triangles[tris]]
            vals[k] = np.einsum("pa,pa->p", bary, nodal)
        labels = classify_values(vals)
    return labels[0] if single else labels


def barycentric_coordinates(pts: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of pts (m, 2) w.r.t. triangles (m, 3, 2)."""
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    d = pts - corners[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    l1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    l2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    return np.column_stack((1.0 - l1 - l2, l1, l2))
