"""Error norms against nested fine references, rate fits, traction profiles.

Coarse solutions are first carried to the fine mesh nodally (exact for
nested structured refinements), then all integrals run over the fine cut
quadrature, so coarse and reference fields are compared in one space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import FESpace, p1_derivatives, physical_cell_areas
from .cutgeom import InterfaceMesh
from .errors import InvalidGeometryError, NonNestedMeshError
from .levelset import barycentric_coordinates
from .mesh import StructuredLocator, TriMesh


def refinement_levels(coarse: TriMesh, fine: TriMesh) -> int:
    """Number of uniform refinements from coarse to fine; both structured."""
    if coarse.structured is None or fine.structured is None:
        raise NonNestedMeshError("nesting check requires structured meshes")
    ci, fi = coarse.structured, fine.structured
    if ci.rect != fi.rect:
        raise NonNestedMeshError("meshes cover different rectangles")
    if fi.nx % ci.nx or fi.ny % ci.ny or fi.nx // ci.nx != fi.ny // ci.ny:
        raise NonNestedMeshError(
            f"fine grid {fi.nx}x{fi.ny} is not a refinement of {ci.nx}x{ci.ny}"
        )
    ratio = fi.nx // ci.nx
    levels = int(round(np.log2(ratio)))
    if 2**levels != ratio:
        raise NonNestedMeshError(f"refinement ratio {ratio} is not a power of two")
    return levels


def interpolate_to_fine(
    u_coarse: np.ndarray, coarse_space: FESpace, fine_space: FESpace
) -> np.ndarray:
    """Evaluate a coarse subdomain field at the fine space's vertices.

    u_coarse may also be a (t, n) stack of fields: the fine vertices are
    located once and every row is evaluated exactly as on its own, giving a
    (t, n_fine) stack.

    Every fine vertex must be covered by the coarse fictitious cell set;
    vertices in fine cells that poke past it (interface resolved more
    sharply on the fine mesh) take the linear extension of the nearest
    covering coarse cell, chosen deterministically (lowest index).
    """
    coarse_mesh = coarse_space.mesh
    refinement_levels(coarse_mesh, fine_space.mesh)
    locator = StructuredLocator(coarse_mesh)
    fict = np.zeros(coarse_mesh.n_triangles, dtype=bool)
    fict[coarse_space.domain.cells] = True

    pts = fine_space.mesh.vertices[fine_space.vertices]
    cells = locator.locate(pts)
    bary = barycentric_coordinates(pts, coarse_mesh.triangle_coords(cells))
    good = fict[cells] & np.all(bary >= -1e-9, axis=1)

    for idx in np.flatnonzero(~good):
        pt = pts[idx]
        best = -1
        best_violation = np.inf
        for tol in (1e-9, 0.51):
            for c in locator.candidates(pt, tol):
                if not fict[c]:
                    continue
                b = barycentric_coordinates(
                    pt[None, :], coarse_mesh.triangle_coords(np.array([c]))
                )[0]
                violation = float(-min(b.min(), 0.0))
                if violation < best_violation - 1e-12 or (
                    abs(violation - best_violation) <= 1e-12 and c < best
                ):
                    best = c
                    best_violation = violation
            if best >= 0 and best_violation <= 1e-9:
                break
        if best < 0:
            raise InvalidGeometryError(
                f"fine vertex {pt} has no covering coarse cell in subdomain "
                f"{coarse_space.domain.index}"
            )
        cells[idx] = best
        bary[idx] = barycentric_coordinates(
            pt[None, :], coarse_mesh.triangle_coords(np.array([best]))
        )[0]

    dofs = coarse_space.element_dofs(cells)  # (m, 6)
    fields = np.atleast_2d(u_coarse)
    out = np.empty((fields.shape[0], fine_space.n_dofs))
    for u, row in zip(fields, out):
        row[0::2] = np.einsum("mk,mk->m", bary, u[dofs[:, 0::2]])
        row[1::2] = np.einsum("mk,mk->m", bary, u[dofs[:, 1::2]])
    return out if np.ndim(u_coarse) == 2 else out[0]


def _cell_gradients(space: FESpace, u: np.ndarray) -> np.ndarray:
    """Per-cell displacement gradients (m, 2, 2) with entries du_i/dx_j."""
    cells = space.domain.cells
    ue = u[space.element_dofs(cells)]
    bq, cq, area2 = p1_derivatives(space.mesh.triangle_coords(cells))
    gx = bq / area2[:, None]
    gy = cq / area2[:, None]
    grad = np.empty((cells.size, 2, 2))
    for comp in range(2):
        vals = ue[:, comp::2]
        grad[:, comp, 0] = np.einsum("mk,mk->m", vals, gx)
        grad[:, comp, 1] = np.einsum("mk,mk->m", vals, gy)
    return grad


def h1_error(
    u_a: list[np.ndarray], u_b: list[np.ndarray], spaces: list[FESpace]
) -> float:
    """Broken H1 norm of (a - b) over the physical cut quadrature."""
    total = 0.0
    for ua, ub, space in zip(u_a, u_b, spaces):
        du = ua - ub
        domain = space.domain
        bary = barycentric_coordinates(
            domain.qpoints, space.mesh.triangle_coords(domain.qcells)
        )
        dofs = space.element_dofs(domain.qcells)
        vx = np.einsum("mk,mk->m", bary, du[dofs[:, 0::2]])
        vy = np.einsum("mk,mk->m", bary, du[dofs[:, 1::2]])
        total += float(domain.qweights @ (vx**2 + vy**2))
        grad = _cell_gradients(space, du)
        total += float(physical_cell_areas(space) @ np.einsum("mij,mij->m", grad, grad))
    return float(np.sqrt(total))


def energy_error(
    u_a: list[np.ndarray], u_b: list[np.ndarray], spaces: list[FESpace]
) -> float:
    """Energy norm of (a - b), using each subdomain's own Hooke tensor."""
    total = 0.0
    for ua, ub, space in zip(u_a, u_b, spaces):
        du = ua - ub
        grad = _cell_gradients(space, du)
        eps = 0.5 * (grad + grad.transpose(0, 2, 1))
        mat = space.domain.material
        tr = eps[:, 0, 0] + eps[:, 1, 1]
        dens = mat.lam * tr**2 + 2.0 * mat.mu * np.einsum("mij,mij->m", eps, eps)
        total += float(physical_cell_areas(space) @ dens)
    return float(np.sqrt(total))


@dataclass
class ConvergenceRecord:
    """One mesh ladder worth of error data plus fitted rates."""

    h: list[float]
    h1: list[float]
    energy: list[float]
    iterations: list[int]

    def __post_init__(self) -> None:
        n = len(self.h)
        if not (len(self.h1) == len(self.energy) == len(self.iterations) == n):
            raise ValueError("ragged convergence record")
        if any(b >= a for a, b in zip(self.h, self.h[1:])):
            raise ValueError("mesh sizes must be strictly decreasing")
        if any(e <= 0 for e in self.h1 + self.energy):
            raise ValueError("errors must be positive")

    @property
    def h1_rate(self) -> float:
        return fit_rate(self.h, self.h1)

    @property
    def energy_rate(self) -> float:
        return fit_rate(self.h, self.energy)


def fit_rate(h: list[float], errors: list[float]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    if len(h) < 3:
        raise ValueError("rate fits need at least 3 points")
    if len(errors) != len(h):
        raise ValueError("mismatched h and error lists")
    h_arr = np.asarray(h, dtype=float)
    e_arr = np.asarray(errors, dtype=float)
    if np.any(h_arr <= 0) or np.any(e_arr <= 0):
        raise ValueError("rate fits need positive h and errors")
    return float(np.polyfit(np.log(h_arr), np.log(e_arr), 1)[0])


def traction_profile(
    iface: InterfaceMesh,
    f_at_qps: np.ndarray,
    center: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """(theta, normal traction) per interface quadrature point, sorted.

    theta is the two-argument arctangent of the point around ``center``;
    the traction is the dot product with the pair normal.
    """
    segs = iface.segments
    vals = np.asarray(f_at_qps, dtype=float).reshape(-1, 2)
    if vals.shape[0] != segs.qcells.size:
        raise ValueError("one traction vector per quadrature point required")
    theta = np.arctan2(
        segs.qpoints[:, 1] - center[1], segs.qpoints[:, 0] - center[0]
    )
    fn = np.einsum("qi,qi->q", vals, segs.qnormals)
    order = np.argsort(theta, kind="stable")
    return np.column_stack((theta[order], fn[order]))


def total_variation(values: np.ndarray) -> float:
    """Sum of absolute successive differences; the oscillation measure."""
    v = np.asarray(values, dtype=float)
    return float(np.abs(np.diff(v)).sum())
