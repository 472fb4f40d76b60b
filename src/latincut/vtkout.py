"""Legacy ASCII VTK dumps of subdomain fields.

Cells of the physical sub-triangulation are written with duplicated corner
points (uncut elements whole, cut elements as their material sub-triangles)
so no connectivity bookkeeping is needed.  Displacement is interpolated to
the corners; the constant per-element stress is replicated onto the
sub-triangles.  All numbers are written with repr so identical runs produce
identical bytes; they are converted to Python floats in bulk with
`tolist()`, which gives the same floats as converting one value at a time.
"""

from __future__ import annotations

import numpy as np

from .assembly import FESpace, elasticity_matrix, strain_displacement
from .levelset import barycentric_coordinates


def physical_triangulation(space: FESpace) -> tuple[np.ndarray, np.ndarray]:
    """Corner coordinates (m, 3, 2) and parent element per physical triangle."""
    domain = space.domain
    mesh = domain.mesh
    full_coords = mesh.triangle_coords(domain.full_cells)
    coords = np.concatenate([full_coords, domain.subtri_coords]) \
        if domain.subtri_coords.size else full_coords
    parents = np.concatenate([domain.full_cells, domain.subtri_cells])
    return coords, parents


def corner_displacements(
    space: FESpace, u: np.ndarray, coords: np.ndarray, parents: np.ndarray
) -> np.ndarray:
    """Displacement at every physical-triangle corner, shape (m, 3, 2)."""
    mesh = space.domain.mesh
    tri_vertices = mesh.triangles[parents]
    nodal = u[space.vertex_dofs(tri_vertices.ravel())].reshape(-1, 3, 2)
    n_full = space.domain.full_cells.size
    out = np.empty_like(nodal)
    out[:n_full] = nodal[:n_full]
    if coords.shape[0] > n_full:
        sub = np.arange(n_full, coords.shape[0])
        parent_coords = mesh.triangle_coords(parents[sub])
        lam = barycentric_coordinates(
            coords[sub].reshape(-1, 2), np.repeat(parent_coords, 3, axis=0)
        ).reshape(-1, 3, 3)
        out[sub] = np.einsum("mca,mav->mcv", lam, nodal[sub])
    return out


def element_stresses(space: FESpace, u: np.ndarray) -> np.ndarray:
    """Constant plane-strain stress (sigma_xx, sigma_yy, sigma_xy) per
    active element, indexed like space.domain.cells."""
    cells = space.domain.cells
    coords = space.domain.mesh.triangle_coords(cells)
    b, _ = strain_displacement(coords)
    ue = u[space.element_dofs(cells)]
    strain = np.einsum("eij,ej->ei", b, ue)
    d = elasticity_matrix(space.domain.material)
    return strain @ d.T


def _xy0_lines(pairs: np.ndarray) -> list[str]:
    """One "x y 0.0" line per row of pairs, shape (..., 2)."""
    return [f"{x!r} {y!r} 0.0" for x, y in pairs.reshape(-1, 2).tolist()]


def write_subdomain_vtk(path, space: FESpace, u: np.ndarray, title: str) -> None:
    coords, parents = physical_triangulation(space)
    disp = corner_displacements(space, u, coords, parents)
    # domain.cells is sorted (np.flatnonzero), so searchsorted finds each parent
    stress = element_stresses(space, u)[np.searchsorted(space.domain.cells, parents)]

    m = coords.shape[0]
    n_pts = 3 * m
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n_pts} double",
    ]
    lines.extend(_xy0_lines(coords))
    lines.append(f"CELLS {m} {4 * m}")
    for k in range(m):
        lines.append(f"3 {3 * k} {3 * k + 1} {3 * k + 2}")
    lines.append(f"CELL_TYPES {m}")
    lines.extend(["5"] * m)
    lines.append(f"POINT_DATA {n_pts}")
    lines.append("VECTORS displacement double")
    lines.extend(_xy0_lines(disp))
    lines.append(f"CELL_DATA {m}")
    for name, col in (("stress_xx", 0), ("stress_yy", 1), ("stress_xy", 2)):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(map(repr, stress[:, col].tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
