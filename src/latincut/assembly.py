"""P1 plane-strain assembly on fictitious subdomains.

Displacement dofs live on the vertices of the fictitious cell set, two per
vertex, interleaved (x0, y0, x1, y1, ...).  Cut-cell stiffness integrates
over the physical sub-triangulation only; the ghost penalty acts on the
fictitious faces so the operator stays well conditioned however the
interface slices the cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .cutgeom import CutDomain, Material, SegmentSet
from .errors import InvalidGeometryError
from .levelset import barycentric_coordinates
from .linalg import SparseSym
from .mesh import TriMesh, triangle_areas, triangle_diameters

VectorData = Callable[[np.ndarray], np.ndarray] | tuple[float, float] | list | np.ndarray


@dataclass
class FESpace:
    """Vector P1 space on one subdomain's fictitious cells."""

    domain: CutDomain
    vertices: np.ndarray  # mesh vertex ids carrying dofs, sorted
    vmap: np.ndarray  # mesh vertex -> local vertex index or -1
    n_dofs: int

    @property
    def mesh(self) -> TriMesh:
        return self.domain.mesh

    def vertex_dofs(self, mesh_vertices: np.ndarray) -> np.ndarray:
        """Dof pairs (m, 2) of mesh vertices; raises if any carry no dof."""
        local = self.vmap[np.asarray(mesh_vertices)]
        if np.any(local < 0):
            raise InvalidGeometryError("vertex carries no dof in this space")
        return np.column_stack((2 * local, 2 * local + 1))

    def element_dofs(self, cells: np.ndarray) -> np.ndarray:
        """Interleaved dof columns (m, 6) of the given cells."""
        verts = self.mesh.triangles[np.asarray(cells)]
        local = self.vmap[verts]
        if np.any(local < 0):
            raise InvalidGeometryError("cell outside the fictitious domain")
        out = np.empty(verts.shape[:1] + (6,), dtype=np.int64)
        out[:, 0::2] = 2 * local
        out[:, 1::2] = 2 * local + 1
        return out


def build_space(domain: CutDomain) -> FESpace:
    vertices = np.unique(domain.mesh.triangles[domain.cells])
    vmap = np.full(domain.mesh.n_vertices, -1, dtype=np.int64)
    vmap[vertices] = np.arange(vertices.size)
    return FESpace(domain=domain, vertices=vertices, vmap=vmap, n_dofs=2 * vertices.size)


def elasticity_matrix(material: Material) -> np.ndarray:
    """Plane-strain constitutive matrix in Voigt form (engineering shear)."""
    lam, mu = material.lam, material.mu
    return np.array(
        [
            [lam + 2.0 * mu, lam, 0.0],
            [lam, lam + 2.0 * mu, 0.0],
            [0.0, 0.0, mu],
        ]
    )


def strain_displacement(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant strain-displacement matrices B (m, 3, 6) and areas (m,)."""
    coords = np.asarray(coords, dtype=float)
    x = coords[..., 0]
    y = coords[..., 1]
    bq = np.stack((y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]), axis=1)
    cq = np.stack((x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]), axis=1)
    area = 0.5 * (bq[:, 0] * cq[:, 1] - bq[:, 1] * cq[:, 0])
    m = coords.shape[0]
    b = np.zeros((m, 3, 6))
    inv = 1.0 / (2.0 * area)
    for i in range(3):
        b[:, 0, 2 * i] = bq[:, i] * inv
        b[:, 1, 2 * i + 1] = cq[:, i] * inv
        b[:, 2, 2 * i] = cq[:, i] * inv
        b[:, 2, 2 * i + 1] = bq[:, i] * inv
    return b, area


def _scatter(element_matrices: np.ndarray, element_dofs: np.ndarray, n: int) -> SparseSym:
    k = element_matrices.shape[1]
    rows = np.repeat(element_dofs, k, axis=1).ravel()
    cols = np.tile(element_dofs, (1, k)).ravel()
    return SparseSym.from_coo(rows, cols, element_matrices.ravel(), n)


def physical_cell_areas(space: FESpace) -> np.ndarray:
    """|T ∩ Omega| per cell, the sum of its quadrature weights, ordered like
    ``space.domain.cells``."""
    domain = space.domain
    area = np.zeros(space.mesh.n_triangles)
    np.add.at(area, domain.qcells, domain.qweights)
    return area[domain.cells]


def assemble_elasticity(space: FESpace) -> SparseSym:
    """Stiffness of the physical region: sum over cells of |T ∩ Omega| B^T D B."""
    cells = space.domain.cells
    b, _ = strain_displacement(space.mesh.triangle_coords(cells))
    d = elasticity_matrix(space.domain.material)
    area = physical_cell_areas(space)
    ke = np.einsum("eai,ab,ebj->eij", b, d, b, optimize=True) * area[:, None, None]
    ke = 0.5 * (ke + ke.transpose(0, 2, 1))
    return _scatter(ke, space.element_dofs(cells), space.n_dofs)


def _traction_maps(space: FESpace, cells: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Maps (m, 2, 6) from element dofs to the traction sigma(u) . n."""
    b, _ = strain_displacement(space.mesh.triangle_coords(cells))
    d = elasticity_matrix(space.domain.material)
    m = cells.shape[0]
    nmat = np.zeros((m, 2, 3))
    nmat[:, 0, 0] = normals[:, 0]
    nmat[:, 0, 2] = normals[:, 1]
    nmat[:, 1, 1] = normals[:, 1]
    nmat[:, 1, 2] = normals[:, 0]
    return np.einsum("mia,ab,mbj->mij", nmat, d, b, optimize=True)


def _larger_neighbor_diameter(
    mesh: TriMesh, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Per face, the diameter of the larger of its two cells; computed for
    those cells only, not for the whole mesh."""
    return np.maximum(
        triangle_diameters(mesh.vertices, mesh.triangles[left]),
        triangle_diameters(mesh.vertices, mesh.triangles[right]),
    )


def assemble_ghost_penalty(space: FESpace, gamma_g: float) -> SparseSym:
    """Normal-stress jump penalty over the fictitious ghost faces.

    Each face contributes gamma_g * (h_F / E) * |F| * jump^T jump with h_F
    the diameter of the larger neighbor; the integrand is constant for P1.
    """
    domain = space.domain
    mesh = space.mesh
    faces = mesh.faces[domain.ghost_faces]
    if faces.shape[0] == 0 or gamma_g == 0.0:
        return SparseSym(csr=sp.csr_matrix((space.n_dofs, space.n_dofs)))
    left = faces[:, 2]
    right = faces[:, 3]
    normals = mesh.face_normals[domain.ghost_faces]
    t_left = _traction_maps(space, left, normals)
    t_right = _traction_maps(space, right, normals)
    tjump = np.concatenate((t_left, -t_right), axis=2)  # (m, 2, 12)

    h_face = _larger_neighbor_diameter(mesh, left, right)
    d = mesh.vertices[faces[:, 1]] - mesh.vertices[faces[:, 0]]
    flen = np.hypot(d[:, 0], d[:, 1])
    scale = gamma_g * h_face * flen / domain.material.e

    ke = np.einsum("mia,mib->mab", tjump, tjump) * scale[:, None, None]
    ke = 0.5 * (ke + ke.transpose(0, 2, 1))
    dofs = np.concatenate(
        (space.element_dofs(left), space.element_dofs(right)), axis=1
    )
    return _scatter(ke, dofs, space.n_dofs)


def _segment_traces(space: FESpace, segs: SegmentSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-quadrature-point trace operators.

    Returns (phi, dofs): phi (nq, 2, 6) maps element dofs to u at the point,
    dofs (nq, 6) are the parent-element dof columns.
    """
    cells = segs.qcells
    corners = space.mesh.triangle_coords(cells)
    bary = barycentric_coordinates(segs.qpoints, corners)
    nq = cells.shape[0]
    phi = np.zeros((nq, 2, 6))
    for i in range(3):
        phi[:, 0, 2 * i] = bary[:, i]
        phi[:, 1, 2 * i + 1] = bary[:, i]
    return phi, space.element_dofs(cells)


def _eval_vector_data(data: VectorData, pts: np.ndarray) -> np.ndarray:
    if callable(data):
        out = np.asarray(data(pts), dtype=float)
        if out.shape != (pts.shape[0], 2):
            raise InvalidGeometryError("vector data callable must return (n, 2)")
        return out
    vec = np.asarray(data, dtype=float).reshape(2)
    return np.broadcast_to(vec, (pts.shape[0], 2)).copy()


def assemble_nitsche_matrix(space: FESpace, segs: SegmentSet, alpha: float) -> SparseSym:
    """Symmetric Nitsche operator for weak Dirichlet conditions on segments.

    -int u . sigma(v).n - int v . sigma(u).n + (alpha E / h) int u . v, with
    h the parent element diameter.
    """
    mesh = space.mesh
    diam = triangle_diameters(mesh.vertices, mesh.triangles)
    phi, dofs = _segment_traces(space, segs)
    tmap = _traction_maps(space, segs.qcells, segs.qnormals)
    w = segs.qweights
    pen = alpha * space.domain.material.e / diam[segs.qcells]
    consistency = np.einsum("qia,qib->qab", phi, tmap)
    penalty = np.einsum("qia,qib->qab", phi, phi)
    ke = (-consistency - consistency.transpose(0, 2, 1)) * w[:, None, None]
    ke += penalty * (w * pen)[:, None, None]
    ke = 0.5 * (ke + ke.transpose(0, 2, 1))
    return _scatter(ke, dofs, space.n_dofs)


def assemble_nitsche_rhs(
    space: FESpace,
    segs: SegmentSet,
    alpha: float,
    data: VectorData,
    symmetrize_data: bool = True,
) -> np.ndarray:
    """Load of the Nitsche boundary: (alpha E / h) int U.v - int U . sigma(v).n.

    The second (symmetrization) term keeps the formulation adjoint
    consistent; it can be dropped to reproduce the penalty-only variant.
    """
    mesh = space.mesh
    diam = triangle_diameters(mesh.vertices, mesh.triangles)
    phi, dofs = _segment_traces(space, segs)
    tmap = _traction_maps(space, segs.qcells, segs.qnormals)
    w = segs.qweights
    pen = alpha * space.domain.material.e / diam[segs.qcells]
    u_d = _eval_vector_data(data, segs.qpoints)
    fe = np.einsum("qia,qi->qa", phi, u_d) * (w * pen)[:, None]
    if symmetrize_data:
        fe -= np.einsum("qia,qi->qa", tmap, u_d) * w[:, None]
    rhs = np.zeros(space.n_dofs)
    np.add.at(rhs, dofs, fe)
    return rhs


def assemble_body_force(space: FESpace, f: VectorData) -> np.ndarray:
    """Load vector of a body force over the physical region."""
    domain = space.domain
    rhs = np.zeros(space.n_dofs)
    if domain.qweights.size == 0:
        return rhs
    vals = _eval_vector_data(f, domain.qpoints)
    corners = space.mesh.triangle_coords(domain.qcells)
    bary = barycentric_coordinates(domain.qpoints, corners)
    dofs = space.element_dofs(domain.qcells)
    fe = np.einsum("qa,qi->qai", bary, vals * domain.qweights[:, None]).reshape(-1, 6)
    np.add.at(rhs, dofs, fe)
    return rhs


def assemble_boundary_traction(space: FESpace, segs: SegmentSet, t: VectorData) -> np.ndarray:
    """Load vector of a prescribed traction on boundary segments."""
    phi, dofs = _segment_traces(space, segs)
    vals = _eval_vector_data(t, segs.qpoints)
    fe = np.einsum("qia,qi->qa", phi, vals * segs.qweights[:, None])
    rhs = np.zeros(space.n_dofs)
    np.add.at(rhs, dofs, fe)
    return rhs


def interface_eval_operator(
    mesh: TriMesh, segs: SegmentSet, band_vertices: np.ndarray
) -> sp.csr_matrix:
    """Sparse map from band-vertex fields to values at segment Gauss points.

    Band fields store two components per band vertex; the result has one row
    pair (x, y) per quadrature point.
    """
    bmap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    bmap[band_vertices] = np.arange(band_vertices.size)
    cells = segs.qcells
    verts = mesh.triangles[cells]
    local = bmap[verts]
    if np.any(local < 0):
        raise InvalidGeometryError("segment parent cell outside the band")
    corners = mesh.triangle_coords(cells)
    bary = barycentric_coordinates(segs.qpoints, corners)
    nq = cells.shape[0]
    rows = np.empty(nq * 6, dtype=np.int64)
    cols = np.empty(nq * 6, dtype=np.int64)
    vals = np.empty(nq * 6)
    qidx = np.arange(nq)
    for i in range(3):
        for comp in range(2):
            s = slice((2 * i + comp) * nq, (2 * i + comp + 1) * nq)
            rows[s] = 2 * qidx + comp
            cols[s] = 2 * local[:, i] + comp
            vals[s] = bary[:, i]
    return sp.csr_matrix(
        (vals, (rows, cols)), shape=(2 * nq, 2 * band_vertices.size)
    )


def interface_mass(eval_op: sp.csr_matrix, qweights: np.ndarray) -> SparseSym:
    """Interface L2 mass on band dofs from the evaluation operator."""
    w = np.repeat(qweights, 2)
    return SparseSym.finalize(eval_op.T @ sp.diags(w) @ eval_op)


def gradient_jump_matrix(
    mesh: TriMesh,
    face_ids: np.ndarray,
    band_vertices: np.ndarray,
    gamma_pi: float,
) -> SparseSym:
    """Normal-derivative jump penalty sum_F gamma h^2 |F| [dp/dn][dq/dn].

    Acts componentwise on band-vertex fields; h is the diameter of the
    larger neighbor cell.  The integrand is constant per face for P1.
    """
    n = 2 * band_vertices.size
    if face_ids.size == 0 or gamma_pi == 0.0:
        return SparseSym(csr=sp.csr_matrix((n, n)))
    bmap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    bmap[band_vertices] = np.arange(band_vertices.size)
    faces = mesh.faces[face_ids]
    left = faces[:, 2]
    right = faces[:, 3]
    normals = mesh.face_normals[face_ids]

    def normal_gradient_rows(cells):
        # (m, 3): d psi_i / dn per adjacent cell, constant for P1
        coords = mesh.triangle_coords(cells)
        x = coords[..., 0]
        y = coords[..., 1]
        bq = np.stack((y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]), axis=1)
        cq = np.stack((x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]), axis=1)
        area2 = bq[:, 0] * cq[:, 1] - bq[:, 1] * cq[:, 0]
        gx = bq / area2[:, None]
        gy = cq / area2[:, None]
        return gx * normals[:, 0:1] + gy * normals[:, 1:2]

    g = np.concatenate((normal_gradient_rows(left), -normal_gradient_rows(right)), axis=1)
    h_face = _larger_neighbor_diameter(mesh, left, right)
    d = mesh.vertices[faces[:, 1]] - mesh.vertices[faces[:, 0]]
    flen = np.hypot(d[:, 0], d[:, 1])
    scale = gamma_pi * h_face**2 * flen
    ke = np.einsum("ma,mb->mab", g, g) * scale[:, None, None]

    vl = bmap[mesh.triangles[left]]
    vr = bmap[mesh.triangles[right]]
    if np.any(vl < 0) or np.any(vr < 0):
        raise InvalidGeometryError("stabilized face touches a cell outside the band")
    scalar_dofs = np.concatenate((vl, vr), axis=1)  # (m, 6)

    rows6 = np.repeat(scalar_dofs, 6, axis=1).ravel()
    cols6 = np.tile(scalar_dofs, (1, 6)).ravel()
    vals6 = ke.ravel()
    rows = np.concatenate((2 * rows6, 2 * rows6 + 1))
    cols = np.concatenate((2 * cols6, 2 * cols6 + 1))
    vals = np.concatenate((vals6, vals6))
    return SparseSym.from_coo(rows, cols, vals, n)


def assemble_latin_augmentation(
    space: FESpace, interfaces: list, k: float
) -> SparseSym:
    """Interface mass term k int u.v over every interface of one subdomain.

    Positive semidefinite with support on band dofs only; this is the Robin
    regularization that keeps floating subdomains solvable.
    """
    total = sp.csr_matrix((space.n_dofs, space.n_dofs))
    for iface in interfaces:
        e = interface_eval_operator(space.mesh, iface.segments, iface.band_vertices)
        m = interface_mass(e, iface.segments.qweights)
        s = scatter_band_to_space(space, iface.band_vertices)
        total = total + s @ (k * m.csr) @ s.T
    return SparseSym.finalize(total)


def scatter_band_to_space(space: FESpace, band_vertices: np.ndarray) -> sp.csr_matrix:
    """Sparse injection of band dofs into a subdomain's dof vector."""
    dofs = space.vertex_dofs(band_vertices).ravel()
    nb = 2 * band_vertices.size
    return sp.csr_matrix(
        (np.ones(nb), (dofs, np.arange(nb))), shape=(space.n_dofs, nb)
    )


def dirichlet_constraints(
    space: FESpace, sides: dict[str, VectorData]
) -> tuple[np.ndarray, np.ndarray]:
    """Constrained dof ids and values from per-side Dirichlet data.

    Only vertices carrying dofs in this space are constrained; sides are
    processed in dict order, first match wins on shared corners.
    """
    mesh = space.mesh
    seen: dict[int, tuple[float, float]] = {}
    for side, data in sides.items():
        if side not in mesh.boundary_tags:
            raise InvalidGeometryError(f"mesh has no boundary side {side!r}")
        faces = mesh.faces[mesh.boundary_tags[side]]
        verts = np.unique(faces[:, :2])
        verts = verts[space.vmap[verts] >= 0]
        if verts.size == 0:
            continue
        vals = _eval_vector_data(data, mesh.vertices[verts])
        for v, val in zip(verts, vals):
            seen.setdefault(int(v), (float(val[0]), float(val[1])))
    if not seen:
        return np.empty(0, dtype=np.int64), np.empty(0)
    verts = np.asarray(sorted(seen), dtype=np.int64)
    vals = np.asarray([seen[int(v)] for v in verts])
    dofs = space.vertex_dofs(verts)
    return dofs.ravel(), vals.ravel()
