"""Two-stage LaTIn iteration for unfitted multi-body contact.

Each iteration alternates a linear stage (independent Robin-augmented
elasticity solves per fictitious subdomain, matrices factorized once) with
a local stage that enforces the frictionless contact law pointwise at the
interface quadrature points and maps the result back to nodal interface
fields through a stabilized L2 projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import assembly
from .assembly import FESpace, VectorData, build_space
from .cutgeom import (
    CutDomain,
    InterfaceMesh,
    Material,
    MeshDecomposition,
    boundary_segments,
    build_cut_domain,
    build_interface,
    decompose_mesh,
)
from .errors import ConfigError, SolverFailure, StabilizationConfigError
from .levelset import DiscreteLevelSet
from .linalg import (
    DenseFactor,
    NotSpdError,
    SparseSym,
    SpdFactor,
    factorize,
    factorize_dense,
)
from .mesh import TriMesh

INTERFACE_SCHEMES = ("p1", "p0")


@dataclass
class LatinParams:
    """Search-direction, stabilization and iteration parameters.

    The two search directions are conjugate (k_plus == k_minus); the Robin
    closure stiffness of the local stage is tied to k_plus, which is what
    produces the factor 1/2 in the heart formula.
    """

    k_plus: float = 1.0
    k_minus: float = 1.0
    eta: float = 0.85
    gamma_g: float = 0.1
    gamma_pi: float = 0.1
    alpha: float = 10.0
    it_max: int = 200
    quad_points_per_segment: int = 2
    interface_scheme: str = "p1"
    nitsche_data_term: bool = True

    def __post_init__(self) -> None:
        if not (self.k_plus > 0.0 and self.k_minus > 0.0):
            raise ConfigError("search-direction stiffnesses must be positive")
        if self.k_plus != self.k_minus:
            raise ConfigError("conjugate search directions require k_plus == k_minus")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError("relaxation eta must lie in [0, 1]")
        if self.gamma_g < 0.0 or self.gamma_pi < 0.0:
            raise ConfigError("stabilization parameters must be nonnegative")
        if self.alpha <= 0.0:
            raise ConfigError("nitsche penalty alpha must be positive")
        if self.it_max < 1:
            raise ConfigError("it_max must be at least 1")
        if self.quad_points_per_segment not in (1, 2, 4):
            raise ConfigError("quad_points_per_segment must be 1, 2 or 4")
        if self.interface_scheme not in INTERFACE_SCHEMES:
            raise ConfigError(
                f"interface_scheme must be one of {INTERFACE_SCHEMES}"
            )

    @property
    def k(self) -> float:
        return self.k_plus


class P1Scheme:
    """Continuous piecewise-linear interface fields on the band vertices.

    Projections solve the stabilized system (mass + gradient-jump penalty).
    Degenerate cuts leave that system with an exact kernel: for a collinear
    interface the affine field vanishing on the interface line has zero
    trace and zero gradient jumps, and a cut hugging element edges can
    leave band vertices the quadrature never sees.  Every projection
    right-hand side is orthogonal to such kernels (rhs = E^T W v, and
    kernel vectors have zero trace E z), and all downstream uses of the
    result only read its trace, so the kernel is deflated explicitly and
    the solve returns the representative with zero component along it.
    """

    def __init__(self, mesh: TriMesh, iface: InterfaceMesh, gamma_pi: float):
        segs = iface.segments
        self.eval_op = assembly.interface_eval_operator(
            mesh, segs, iface.band_vertices
        )
        self.qweights = segs.qweights
        self._wdiag = sp.diags(np.repeat(segs.qweights, 2))
        self.mass = assembly.interface_mass(self.eval_op, segs.qweights)
        self.stab = assembly.gradient_jump_matrix(
            mesh, iface.interior_faces, iface.band_vertices, gamma_pi
        )
        self.n_unknowns = 2 * iface.band_vertices.size
        try:
            self.proj: SpdFactor | DenseFactor = factorize(self.mass + self.stab)
        except NotSpdError:
            self.proj = self._deflated_factor(iface, gamma_pi)

    def _deflated_factor(self, iface: InterfaceMesh, gamma_pi: float) -> DenseFactor:
        a = (self.mass + self.stab).toarray()
        lam, vec = np.linalg.eigh(a)
        lam_max = lam[-1]
        kernel = vec[:, lam <= 1e-10 * lam_max] if lam_max > 0.0 else vec
        if lam_max <= 0.0 or kernel.shape[1] == kernel.shape[0]:
            raise StabilizationConfigError(
                f"interface projection for pair {iface.pair} is identically "
                f"singular; increase gamma_pi (currently {gamma_pi:g})"
            )
        try:
            return factorize_dense(a + lam_max * (kernel @ kernel.T))
        except NotSpdError as err:
            raise StabilizationConfigError(
                f"interface projection for pair {iface.pair} is not positive "
                f"definite; increase gamma_pi (currently {gamma_pi:g})"
            ) from err

    def at_quadrature(self, z: np.ndarray) -> np.ndarray:
        return self.eval_op @ z

    def from_bulk(self, band_trace: np.ndarray) -> np.ndarray:
        return band_trace.copy()

    def project_qp(self, qp_values: np.ndarray) -> np.ndarray:
        return self.proj.solve(self.eval_op.T @ (self._wdiag @ qp_values))

    def load_vector(self, z: np.ndarray) -> np.ndarray:
        return self.mass.matvec(z)

    def norm_sq(self, z: np.ndarray) -> float:
        return float(z @ self.mass.matvec(z))


class P0Scheme:
    """Piecewise-constant-per-segment interface fields.

    Included only to reproduce the checkerboard instability of the
    unstabilized mixed pairing; projection degenerates to per-segment
    averaging and no jump penalty applies.
    """

    def __init__(self, mesh: TriMesh, iface: InterfaceMesh, gamma_pi: float):
        segs = iface.segments
        self.trace_op = assembly.interface_eval_operator(
            mesh, segs, iface.band_vertices
        )
        self.qweights = segs.qweights
        ns = segs.n_segments
        nq = segs.qcells.size
        qidx = np.arange(nq)
        rows = np.concatenate((2 * qidx, 2 * qidx + 1))
        cols = np.concatenate((2 * segs.qseg, 2 * segs.qseg + 1))
        self.eval_op = sp.csr_matrix(
            (np.ones(2 * nq), (rows, cols)), shape=(2 * nq, 2 * ns)
        )
        self.n_unknowns = 2 * ns
        self._wdiag = sp.diags(np.repeat(segs.qweights, 2))
        self._lengths = np.repeat(segs.length, 2)
        self.load_map = sp.csr_matrix(self.trace_op.T @ self._wdiag @ self.eval_op)

    def at_quadrature(self, z: np.ndarray) -> np.ndarray:
        return self.eval_op @ z

    def from_bulk(self, band_trace: np.ndarray) -> np.ndarray:
        return (self.eval_op.T @ (self._wdiag @ (self.trace_op @ band_trace))) / self._lengths

    def project_qp(self, qp_values: np.ndarray) -> np.ndarray:
        return (self.eval_op.T @ (self._wdiag @ qp_values)) / self._lengths

    def load_vector(self, z: np.ndarray) -> np.ndarray:
        return self.load_map @ z

    def norm_sq(self, z: np.ndarray) -> float:
        return float((z * z) @ self._lengths)


@dataclass
class InterfaceOperators:
    """Precomputed per-pair interface machinery shared by both stages."""

    pair: tuple[int, int]
    iface: InterfaceMesh
    scheme: P1Scheme | P0Scheme
    scatter: dict[int, sp.csr_matrix]  # subdomain -> (n_dofs, 2 * n_band)
    mass: SparseSym  # band-dof interface mass, drives the augmentation
    qnormals: np.ndarray  # (nq, 2), pointing from low to high subdomain


def build_interface_operators(
    mesh: TriMesh,
    iface: InterfaceMesh,
    spaces: dict[int, FESpace],
    params: LatinParams,
) -> InterfaceOperators:
    if params.interface_scheme == "p0":
        scheme: P1Scheme | P0Scheme = P0Scheme(mesh, iface, params.gamma_pi)
        # a_k couples bulk traces, so the augmentation mass is P1 even here
        mass = assembly.interface_mass(scheme.trace_op, iface.segments.qweights)
    else:
        scheme = P1Scheme(mesh, iface, params.gamma_pi)
        mass = scheme.mass
    scatter = {
        s: assembly.scatter_band_to_space(spaces[s], iface.band_vertices)
        for s in iface.pair
    }
    return InterfaceOperators(
        pair=iface.pair,
        iface=iface,
        scheme=scheme,
        scatter=scatter,
        mass=mass,
        qnormals=iface.segments.qnormals,
    )


@dataclass
class SubdomainSystem:
    """One factorized linear-stage system; only the interface load changes."""

    space: FESpace
    matrix: SparseSym
    rhs0: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray
    factor: SpdFactor
    free_matrix: SparseSym
    lift: np.ndarray

    def solve(self, interface_load: np.ndarray) -> np.ndarray:
        b = (self.rhs0 + interface_load)[self.free] - self.lift
        u = np.zeros(self.space.n_dofs)
        u[self.fixed] = self.fixed_values
        u[self.free] = self.factor.solve(b)
        return u


def build_subdomain_system(
    space: FESpace,
    interface_ops: list[InterfaceOperators],
    params: LatinParams,
    dirichlet: dict[str, VectorData] | None = None,
    neumann: dict[str, VectorData] | None = None,
    body_force: VectorData | None = None,
    weak_dirichlet: list[tuple[str, VectorData]] | None = None,
) -> SubdomainSystem:
    """Assemble and factorize the iteration-independent operator.

    The operator is elasticity + ghost penalty + the LaTIn augmentation of
    every interface this subdomain touches, plus Nitsche terms for any weak
    Dirichlet sides.  Strong Dirichlet sides are eliminated.
    """
    index = space.domain.index
    a = assembly.assemble_elasticity(space)
    a = a + assembly.assemble_ghost_penalty(space, params.gamma_g)
    rhs = np.zeros(space.n_dofs)
    for ops in interface_ops:
        s = ops.scatter[index]
        a = a + SparseSym.finalize(s @ (params.k_minus * ops.mass.csr) @ s.T)
    if body_force is not None:
        rhs += assembly.assemble_body_force(space, body_force)
    mesh = space.mesh
    if neumann:
        for side, data in neumann.items():
            segs = boundary_segments(mesh, [side], params.quad_points_per_segment)
            rhs += assembly.assemble_boundary_traction(space, segs, data)
    if weak_dirichlet:
        for side, data in weak_dirichlet:
            segs = boundary_segments(mesh, [side], params.quad_points_per_segment)
            a = a + assembly.assemble_nitsche_matrix(space, segs, params.alpha)
            rhs += assembly.assemble_nitsche_rhs(
                space, segs, params.alpha, data, params.nitsche_data_term
            )
    fixed, fixed_values = assembly.dirichlet_constraints(space, dirichlet or {})
    mask = np.ones(space.n_dofs, dtype=bool)
    mask[fixed] = False
    free = np.flatnonzero(mask)
    free_matrix = a.submatrix(free)
    try:
        factor = factorize(free_matrix)
    except NotSpdError as err:
        raise SolverFailure(
            f"linear-stage operator of subdomain {index} is not positive definite"
        ) from err
    if fixed.size:
        lift = a.csr[free][:, fixed] @ fixed_values
    else:
        lift = np.zeros(free.size)
    return SubdomainSystem(
        space=space,
        matrix=a,
        rhs0=rhs,
        free=free,
        fixed=fixed,
        fixed_values=fixed_values,
        factor=factor,
        free_matrix=free_matrix,
        lift=lift,
    )


@dataclass
class ContactProblem:
    """Geometry, materials and boundary data for one multi-body solve.

    Boundary data dicts map background-mesh side tags to constant vectors
    or callables of the point coordinates.  ``contact=False`` keeps the
    interfaces perfectly bonded (the clip step is skipped), which is the
    configuration the monolithic oracle reproduces.
    """

    mesh: TriMesh
    levelsets: list[DiscreteLevelSet]
    materials: list[Material]
    grouping: np.ndarray | None = None
    dirichlet: dict[int, dict[str, VectorData]] = field(default_factory=dict)
    neumann: dict[int, dict[str, VectorData]] = field(default_factory=dict)
    body_force: dict[int, VectorData] = field(default_factory=dict)
    weak_dirichlet: dict[int, list[tuple[str, VectorData]]] = field(default_factory=dict)
    contact: bool = True


@dataclass
class IterationRecord:
    it: int
    indicator: float
    contact_fraction: float


@dataclass
class LatinState:
    """Everything the iteration owns, exportable at any checkpoint."""

    problem: ContactProblem
    params: LatinParams
    decomposition: MeshDecomposition
    domains: list[CutDomain]
    spaces: list[FESpace]
    systems: list[SubdomainSystem]
    operators: dict[tuple[int, int], InterfaceOperators]
    u: list[np.ndarray]
    w_star: dict[tuple[tuple[int, int], int], np.ndarray]
    f_star: dict[tuple[tuple[int, int], int], np.ndarray]
    w_hat: dict[tuple[tuple[int, int], int], np.ndarray]
    f_hat: dict[tuple[tuple[int, int], int], np.ndarray]
    it: int = 0
    history: list[IterationRecord] = field(default_factory=list)
    previous: dict | None = None  # _snapshot of the last iteration, if any

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.operators)


def build_state(problem: ContactProblem, params: LatinParams) -> LatinState:
    """Decompose, assemble and factorize; no iterations are run yet."""
    deco = decompose_mesh(problem.mesh, problem.levelsets, problem.grouping)
    if len(problem.materials) != deco.n_subdomains:
        raise ConfigError(
            f"{deco.n_subdomains} subdomains but {len(problem.materials)} materials"
        )
    domains = [
        build_cut_domain(
            i,
            problem.mesh,
            problem.levelsets,
            problem.materials[i],
            problem.grouping,
            deco,
        )
        for i in range(deco.n_subdomains)
    ]
    spaces = [build_space(d) for d in domains]
    space_of = {i: spaces[i] for i in range(len(spaces))}
    operators: dict[tuple[int, int], InterfaceOperators] = {}
    for pair in deco.pairs:
        iface = build_interface(
            pair[0],
            pair[1],
            problem.mesh,
            problem.levelsets,
            problem.grouping,
            deco,
            params.quad_points_per_segment,
        )
        operators[pair] = build_interface_operators(
            problem.mesh, iface, space_of, params
        )
    systems = []
    for i, space in enumerate(spaces):
        touching = [ops for pair, ops in sorted(operators.items()) if i in pair]
        systems.append(
            build_subdomain_system(
                space,
                touching,
                params,
                dirichlet=problem.dirichlet.get(i),
                neumann=problem.neumann.get(i),
                body_force=problem.body_force.get(i),
                weak_dirichlet=problem.weak_dirichlet.get(i),
            )
        )
    zeros = {
        (pair, side): np.zeros(ops.scheme.n_unknowns)
        for pair, ops in operators.items()
        for side in pair
    }
    return LatinState(
        problem=problem,
        params=params,
        decomposition=deco,
        domains=domains,
        spaces=spaces,
        systems=systems,
        operators=operators,
        u=[np.zeros(s.n_dofs) for s in spaces],
        w_star={k: v.copy() for k, v in zeros.items()},
        f_star={k: v.copy() for k, v in zeros.items()},
        w_hat={k: v.copy() for k, v in zeros.items()},
        f_hat={k: v.copy() for k, v in zeros.items()},
    )


def linear_stage(state: LatinState) -> None:
    """Solve every subdomain against the current hat fields."""
    params = state.params
    for i, system in enumerate(state.systems):
        load = np.zeros(system.space.n_dofs)
        for pair, ops in state.operators.items():
            if i not in pair:
                continue
            z = state.f_hat[(pair, i)] + params.k_minus * state.w_hat[(pair, i)]
            load += ops.scatter[i] @ ops.scheme.load_vector(z)
        try:
            state.u[i] = system.solve(load)
        except (np.linalg.LinAlgError, FloatingPointError) as err:
            # only numerical failures; a shape or type error is a bug
            raise SolverFailure(f"linear stage failed on subdomain {i}") from err


def postprocess_interface(state: LatinState) -> None:
    """Extract starred interface fields from the fresh displacements."""
    k_minus = state.params.k_minus
    for pair, ops in state.operators.items():
        for side in pair:
            trace = ops.scatter[side].T @ state.u[side]
            w_new = ops.scheme.from_bulk(trace)
            f_new = state.f_hat[(pair, side)] + k_minus * (
                state.w_hat[(pair, side)] - w_new
            )
            state.w_star[(pair, side)] = w_new
            state.f_star[(pair, side)] = f_new


def relax(state: LatinState, previous: dict | None) -> None:
    """Blend the starred fields with the previous iterate (skipped at it=0)."""
    if previous is None:
        return
    eta = state.params.eta
    w_old, f_old = previous["w_star"], previous["f_star"]
    for key in state.w_star:
        state.w_star[key] = eta * state.w_star[key] + (1.0 - eta) * w_old[key]
        state.f_star[key] = eta * state.f_star[key] + (1.0 - eta) * f_old[key]


def local_stage(state: LatinState) -> float:
    """Enforce the contact law at quadrature points and rebuild hat fields.

    Returns the fraction of interface quadrature points in contact.
    """
    params = state.params
    n_active = 0
    n_total = 0
    for pair, ops in state.operators.items():
        i, j = pair
        scheme = ops.scheme
        fi = scheme.at_quadrature(state.f_star[(pair, i)]).reshape(-1, 2)
        fj = scheme.at_quadrature(state.f_star[(pair, j)]).reshape(-1, 2)
        wi = scheme.at_quadrature(state.w_star[(pair, i)]).reshape(-1, 2)
        wj = scheme.at_quadrature(state.w_star[(pair, j)]).reshape(-1, 2)
        n = ops.qnormals
        force = 0.5 * (fi - fj + params.k_plus * (wj - wi))
        if state.problem.contact:
            # frictionless law: keep only compressive normal force
            heart = np.einsum("qi,qi->q", force, n)
            n_active += int(np.count_nonzero(heart <= 0.0))
            n_total += heart.size
            force = np.minimum(heart, 0.0)[:, None] * n
        f_hat_i = scheme.project_qp(force.ravel())
        state.f_hat[(pair, i)] = f_hat_i
        state.f_hat[(pair, j)] = -f_hat_i
        for side in pair:
            state.w_hat[(pair, side)] = state.w_star[(pair, side)] + (
                state.f_hat[(pair, side)] - state.f_star[(pair, side)]
            ) / params.k_plus
    return n_active / n_total if n_total else 0.0


def error_indicator(state: LatinState, previous: dict | None) -> float:
    """Interface-residual indicator: change of the hat fields between
    iterations in L2, with the displacement part weighted by k, normalized
    by the size of the current fields."""
    if previous is None:
        return float("inf")
    k2 = state.params.k ** 2
    num = 0.0
    den = 0.0
    for pair, ops in state.operators.items():
        norm = ops.scheme.norm_sq
        for side in pair:
            key = (pair, side)
            num += norm(state.f_hat[key] - previous["f_hat"][key])
            num += k2 * norm(state.w_hat[key] - previous["w_hat"][key])
            den += norm(state.f_hat[key])
            den += k2 * norm(state.w_hat[key])
    if den == 0.0:
        return 0.0
    return float(np.sqrt(num / den))


def _snapshot(state: LatinState) -> dict:
    return {
        "w_star": {k: v.copy() for k, v in state.w_star.items()},
        "f_star": {k: v.copy() for k, v in state.f_star.items()},
        "w_hat": {k: v.copy() for k, v in state.w_hat.items()},
        "f_hat": {k: v.copy() for k, v in state.f_hat.items()},
    }


def iterate(
    state: LatinState,
    checkpoints: tuple[int, ...] = (),
    callback: Callable[[int, LatinState], None] | None = None,
) -> LatinState:
    """Run LaTIn iterations in place until state.it reaches it_max.

    A state that already ran some iterations resumes exactly: relaxation
    and the indicator use the snapshot its last iteration left.
    ``callback(it, state)`` fires after every iteration listed in
    ``checkpoints`` (1-based count, i.e. after `it+1` iterations are done).
    """
    params = state.params
    for it in range(state.it, params.it_max):
        try:
            linear_stage(state)
            postprocess_interface(state)
            relax(state, state.previous)
            fraction = local_stage(state)
        except StabilizationConfigError:
            raise
        except SolverFailure as err:
            raise SolverFailure(f"iteration {it}: {err}") from err
        indicator = error_indicator(state, state.previous)
        state.previous = _snapshot(state)
        state.it = it + 1
        state.history.append(
            IterationRecord(it=state.it, indicator=indicator, contact_fraction=fraction)
        )
        if callback is not None and state.it in checkpoints:
            callback(state.it, state)
    return state


def run(
    problem: ContactProblem,
    params: LatinParams,
    checkpoints: tuple[int, ...] = (),
    callback: Callable[[int, LatinState], None] | None = None,
) -> LatinState:
    """Build the systems and run the full iteration."""
    state = build_state(problem, params)
    return iterate(state, checkpoints, callback)
