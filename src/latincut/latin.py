"""Two-stage LaTIn iteration for unfitted multi-body contact.

Each iteration alternates a linear stage (independent Robin-augmented
elasticity solves per fictitious subdomain, matrices factorized once) with
a local stage that enforces the frictionless contact law pointwise at the
interface quadrature points and maps the result back to nodal interface
fields through a stabilized L2 projection.

Everything an iteration applies that does not change between iterations is
built once, with the state: each subdomain's factorization, right-hand
side on its free dofs, displacement template holding its Dirichlet values
and each pair's interface load on its free rows; and one scheme object per
interface (`P1Scheme` or `P0Scheme`), holding the interface, its band dofs
on each side (index arrays), its projection factor, its quadrature-point
evaluation and that evaluation's transpose, and its load map.  Every
sparse operator is a `linalg.CsrOperator` in the orientation the loop
applies it.  An iteration is then a few small products, one triangular
solve per subdomain and projection, and pointwise arithmetic.  A CSR copy
of a transpose, of a row subset or of gathered rows sums every output
entry in the same order as the matrix it came from, so results are
bit-identical to the plain scipy expressions.

The interface state is packed: `LatinState.slots` gives each (pair, side)
a slice of length ``scheme.n_unknowns`` of the (2, n) arrays ``star`` and
``hat`` (row 0 displacements, row 1 forces).  Elementwise arithmetic runs
on whole rows, with the bits a loop over the slices would give.

Each stage takes the arrays it reads and returns fresh ones.  `step`
chains them into one iteration, the map from (star, hat) to the next, and
`iterate`, the one writer of the state, stores a step only once it has
succeeded.  No stage writes into an array it reads: `_snapshot` shares the
state's own ``star`` and ``hat`` with relaxation and the indicator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np
import scipy.sparse as sp

from . import assembly
from .assembly import FESpace, InterfaceBand, VectorData, build_space
from .cutgeom import (
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
    CsrOperator,
    DenseFactor,
    NotSpdError,
    SparseSym,
    SpdFactor,
    factorize,
    factorize_dense,
)
from .mesh import TriMesh

INTERFACE_SCHEMES = ("p1", "p0")
# eigenvalues below this fraction of the largest count as an interface
# projection's kernel, and so does a pivot ratio below it
DEFLATION_TOL = 1e-10

log = logging.getLogger(__name__)


@dataclass
class LatinParams:
    """Search-direction, stabilization and iteration parameters.

    The two search directions are conjugate, so one stiffness ``k`` serves
    both; the Robin closure of the local stage uses it too, which is what
    produces the factor 1/2 in the heart formula.  In run configs and the
    problem form each field is the `latin.<field>` entry
    (`config.params_to_flat`).  A relaxation ``eta`` of 0 would never leave
    the first linear stage, while the indicator read 0, so it is refused.
    """

    k: float = 1.0
    eta: float = 0.85
    gamma_g: float = 0.1
    gamma_pi: float = 0.1
    it_max: int = 200
    quad_points_per_segment: int = 2
    interface_scheme: str = "p1"

    def __post_init__(self) -> None:
        for name in ("k", "gamma_g", "gamma_pi"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not self.k > 0.0:
            raise ConfigError("search-direction stiffness k must be positive")
        try:
            self.k ** 2  # as error_indicator weighs the displacements
        except OverflowError:
            raise ConfigError(
                "search-direction stiffness k is too large: k ** 2 overflows"
            ) from None
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError("relaxation eta must lie in (0, 1]")
        if not (self.gamma_g >= 0.0 and self.gamma_pi >= 0.0):
            raise ConfigError("stabilization parameters must be nonnegative")
        if self.it_max < 1:
            raise ConfigError("it_max must be at least 1")
        if self.quad_points_per_segment not in (1, 2, 4):
            raise ConfigError("quad_points_per_segment must be 1, 2 or 4")
        if self.interface_scheme not in INTERFACE_SCHEMES:
            raise ConfigError(
                f"interface_scheme must be one of {INTERFACE_SCHEMES}"
            )


class InterfaceScheme:
    """One interface's discretization, the LaTIn state's record of it.

    Holds the interface ``iface``, its one P1 ``band`` (shared with the
    augmentation; post-processing reads a subdomain's band trace at its
    ``band.dofs``), the normals at its quadrature points and the evaluation
    of its ``n_unknowns`` interface unknowns there.  Each scheme adds the
    ``load_map`` that the linear stage applies on a subdomain's free dofs,
    kept by `SubdomainSystem`.
    """

    def __init__(self, iface: InterfaceMesh, band: InterfaceBand, eval_op: sp.csr_matrix):
        self.iface = iface
        self.band = band
        self.qnormals = iface.segments.qnormals  # (nq, 2), from low to high subdomain
        self.eval_op = CsrOperator(eval_op)
        self._eval_t = CsrOperator(eval_op.T)
        self._weights = np.repeat(iface.segments.qweights, 2)
        self.n_unknowns = eval_op.shape[1]

    def at_quadrature(self, z: np.ndarray) -> np.ndarray:
        return self.eval_op @ z


class P1Scheme(InterfaceScheme):
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
    A kernel that rounding hides can still factor with positive pivots;
    a pivot ratio below DEFLATION_TOL shows it, and takes the same path.
    """

    def __init__(self, mesh: TriMesh, iface: InterfaceMesh, band: InterfaceBand, gamma_pi: float):
        super().__init__(iface, band, band.eval_op)
        self.mass = band.mass
        self.load_map = CsrOperator(self.mass.csr)  # field -> band load
        self.stab = assembly.gradient_jump_matrix(
            mesh, iface.interior_faces, iface.band_vertices, gamma_pi
        )
        try:
            proj = factorize(self.mass + self.stab)
        except NotSpdError:
            proj = None
        if proj is None or proj.pivot_ratio < DEFLATION_TOL:
            proj = self._deflated_factor(iface, gamma_pi)
        self.proj: SpdFactor | DenseFactor = proj

    def _deflated_factor(self, iface: InterfaceMesh, gamma_pi: float) -> DenseFactor:
        a = (self.mass + self.stab).toarray()
        lam, vec = np.linalg.eigh(a)
        lam_max = lam[-1]
        kernel = vec[:, lam <= DEFLATION_TOL * lam_max] if lam_max > 0.0 else vec
        if lam_max <= 0.0 or kernel.shape[1] == kernel.shape[0]:
            raise StabilizationConfigError(
                f"interface projection for pair {iface.pair} is identically "
                f"singular; increase gamma_pi (currently {gamma_pi:g})"
            )
        try:
            factor = factorize_dense(a + lam_max * (kernel @ kernel.T))
        except NotSpdError as err:
            raise StabilizationConfigError(
                f"interface projection for pair {iface.pair} is not positive "
                f"definite; increase gamma_pi (currently {gamma_pi:g})"
            ) from err
        log.warning(
            "interface projection for pair %s is singular; solving it densely "
            "with its %d-dimensional kernel deflated",
            iface.pair,
            kernel.shape[1],
        )
        return factor

    def from_bulk(self, band_trace: np.ndarray) -> np.ndarray:
        return band_trace

    def project_qp(self, qp_values: np.ndarray) -> np.ndarray:
        return self.proj.solve(self._eval_t @ (self._weights * qp_values))

    def norm_sq(self, z: np.ndarray) -> float:
        return float(z @ (self.load_map @ z))


class P0Scheme(InterfaceScheme):
    """Piecewise-constant-per-segment interface fields.

    Included only to reproduce the checkerboard instability of the
    unstabilized mixed pairing; projection degenerates to per-segment
    averaging and no jump penalty applies.
    """

    def __init__(self, mesh: TriMesh, iface: InterfaceMesh, band: InterfaceBand, gamma_pi: float):
        segs = iface.segments
        ns = segs.n_segments
        nq = segs.qcells.size
        qidx = np.arange(nq)
        rows = np.concatenate((2 * qidx, 2 * qidx + 1))
        cols = np.concatenate((2 * segs.qseg, 2 * segs.qseg + 1))
        eval_op = sp.csr_matrix((np.ones(2 * nq), (rows, cols)), shape=(2 * nq, 2 * ns))
        super().__init__(iface, band, eval_op)
        self.trace_op = CsrOperator(band.eval_op)
        self._lengths = np.repeat(segs.length, 2)
        self.load_map = CsrOperator(band.eval_op.T @ sp.diags(self._weights) @ eval_op)

    def from_bulk(self, band_trace: np.ndarray) -> np.ndarray:
        qp_values = self.trace_op @ band_trace
        return (self._eval_t @ (self._weights * qp_values)) / self._lengths

    def project_qp(self, qp_values: np.ndarray) -> np.ndarray:
        return (self._eval_t @ (self._weights * qp_values)) / self._lengths

    def norm_sq(self, z: np.ndarray) -> float:
        return float((z * z) @ self._lengths)


def build_interface_operators(
    mesh: TriMesh,
    iface: InterfaceMesh,
    spaces: list[FESpace],
    params: LatinParams,
) -> P1Scheme | P0Scheme:
    """The scheme ``params`` names on ``iface``, on its one P1 band."""
    scheme_type = P0Scheme if params.interface_scheme == "p0" else P1Scheme
    band = assembly.interface_band(iface, spaces)
    return scheme_type(mesh, iface, band, params.gamma_pi)


@dataclass
class SubdomainSystem:
    """One factorized linear-stage system; only the interface load changes.

    ``load`` maps each interface pair the subdomain touches to the operator
    taking that pair's interface unknowns to its load on the free dofs.
    ``rhs_free`` (the fixed load on the free dofs) and ``u_fixed`` (zero but
    for the Dirichlet values) are derived from the other fields.
    """

    space: FESpace
    rhs0: np.ndarray
    free: np.ndarray
    fixed: np.ndarray
    fixed_values: np.ndarray
    factor: SpdFactor
    lift: np.ndarray
    load: dict[tuple[int, int], CsrOperator]
    rhs_free: np.ndarray = field(init=False)
    u_fixed: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.rhs_free = self.rhs0[self.free]
        self.u_fixed = np.zeros(self.space.n_dofs)
        self.u_fixed[self.fixed] = self.fixed_values

    def solve(self, interface_load: np.ndarray | None) -> np.ndarray:
        """Displacements for an interface load on the free dofs (None when
        the subdomain touches no interface).  rhs0 holds no -0.0, so adding
        it erases the only difference between a load summed from zero and
        one summed from its first term."""
        b = self.rhs_free if interface_load is None else self.rhs_free + interface_load
        u = self.u_fixed.copy()
        u[self.free] = self.factor.solve(b - self.lift)
        return u


def _free_load(scheme: P1Scheme | P0Scheme, space: FESpace, free: np.ndarray) -> CsrOperator:
    """The scheme's ``load_map`` on the free dofs of ``space``: row r is its
    row of the band dof at ``free[r]``, or empty where none is, bit for bit."""
    rows = np.full(space.n_dofs, -1)
    rows[scheme.band.dofs[space.domain.index]] = np.arange(scheme.load_map.shape[0])
    return scheme.load_map.take_rows(rows[free])


def linear_stage_operators(
    space: FESpace,
    bands: list[InterfaceBand],
    k: float,
    gamma_g_values: Iterable[float],
) -> Iterator[SparseSym]:
    """A subdomain's linear-stage operator for each ghost-penalty weight in
    turn, before boundary terms: the one place it is summed.

    Each is (elasticity + ghost penalty(gamma_g)) + the LaTIn augmentation
    of ``bands`` with search-direction stiffness ``k``, in that order:
    floating-point sums depend on it, and the condition numbers the crack
    studies report must describe the matrix the linear stage factorizes bit
    for bit.  Elasticity and augmentation are assembled once, when the first
    operator is requested.  The augmentation couples bulk traces, so it
    always uses the P1 interface mass, even under the P0 interface scheme.
    """
    weights = list(gamma_g_values)
    elasticity = assembly.assemble_elasticity(space)
    augmentation = None
    for n, gamma_g in enumerate(weights, start=1):
        partial = [elasticity + assembly.assemble_ghost_penalty(space, float(gamma_g))]
        if n == len(weights):
            # freeing elasticity before the augmentation is assembled keeps
            # the peak resident size of the factorization that follows: the
            # ellipse ladder's peaks rose by up to 10 MB when it lived longer
            del elasticity
        if augmentation is None:
            augmentation = assembly.assemble_latin_augmentation(space, bands, k)
        # popped, so the generator holds no operator while it is suspended
        yield partial.pop() + augmentation


def dirichlet_split(
    space: FESpace, dirichlet: Mapping[str, VectorData]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(free dofs, fixed dofs, fixed values) under strong Dirichlet data."""
    fixed, fixed_values = assembly.dirichlet_constraints(space, dirichlet)
    mask = np.ones(space.n_dofs, dtype=bool)
    mask[fixed] = False
    return np.flatnonzero(mask), fixed, fixed_values


def build_subdomain_system(
    space: FESpace,
    schemes: list[P1Scheme | P0Scheme],
    params: LatinParams,
    dirichlet: dict[str, VectorData] | None = None,
    neumann: dict[str, VectorData] | None = None,
) -> SubdomainSystem:
    """Assemble and factorize the iteration-independent operator.

    The operator is `linear_stage_operators`' at ``params.gamma_g`` for
    every interface this subdomain touches.  Dirichlet sides are
    eliminated.  The full operator is dropped once the lift and the
    free-dof operator are taken from it, so it is not alive beside the
    factorization, which sets the studies' peak resident size.
    """
    index = space.domain.index
    (a,) = linear_stage_operators(
        space, [scheme.band for scheme in schemes], params.k, [params.gamma_g]
    )
    rhs = np.zeros(space.n_dofs)
    for side, data in (neumann or {}).items():
        segs = boundary_segments(space.mesh, [side], params.quad_points_per_segment)
        rhs += assembly.assemble_boundary_traction(space, segs, data)
    free, fixed, fixed_values = dirichlet_split(space, dirichlet or {})
    if fixed.size:
        lift = a.csr[free][:, fixed] @ fixed_values
    else:
        lift = np.zeros(free.size)
    a_free = a.submatrix(free)
    del a
    try:
        factor = factorize(a_free)
    except NotSpdError as err:
        raise SolverFailure(
            f"linear-stage operator of subdomain {index} is not positive definite"
        ) from err
    return SubdomainSystem(
        space=space,
        rhs0=rhs,
        free=free,
        fixed=fixed,
        fixed_values=fixed_values,
        factor=factor,
        lift=lift,
        load={scheme.iface.pair: _free_load(scheme, space, free) for scheme in schemes},
    )


@dataclass
class ContactProblem:
    """Geometry, materials and boundary data for one multi-body solve.

    Boundary data dicts map background-mesh side tags to constant vectors
    or callables of the point coordinates.  ``contact=False`` keeps the
    interfaces perfectly bonded (the clip step is skipped), which is the
    configuration the monolithic oracle reproduces.  ``deco`` is the mesh's
    cut decomposition, made once, when the problem is constructed.
    """

    mesh: TriMesh
    levelsets: list[DiscreteLevelSet]
    materials: list[Material]
    dirichlet: dict[int, dict[str, VectorData]] = field(default_factory=dict)
    neumann: dict[int, dict[str, VectorData]] = field(default_factory=dict)
    contact: bool = True
    deco: MeshDecomposition = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.deco = decompose_mesh(self.mesh, self.levelsets)


@dataclass
class IterationRecord:
    it: int
    indicator: float
    contact_fraction: float


# interface field name -> (packed array, row)
_FIELDS = {"w_star": ("star", 0), "f_star": ("star", 1), "w_hat": ("hat", 0), "f_hat": ("hat", 1)}
Snapshot = tuple[np.ndarray, np.ndarray]  # (star, hat)


@dataclass
class LatinState:
    """Everything the iteration owns, exportable at any checkpoint."""

    problem: ContactProblem
    params: LatinParams
    spaces: list[FESpace]
    systems: list[SubdomainSystem]
    operators: dict[tuple[int, int], P1Scheme | P0Scheme]  # one per interface
    u: list[np.ndarray]
    slots: dict[tuple[tuple[int, int], int], slice]
    star: np.ndarray
    hat: np.ndarray
    it: int = 0
    history: list[IterationRecord] = field(default_factory=list)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.operators)

    def interface_field(self, name: str, pair: tuple[int, int], side: int) -> np.ndarray:
        """Read-only view of field ``name`` (w_star, f_star, w_hat or f_hat)
        on one side of one pair."""
        array, row = _FIELDS[name]
        view = getattr(self, array)[row, self.slots[(pair, side)]]
        view.flags.writeable = False
        return view


def build_geometry(
    problem: ContactProblem, quad_points_per_segment: int
) -> tuple[list[FESpace], dict[tuple[int, int], InterfaceMesh]]:
    """Every subdomain's cut domain and dof space (the domain is
    ``space.domain``) and every interface, from the problem's decomposition.
    The one geometry path of the package."""
    mesh, deco = problem.mesh, problem.deco
    if len(problem.materials) != deco.n_subdomains:
        raise ConfigError(
            f"{deco.n_subdomains} subdomains but {len(problem.materials)} materials"
        )
    domains = [
        build_cut_domain(i, mesh, problem.materials[i], deco)
        for i in range(deco.n_subdomains)
    ]
    spaces = [build_space(d) for d in domains]
    interfaces = {
        pair: build_interface(pair[0], pair[1], mesh, deco, quad_points_per_segment)
        for pair in deco.pairs
    }
    return spaces, interfaces


def build_state(problem: ContactProblem, params: LatinParams) -> LatinState:
    """Assemble and factorize; no iterations are run yet."""
    spaces, interfaces = build_geometry(problem, params.quad_points_per_segment)
    operators = {
        pair: build_interface_operators(problem.mesh, iface, spaces, params)
        for pair, iface in interfaces.items()
    }
    systems = []
    for i, space in enumerate(spaces):
        touching = [scheme for pair, scheme in sorted(operators.items()) if i in pair]
        systems.append(
            build_subdomain_system(
                space,
                touching,
                params,
                dirichlet=problem.dirichlet.get(i),
                neumann=problem.neumann.get(i),
            )
        )
    slots, n = {}, 0
    for pair, scheme in operators.items():
        for side in pair:
            slots[(pair, side)] = slice(n, n + scheme.n_unknowns)
            n += scheme.n_unknowns
    return LatinState(
        problem=problem,
        params=params,
        spaces=spaces,
        systems=systems,
        operators=operators,
        u=[np.zeros(s.n_dofs) for s in spaces],
        slots=slots,
        star=np.zeros((2, n)),
        hat=np.zeros((2, n)),
    )


def linear_stage(state: LatinState, hat: np.ndarray) -> list[np.ndarray]:
    """Every subdomain's displacements under the hat fields ``hat``."""
    z = hat[1] + state.params.k * hat[0]
    u = []
    for i, system in enumerate(state.systems):
        parts = [op @ z[state.slots[(pair, i)]] for pair, op in system.load.items()]
        load = sum(parts[1:], parts[0]) if parts else None
        try:
            u.append(system.solve(load))
        except (np.linalg.LinAlgError, FloatingPointError) as err:
            # only numerical failures; a shape or type error is a bug
            raise SolverFailure(f"linear stage failed on subdomain {i}") from err
    return u


def postprocess_interface(
    state: LatinState, u: list[np.ndarray], hat: np.ndarray
) -> np.ndarray:
    """The starred interface fields of displacements ``u`` under ``hat``."""
    star = np.empty_like(hat)
    for pair, scheme in state.operators.items():
        for side in pair:
            trace = u[side][scheme.band.dofs[side]] + 0.0  # a -0.0 reads as +0.0
            star[0, state.slots[(pair, side)]] = scheme.from_bulk(trace)
    star[1] = hat[1] + state.params.k * (hat[0] - star[0])
    return star


def relax(state: LatinState, star: np.ndarray, previous: Snapshot | None) -> np.ndarray:
    """``star`` blended with the previous iterate's (unchanged at it=0)."""
    if previous is None:
        return star
    eta = state.params.eta
    return eta * star + (1.0 - eta) * previous[0]


def local_stage(state: LatinState, star: np.ndarray) -> tuple[np.ndarray, float]:
    """Enforce the contact law at quadrature points and rebuild hat fields.

    Returns the hat fields and the fraction of interface quadrature points
    in contact.
    """
    params = state.params
    hat = np.empty_like(star)
    n_active = 0
    n_total = 0
    for pair, scheme in state.operators.items():
        i, j = pair
        si, sj = state.slots[(pair, i)], state.slots[(pair, j)]
        fi = scheme.at_quadrature(star[1, si]).reshape(-1, 2)
        fj = scheme.at_quadrature(star[1, sj]).reshape(-1, 2)
        wi = scheme.at_quadrature(star[0, si]).reshape(-1, 2)
        wj = scheme.at_quadrature(star[0, sj]).reshape(-1, 2)
        n = scheme.qnormals
        force = 0.5 * (fi - fj + params.k * (wj - wi))
        if state.problem.contact:
            # frictionless law: keep only compressive normal force
            heart = np.einsum("qi,qi->q", force, n)
            n_active += int(np.count_nonzero(heart <= 0.0))
            n_total += heart.size
            force = np.minimum(heart, 0.0)[:, None] * n
        f_hat_i = scheme.project_qp(force.ravel())
        hat[1, si] = f_hat_i
        hat[1, sj] = -f_hat_i
    hat[0] = star[0] + (hat[1] - star[1]) / params.k
    return hat, n_active / n_total if n_total else 0.0


def error_indicator(state: LatinState, hat: np.ndarray, previous: Snapshot | None) -> float:
    """Interface-residual indicator: change of the hat fields between
    iterations in L2, with the displacement part weighted by k, normalized
    by the size of the current fields."""
    if previous is None:
        return float("inf")
    k2 = state.params.k ** 2
    change = hat - previous[1]
    num = 0.0
    den = 0.0
    for pair, scheme in state.operators.items():
        norm = scheme.norm_sq
        # local_stage sets f_hat of the high side to exactly -f_hat of the
        # low side, and norm_sq(-z) == norm_sq(z) bit for bit, so both sides'
        # force terms are the low side's
        low = state.slots[(pair, pair[0])]
        df = norm(change[1, low])
        f = norm(hat[1, low])
        for side in pair:
            s = state.slots[(pair, side)]
            num += df
            num += k2 * norm(change[0, s])
            den += f
            den += k2 * norm(hat[0, s])
    if den == 0.0:
        return 0.0
    ratio = num / den  # NaN where a diverging run's norms round negative
    return math.sqrt(ratio) if ratio >= 0.0 else math.nan


def _divergence(state: LatinState, hat: np.ndarray, previous: Snapshot | None) -> str | None:
    """Name the first pair whose hat fields are not finite or, once there is
    a previous iteration, whose indicator terms (squared norms of the hat
    fields and of their changes) are not finite and nonnegative.  Diverging
    fields can stay finite while such a norm, dominated by the near-kernel
    of the interface mass, rounds negative."""
    change = None if previous is None else hat - previous[1]
    for pair, scheme in sorted(state.operators.items()):
        sides = [state.slots[(pair, side)] for side in pair]
        if not all(np.isfinite(hat[:, s]).all() for s in sides):
            return f"non-finite interface fields on pair {pair}"
        if change is None:
            continue
        fields = [a[row, s] for a in (hat, change) for row in (0, 1) for s in sides]
        if not all(0.0 <= scheme.norm_sq(z) < math.inf for z in fields):
            return f"non-finite error indicator on pair {pair}"
    return None if change is None else "non-finite error indicator"


def _snapshot(state: LatinState) -> Snapshot | None:
    """The (star, hat) the last completed iteration left, shared with the
    state (no stage writes into them), or None before the first."""
    return (state.star, state.hat) if state.it else None


def step(
    state: LatinState,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, IterationRecord]:
    """One iteration from the state's (star, hat): the new displacements,
    star, hat and record.  Writes nothing.  Divergence raises SolverFailure
    naming the pair: a non-finite indicator, or, on the first iteration
    (indicator inf by definition), non-finite hat fields; a finite indicator
    proves the fields finite, so later iterations pay only for that test."""
    previous = _snapshot(state)
    u = linear_stage(state, state.hat)
    star = relax(state, postprocess_interface(state, u, state.hat), previous)
    hat, fraction = local_stage(state, star)
    indicator = error_indicator(state, hat, previous)
    if not math.isfinite(indicator):
        failure = _divergence(state, hat, previous)
        if failure is not None:
            raise SolverFailure(failure)
    return u, star, hat, IterationRecord(state.it + 1, indicator, fraction)


def iterate(
    state: LatinState,
    checkpoints: tuple[int, ...] = (),
    callback: Callable[[int, LatinState], None] | None = None,
) -> LatinState:
    """Run `step` until state.it reaches it_max; the one writer of the state.
    A step that raises SolverFailure (re-raised naming the iteration) leaves
    the state at the last completed iteration, so it resumes exactly.
    ``callback(it, state)`` fires after every iteration listed in
    ``checkpoints`` (1-based count, i.e. after `it+1` iterations are done)."""
    for it in range(state.it, state.params.it_max):
        try:
            u, star, hat, record = step(state)
        except SolverFailure as err:
            raise SolverFailure(f"iteration {it}: {err}") from err
        state.u, state.star, state.hat, state.it = u, star, hat, record.it
        state.history.append(record)
        if callback is not None and state.it in checkpoints:
            callback(state.it, state)
    return state
