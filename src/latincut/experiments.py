"""Reproducible experiment definitions and batch runners.

Each study (ellipse contact, two intersecting inclusions, crack-cut
condition numbers, interface-scheme comparison) is encoded as a picklable
ProblemDef plus a runner that returns plain data, so sweep points can
execute in worker processes and the orchestrator stays the only writer.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from . import analysis
from .analysis import ConvergenceRecord, interpolate_to_fine
from .assembly import FESpace, interface_band
from .config import format_value, params_to_flat
from .cutgeom import OUTSIDE, InterfaceMesh, Material
# nothing in this module calls these three or `problem_spaces` below; they
# stay only because perfbench/study.py wraps them here (SPANS these three,
# COUNTED `problem_spaces`), and tests also call `problem_spaces`
from .cutgeom import build_cut_domain, build_interface, decompose_mesh  # noqa: F401
from .errors import ConfigError
from .latin import (
    ContactProblem,
    IterationRecord,
    LatinParams,
    LatinState,
    build_geometry,
    build_state,
    dirichlet_split,
    iterate,
    linear_stage_operators,
)
from .levelset import Circle, Ellipse, HalfPlane, LevelSetFunction, interpolate_levelset
from .linalg import InverseEstimate, SparseSym, condition_number, inverse_estimate
from .mesh import SIDES, TriMesh, build_structured_mesh

log = logging.getLogger(__name__)


@dataclass
class ProblemDef:
    """Complete description of one solve.

    Level set k bounds subdomain k + 1 (`levelset` module: later level sets
    take priority); subdomain 0 is the rest of the rectangle, so there is
    one material per level set plus one.  Boundary data is restricted to
    constant vectors, so the flat form (`problem_to_flat`) records a
    definition completely.
    """

    name: str
    rect: tuple[float, float, float, float]
    nx: int
    ny: int
    levelsets: tuple[LevelSetFunction, ...]
    e_moduli: tuple[float, ...]
    nu: float
    params: LatinParams
    dirichlet: tuple[tuple[int, str, float, float], ...] = ()
    neumann: tuple[tuple[int, str, float, float], ...] = ()

    def __post_init__(self) -> None:
        # canonical ordering: equal definitions write equal flat forms
        self.dirichlet = tuple(sorted(self.dirichlet))
        self.neumann = tuple(sorted(self.neumann))
        for sub, side, _, _ in self.dirichlet + self.neumann:
            if side not in SIDES:
                raise ConfigError(f"unknown boundary side {side!r}")
            if not 0 <= sub < len(self.e_moduli):
                raise ConfigError(f"boundary data for undefined subdomain {sub}")


# a definition and the problem built from it, which a study takes in place of
# building the problem again
Built = tuple[ProblemDef, ContactProblem]


def build_problem(pdef: ProblemDef, mesh: TriMesh | None = None) -> ContactProblem:
    """The problem ``pdef`` defines, on ``mesh`` if given (its grid must be
    ``pdef``'s), else on a mesh built here."""
    if mesh is None:
        mesh = build_structured_mesh(pdef.rect, pdef.nx, pdef.ny)
    levelsets = [interpolate_levelset(f, mesh) for f in pdef.levelsets]
    materials = [Material(e, pdef.nu) for e in pdef.e_moduli]
    dirichlet: dict[int, dict[str, tuple[float, float]]] = {}
    for sub, side, ux, uy in pdef.dirichlet:
        dirichlet.setdefault(sub, {})[side] = (ux, uy)
    neumann: dict[int, dict[str, tuple[float, float]]] = {}
    for sub, side, tx, ty in pdef.neumann:
        neumann.setdefault(sub, {})[side] = (tx, ty)
    return ContactProblem(
        mesh=mesh,
        levelsets=levelsets,
        materials=materials,
        dirichlet=dirichlet,
        neumann=neumann,
    )


def grid_spacing(pdef: ProblemDef) -> float:
    return (pdef.rect[2] - pdef.rect[0]) / pdef.nx


# --- flat serialization -------------------------------------------------

def problem_to_flat(pdef: ProblemDef) -> dict[str, str]:
    """Flat key/value form, a written record that nothing reads back; floats
    via repr, so each parses back to its own bits.  A level set is its kind
    (``ellipse``, ``circle`` or ``halfplane``), then its fields in order,
    a center as its two coordinates."""
    flat: dict[str, str] = {
        "problem.name": pdef.name,
        "mesh.rect": format_value([float(v) for v in pdef.rect]),
        "mesh.nx": format_value(pdef.nx),
        "mesh.ny": format_value(pdef.ny),
        "material.e": format_value([float(e) for e in pdef.e_moduli]),
        "material.nu": format_value(float(pdef.nu)),
    }
    for i, f in enumerate(pdef.levelsets):
        values = map(float, np.hstack(astuple(f)))
        flat[f"geometry.levelset.{i}"] = format_value([type(f).__name__.lower(), *values])
    for sub, side, ux, uy in pdef.dirichlet:
        flat[f"bc.dirichlet.{sub}.{side}"] = format_value((ux, uy))
    for sub, side, tx, ty in pdef.neumann:
        flat[f"bc.neumann.{sub}.{side}"] = format_value((tx, ty))
    flat.update(params_to_flat(pdef.params))
    return flat


# --- case builders ------------------------------------------------------

def _inclusion_case(
    level: int, base_nx: int, params: LatinParams | None, **fields
) -> ProblemDef:
    """Inclusions in a matrix on (-1.2, 1.2)^2, base_nx * 2**level cells per
    side, pressed down at the top and held at the bottom."""
    if level < 0:
        raise ConfigError("mesh level must be nonnegative")
    n = base_nx * 2**level
    return ProblemDef(
        rect=(-1.2, -1.2, 1.2, 1.2),
        nx=n,
        ny=n,
        params=params if params is not None else LatinParams(),
        dirichlet=((0, "top", 0.0, -1.0), (0, "bottom", 0.0, 0.0)),
        **fields,
    )


def ellipse_case(
    level: int = 0,
    nu: float = 0.3,
    base_nx: int = 40,
    params: LatinParams | None = None,
) -> ProblemDef:
    """Elliptical inclusion pressed into a matrix; two subdomains."""
    return _inclusion_case(
        level, base_nx, params, name="ellipse", nu=nu,
        levelsets=(Ellipse(1.0, 0.5, 0.654545),), e_moduli=(1.0, 1.0),
    )


def two_inclusions_case(
    contrast: float = 1.0,
    level: int = 0,
    nu: float = 0.3,
    base_nx: int = 40,
    params: LatinParams | None = None,
) -> ProblemDef:
    """Two intersecting circular inclusions; the overlap lens belongs to the
    second inclusion, giving two triple junctions."""
    return _inclusion_case(
        level, base_nx, params, name="two_inclusions", nu=nu,
        levelsets=(Circle((-0.25, 0.0), 0.5), Circle((0.25, 0.0), 0.5)),
        e_moduli=(1.0, contrast, contrast),
    )


def crack_problem(
    eps_x: float,
    eps_y: float,
    n: int,
    gamma_g: float,
    nu: float = 0.3,
    params: LatinParams | None = None,
) -> ProblemDef:
    """Unit square with one diagonal and two vertical crack interfaces.

    The shifts are measured in grid spacings h = 1/n; n divisible by 3
    keeps the unshifted verticals on grid lines so eps alone controls the
    cut quality.
    """
    if n % 3:
        raise ConfigError("crack case needs n divisible by 3")
    h = 1.0 / n
    p = params if params is not None else LatinParams()
    p = replace(p, gamma_g=gamma_g)
    top = [(i, "top", 0.0, -1.0) for i in range(4)]
    bottom = [(i, "bottom", 0.0, 0.0) for i in range(4)]
    return ProblemDef(
        name="crack",
        rect=(0.0, 0.0, 1.0, 1.0),
        nx=n,
        ny=n,
        levelsets=(
            HalfPlane(-1.0, 1.0, -eps_y * h),
            HalfPlane(1.0, 0.0, -1.0 / 3.0 - eps_x * h),
            HalfPlane(-1.0, 0.0, 2.0 / 3.0 + eps_x * h),
        ),
        e_moduli=(1.0, 1.0, 1.0, 1.0),
        nu=nu,
        params=p,
        dirichlet=tuple(top + bottom),
    )


def empty_subdomains(problem: ContactProblem) -> list[int]:
    """The subdomains that hold no cell of the problem's mesh, read from the
    decomposition status `build_cut_domain` reads."""
    return np.flatnonzero((problem.deco.status == OUTSIDE).all(axis=1)).tolist()


def _operator_key(a: SparseSym) -> bytes:
    """SHA-256 of an operator's shape, dtypes and CSR arrays: equal keys mean
    bit-identical storage, hence bit-identical condition numbers."""
    h = hashlib.sha256(
        repr((a.csr.shape, a.indptr.dtype.str, a.indices.dtype.str, a.data.dtype.str)).encode()
    )
    for arr in (a.indptr, a.indices, a.data):
        h.update(arr)
    return h.digest()


def subdomain_operators(
    geometry: Built, gamma_g_values: Iterable[float]
) -> Iterator[list[SparseSym]]:
    """Every subdomain's `latin.linear_stage_operators`, with the strong
    Dirichlet dofs eliminated, for each ghost-penalty weight in turn.

    The cut domains, interfaces and interface bands are built once.  A
    weight's operators are built when its list is requested, so only one
    weight's are held at a time.
    """
    pdef, problem = geometry
    spaces, interfaces = build_geometry(problem, pdef.params.quad_points_per_segment)
    bands = {pair: interface_band(iface, spaces) for pair, iface in interfaces.items()}
    gamma_g_values = list(gamma_g_values)
    frees, streams = [], []
    for i, space in enumerate(spaces):
        touching = [band for pair, band in sorted(bands.items()) if i in pair]
        frees.append(dirichlet_split(space, problem.dirichlet.get(i, {}))[0])
        streams.append(linear_stage_operators(space, touching, pdef.params.k, gamma_g_values))
    for _ in gamma_g_values:
        # each full operator is dropped as soon as it is reduced
        yield [next(ops).submatrix(free) for ops, free in zip(streams, frees)]


class KappaMemo:
    """Worst condition numbers of operator groups, computed lazily.

    ``worst(operators)`` is ``max(condition_number(a) for a in operators)``
    as the same float, but runs the A side (the power iteration on the
    operator) only where it can change the maximum.  Each distinct operator
    (by `_operator_key`) is factorized once and its inverse side run once;
    `InverseEstimate.bound` is at least the operator's kappa, so A sides run
    in decreasing order of bound, and an operator whose bound is below the
    largest kappa already known in its group is skipped.  The operator that
    attains the maximum is always estimated, exactly as `condition_number`
    alone would estimate it.  A NaN bound compares false and is never
    skipped; a non-SPD operator has bound inf and kappa inf.

    The memo holds floats only: ``inverse`` has every distinct operator's
    inverse estimate, ``kappa`` the kappa of those whose A side has run, so
    an operator skipped in one group gets its A side in a later group that
    needs it.
    """

    def __init__(self) -> None:
        self.inverse: dict[bytes, InverseEstimate] = {}
        self.kappa: dict[bytes, float] = {}

    def worst(self, operators: Iterable[SparseSym]) -> float:
        group: dict[bytes, SparseSym] = {}
        for a in operators:
            key = _operator_key(a)
            if key not in self.inverse:
                self.inverse[key] = inverse_estimate(a)
            group.setdefault(key, a)
        worst = max((self.kappa[k] for k in group if k in self.kappa), default=-np.inf)
        pending = [k for k in group if k not in self.kappa]
        pending.sort(key=lambda k: self.inverse[k].bound, reverse=True)
        for key in pending:
            if self.inverse[key].bound < worst:
                continue
            self.kappa[key] = condition_number(group[key], inverse=self.inverse[key])
            worst = max(worst, self.kappa[key])
        return worst


def _crack_kappas(args) -> list[float]:
    """Worst-subproblem kappa of one crack geometry for each gamma_g."""
    index, geometry, gamma_g_values, memo = args
    known, a_sides, built = len(memo.inverse), len(memo.kappa), 0
    kappas = []
    for operators in subdomain_operators(geometry, gamma_g_values):
        built += len(operators)
        kappas.append(memo.worst(operators))
    new = list(memo.inverse)[known:]
    log.debug(
        "crack geometry %d: %d operators built, %d new distinct, "
        "%d A sides run, %d skipped",
        index, built, len(new), len(memo.kappa) - a_sides,
        sum(k not in memo.kappa for k in new),
    )
    return kappas


# --- solve workers ------------------------------------------------------

@dataclass
class SolveResult:
    """Plain-data outcome of one LaTIn solve (picklable for worker pools).

    spaces and profile_interface are the geometry the solve built, kept for
    the error analysis and the exporters so they need not build it again.
    """

    pdef: ProblemDef
    u: list[np.ndarray]
    history: list[IterationRecord]
    spaces: list[FESpace] = field(default_factory=list)
    checkpoint_u: dict[int, list[np.ndarray]] = field(default_factory=dict)
    checkpoint_traction: dict[int, np.ndarray] = field(default_factory=dict)
    profile_interface: InterfaceMesh | None = None


def solve_problem(
    pdef: ProblemDef,
    monitor_iterations: Iterable[int] = (),
    problem: ContactProblem | None = None,
) -> SolveResult:
    """Run the full iteration, snapshotting the fields and the first pair's
    traction at monitor iterations, on ``problem`` (built from ``pdef``) if
    given."""
    state = build_state(problem if problem is not None else build_problem(pdef), pdef.params)
    result = SolveResult(pdef=pdef, u=[], history=[], spaces=state.spaces)
    monitors = tuple(sorted(set(int(i) for i in monitor_iterations)))
    pair = min(state.pairs) if state.pairs else None

    def snapshot(it: int, st: LatinState) -> None:
        result.checkpoint_u[it] = [v.copy() for v in st.u]
        if pair is not None:  # the low side's force at the quadrature points
            f_hat = st.interface_field("f_hat", pair, pair[0])
            result.checkpoint_traction[it] = st.operators[pair].at_quadrature(f_hat).reshape(-1, 2)

    iterate(state, checkpoints=monitors, callback=snapshot)
    result.u = [v.copy() for v in state.u]
    result.history = list(state.history)
    if pair is not None:
        result.profile_interface = state.operators[pair].iface
    return result


def problem_spaces(
    pdef: ProblemDef,
) -> tuple[list[FESpace], dict[tuple[int, int], InterfaceMesh]]:
    """Geometry pipeline without any solves: the dof spaces (each cut domain
    is ``space.domain``) and interfaces."""
    return build_geometry(build_problem(pdef), pdef.params.quad_points_per_segment)


# --- studies ------------------------------------------------------------

@dataclass
class ConvergenceStudy:
    record: ConvergenceRecord
    levels: list[SolveResult]
    reference: SolveResult
    iteration_rows: list[tuple[int, float, float]]  # it, energy vs ref, indicator


def _solve_job(args) -> SolveResult:
    pdef, problem, monitors = args
    return solve_problem(pdef, monitors, problem)


def _map_jobs(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], on a pool of spawned worker processes when
    workers > 1 and there is more than one job."""
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(jobs)),
            mp_context=multiprocessing.get_context("spawn"),
        ) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def run_convergence_study(
    level0: Built,
    levels: int = 3,
    reference_it_max: int | None = None,
    monitor_iterations: Iterable[int] = (),
    workers: int = 1,
) -> ConvergenceStudy:
    """Mesh ladder plus one-finer reference solved on the next level down.

    Level lv is the level-0 definition on a grid 2**lv times finer; level 0
    solves the problem ``level0`` holds.  Coarse solutions are interpolated
    to the reference mesh and both norms are integrated over the reference
    cut geometry.  The monitored level (the finest ladder level) also
    records its error and its interface tractions at the monitored
    iterations.

    The reference is submitted first: it is the largest solve, so it runs
    while the least memory is in use, and in a pool it no longer starts
    last and runs alone.  A failing reference therefore fails before any
    ladder level runs.  Results still come back in ladder order, in
    ``levels``, with the reference in ``reference``.
    """
    if levels < 1:
        raise ConfigError("convergence study needs at least one level")
    pdef0 = level0[0]
    make = lambda lv, p: replace(pdef0, nx=pdef0.nx * 2**lv, ny=pdef0.ny * 2**lv, params=p)
    ref_params = pdef0.params
    if reference_it_max is not None:
        ref_params = replace(pdef0.params, it_max=reference_it_max)
    monitors = tuple(sorted(set(int(i) for i in monitor_iterations)))

    ladder = [level0] + [(make(lv, pdef0.params), None) for lv in range(1, levels)]
    jobs = [(make(levels, ref_params), None, ())]
    for lv, (pdef, problem) in enumerate(ladder):
        jobs.append((pdef, problem, monitors if lv == levels - 1 else ()))
    ref_result, *level_results = _map_jobs(_solve_job, jobs, workers)

    fine_spaces = ref_result.spaces
    h_list: list[float] = []
    h1_list: list[float] = []
    energy_list: list[float] = []
    its_list: list[int] = []
    iteration_rows: list[tuple[int, float, float]] = []
    for lv, res in enumerate(level_results):
        checkpoints = sorted(res.checkpoint_u) if lv == levels - 1 else []
        # each subdomain's final and checkpoint fields share one vertex location
        stacks = [
            interpolate_to_fine(
                np.stack([u] + [res.checkpoint_u[it][s] for it in checkpoints]), cs, fs
            )
            for s, (u, cs, fs) in enumerate(zip(res.u, res.spaces, fine_spaces))
        ]
        on_fine = [rows[0] for rows in stacks]
        h_list.append(grid_spacing(res.pdef))
        h1_list.append(analysis.h1_error(on_fine, ref_result.u, fine_spaces))
        energy_list.append(analysis.energy_error(on_fine, ref_result.u, fine_spaces))
        its_list.append(res.history[-1].it)
        if checkpoints:
            indicator_by_it = {rec.it: rec.indicator for rec in res.history}
            for row, it in enumerate(checkpoints, start=1):
                chk = [rows[row] for rows in stacks]
                err = analysis.energy_error(chk, ref_result.u, fine_spaces)
                iteration_rows.append((it, err, indicator_by_it[it]))
    record = ConvergenceRecord(h=h_list, h1=h1_list, energy=energy_list, iterations=its_list)
    return ConvergenceStudy(
        record=record,
        levels=level_results,
        reference=ref_result,
        iteration_rows=iteration_rows,
    )


def crack_kappas(
    geometries: list[Built], gamma_g_values: Iterable[float], workers: int = 1
) -> list[list[float]]:
    """Worst-subproblem kappa of each crack geometry at each ghost-penalty
    weight: ``out[i][j]`` is geometry i's at weight j.

    Each geometry is one job for the worker pool, and its definition
    supplies every solver parameter but gamma_g.  The geometries may lie on
    different meshes.  Each kappa is max_s kappa_s over the subdomains,
    through one `KappaMemo` that lives for this call: every distinct
    operator is factorized and its inverse side estimated once, and the
    power iteration on the operator runs only where it can still attain
    the maximum, so every kappa is the float `condition_number` gives for
    the worst subdomain.  Subdomains a moving cut leaves unchanged, and a
    ghost penalty with no ghost faces to act on, repeat an operator bit for
    bit.  Serial jobs share the memo; each pooled job gets its own (empty)
    copy.  Each job logs its operator and A-side counts at DEBUG.
    """
    gammas, memo = list(gamma_g_values), KappaMemo()
    jobs = [(i, geometry, gammas, memo) for i, geometry in enumerate(geometries)]
    return _map_jobs(_crack_kappas, jobs, workers)


def run_p1p0_comparison(
    geometry: Built,
    profile_iterations: Iterable[int] = (5, 27, 210),
    workers: int = 1,
) -> dict[str, SolveResult]:
    """The contact problem ``geometry`` holds, under both interface schemes,
    with traction snapshots; both schemes solve that one problem.

    Each scheme iterates exactly to the last profile iteration, so the
    definition's ``it_max`` and ``interface_scheme`` are not used."""
    its = tuple(sorted(set(int(i) for i in profile_iterations)))
    pdef, problem = geometry
    base = replace(pdef.params, it_max=its[-1])
    jobs = [
        (replace(pdef, params=replace(base, interface_scheme=scheme)), problem, its)
        for scheme in ("p1", "p0")
    ]
    p1, p0 = _map_jobs(_solve_job, jobs, workers)
    return {"p1": p1, "p0": p0}
