"""Reproducible experiment definitions and batch runners.

Each study (ellipse contact, two intersecting inclusions, crack-cut
condition numbers, interface-scheme comparison) is encoded as a
serializable ProblemDef plus a runner that returns plain data, so sweep
points can execute in worker processes and the orchestrator stays the only
writer.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import analysis
from .analysis import ConvergenceRecord, interpolate_to_fine
from .assembly import FESpace
from .config import PARSERS, format_value, merge_legacy_k, params_from_flat, params_to_flat
from .cutgeom import InterfaceMesh, Material
# perfbench/study.py wraps these names here; latin.build_geometry calls them
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
from .levelset import Circle, Ellipse, HalfPlane, interpolate_levelset
from .linalg import InverseEstimate, SparseSym, condition_number, inverse_estimate
from .mesh import SIDES, build_structured_mesh

log = logging.getLogger(__name__)


@dataclass
class ProblemDef:
    """Complete, serializable description of one solve.

    Boundary data is restricted to constant vectors so definitions
    round-trip exactly through their flat form (`problem_to_flat`,
    `problem_from_flat`).
    """

    name: str
    rect: tuple[float, float, float, float]
    nx: int
    ny: int
    levelsets: tuple[tuple, ...]  # ("ellipse", a, b, r, cx, cy) etc.
    e_moduli: tuple[float, ...]
    nu: float
    params: LatinParams
    grouping: tuple[int, ...] | None = None
    dirichlet: tuple[tuple[int, str, float, float], ...] = ()
    neumann: tuple[tuple[int, str, float, float], ...] = ()

    def __post_init__(self) -> None:
        # canonical ordering keeps serialization round trips exact
        self.dirichlet = tuple(sorted(self.dirichlet))
        self.neumann = tuple(sorted(self.neumann))
        for sub, side, _, _ in self.dirichlet + self.neumann:
            if side not in SIDES:
                raise ConfigError(f"unknown boundary side {side!r}")
            if not 0 <= sub < len(self.e_moduli):
                raise ConfigError(f"boundary data for undefined subdomain {sub}")


_LEVELSET_ARITY = {"ellipse": 5, "circle": 3, "halfplane": 3}


def _levelset_function(entry: tuple):
    kind, *vals = entry
    if kind not in _LEVELSET_ARITY:
        raise ConfigError(f"unknown level-set kind {kind!r}")
    if len(vals) != _LEVELSET_ARITY[kind]:
        raise ConfigError(
            f"level set {kind!r} takes {_LEVELSET_ARITY[kind]} parameters,"
            f" got {len(vals)}"
        )
    if kind == "ellipse":
        a, b, r, cx, cy = vals
        return Ellipse(a=a, b=b, r=r, center=(cx, cy))
    if kind == "circle":
        cx, cy, r = vals
        return Circle(center=(cx, cy), r=r)
    a, b, c = vals
    return HalfPlane(a=a, b=b, c=c)


def build_problem(pdef: ProblemDef) -> ContactProblem:
    mesh = build_structured_mesh(pdef.rect, pdef.nx, pdef.ny)
    levelsets = [
        interpolate_levelset(_levelset_function(entry), mesh)
        for entry in pdef.levelsets
    ]
    materials = [Material(e, pdef.nu) for e in pdef.e_moduli]
    dirichlet: dict[int, dict[str, tuple[float, float]]] = {}
    for sub, side, ux, uy in pdef.dirichlet:
        dirichlet.setdefault(sub, {})[side] = (ux, uy)
    neumann: dict[int, dict[str, tuple[float, float]]] = {}
    for sub, side, tx, ty in pdef.neumann:
        neumann.setdefault(sub, {})[side] = (tx, ty)
    grouping = np.asarray(pdef.grouping) if pdef.grouping is not None else None
    return ContactProblem(
        mesh=mesh,
        levelsets=levelsets,
        materials=materials,
        grouping=grouping,
        dirichlet=dirichlet,
        neumann=neumann,
    )


def grid_spacing(pdef: ProblemDef) -> float:
    return (pdef.rect[2] - pdef.rect[0]) / pdef.nx


# --- flat serialization -------------------------------------------------

def problem_to_flat(pdef: ProblemDef) -> dict[str, str]:
    """Flat key/value form; floats via repr so round-trips are bit-exact."""
    flat: dict[str, str] = {
        "problem.name": pdef.name,
        "mesh.rect": format_value([float(v) for v in pdef.rect]),
        "mesh.nx": format_value(pdef.nx),
        "mesh.ny": format_value(pdef.ny),
        "material.e": format_value([float(e) for e in pdef.e_moduli]),
        "material.nu": format_value(float(pdef.nu)),
    }
    for i, (kind, *vals) in enumerate(pdef.levelsets):
        flat[f"geometry.levelset.{i}"] = format_value([kind, *map(float, vals)])
    if pdef.grouping is not None:
        flat["geometry.grouping"] = format_value([int(g) for g in pdef.grouping])
    for sub, side, ux, uy in pdef.dirichlet:
        flat[f"bc.dirichlet.{sub}.{side}"] = format_value((ux, uy))
    for sub, side, tx, ty in pdef.neumann:
        flat[f"bc.neumann.{sub}.{side}"] = format_value((tx, ty))
    flat.update(params_to_flat(pdef.params))
    return flat


def problem_from_flat(flat: Mapping[str, str]) -> ProblemDef:
    flat = merge_legacy_k(flat)
    flat.pop("latin.alpha", None)  # older files carry this unused Nitsche penalty

    def need(key: str) -> str:
        if key not in flat:
            raise ConfigError(f"problem definition is missing {key!r}")
        return flat[key]

    nx, ny = (PARSERS["int"](key, need(key)) for key in ("mesh.nx", "mesh.ny"))
    if nx < 1 or ny < 1:
        raise ConfigError("mesh.nx and mesh.ny must be at least 1")
    rect_vals = PARSERS["float_list"]("mesh.rect", need("mesh.rect"))
    if len(rect_vals) != 4:
        raise ConfigError("mesh.rect takes four numbers")
    if rect_vals[2] <= rect_vals[0] or rect_vals[3] <= rect_vals[1]:
        raise ConfigError("mesh.rect must describe a nonempty rectangle")
    levelsets = []
    for i in range(len(flat)):
        key = f"geometry.levelset.{i}"
        if key not in flat:
            break
        kind, _, numbers = flat[key].partition(",")
        entry = (kind.strip(), *PARSERS["float_list"](key, numbers))
        _levelset_function(entry)  # checks the kind and its parameter count
        levelsets.append(entry)
    if not levelsets:
        raise ConfigError("problem definition needs at least one level set")
    grouping = None
    if "geometry.grouping" in flat:
        grouping = PARSERS["int_list"]("geometry.grouping", flat["geometry.grouping"])
    dirichlet = []
    neumann = []
    for key in sorted(flat):
        parts = key.split(".")
        if len(parts) == 4 and parts[0] == "bc" and parts[2].isdecimal():
            vec = PARSERS["float_list"](key, flat[key])
            if len(vec) != 2:
                raise ConfigError(f"{key} takes two numbers")
            row = (int(parts[2]), parts[3], vec[0], vec[1])
            (dirichlet if parts[1] == "dirichlet" else neumann).append(row)
    pdef = ProblemDef(
        name=need("problem.name"),
        rect=rect_vals,
        nx=nx,
        ny=ny,
        levelsets=tuple(levelsets),
        e_moduli=PARSERS["float_list"]("material.e", need("material.e")),
        nu=PARSERS["float"]("material.nu", need("material.nu")),
        params=params_from_flat(flat),
        grouping=grouping,
        dirichlet=tuple(dirichlet),
        neumann=tuple(neumann),
    )
    # reject keys problem_to_flat would not write: a typo must not change physics
    unknown = sorted(set(flat) - set(problem_to_flat(pdef)))
    if unknown:
        raise ConfigError(f"unknown problem-definition keys {unknown}")
    return pdef


# --- case builders ------------------------------------------------------

def ellipse_case(
    level: int = 0,
    nu: float = 0.3,
    base_nx: int = 40,
    params: LatinParams | None = None,
) -> ProblemDef:
    """Elliptical inclusion pressed into a matrix; two subdomains."""
    if level < 0:
        raise ConfigError("mesh level must be nonnegative")
    n = base_nx * 2**level
    return ProblemDef(
        name="ellipse",
        rect=(-1.2, -1.2, 1.2, 1.2),
        nx=n,
        ny=n,
        levelsets=(("ellipse", 1.0, 0.5, 0.654545, 0.0, 0.0),),
        e_moduli=(1.0, 1.0),
        nu=nu,
        params=params if params is not None else LatinParams(),
        dirichlet=((0, "top", 0.0, -1.0), (0, "bottom", 0.0, 0.0)),
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
    if level < 0:
        raise ConfigError("mesh level must be nonnegative")
    n = base_nx * 2**level
    return ProblemDef(
        name="two_inclusions",
        rect=(-1.2, -1.2, 1.2, 1.2),
        nx=n,
        ny=n,
        levelsets=(
            ("circle", -0.25, 0.0, 0.5),
            ("circle", 0.25, 0.0, 0.5),
        ),
        e_moduli=(1.0, contrast, contrast),
        nu=nu,
        params=params if params is not None else LatinParams(),
        dirichlet=((0, "top", 0.0, -1.0), (0, "bottom", 0.0, 0.0)),
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
            ("halfplane", -1.0, 1.0, -eps_y * h),
            ("halfplane", 1.0, 0.0, -1.0 / 3.0 - eps_x * h),
            ("halfplane", -1.0, 0.0, 2.0 / 3.0 + eps_x * h),
        ),
        e_moduli=(1.0, 1.0, 1.0, 1.0),
        nu=nu,
        params=p,
        dirichlet=tuple(top + bottom),
    )


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
    pdef: ProblemDef, gamma_g_values: Iterable[float]
) -> Iterator[list[SparseSym]]:
    """Every subdomain's `latin.linear_stage_operators`, with the strong
    Dirichlet dofs eliminated, for each ghost-penalty weight in turn.

    The geometry is built once.  A weight's operators are built when its
    list is requested, so only one weight's are held at a time.
    """
    _, _, _, spaces, interfaces = problem_spaces(pdef)
    gamma_g_values = list(gamma_g_values)
    frees, streams = [], []
    for i, space in enumerate(spaces):
        touching = [ifc for pair, ifc in sorted(interfaces.items()) if i in pair]
        dirichlet = {s: (ux, uy) for sub, s, ux, uy in pdef.dirichlet if sub == i}
        frees.append(dirichlet_split(space, dirichlet)[0])
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
    eps_x, eps_y, n, gamma_g_values, nu, params, memo = args
    memo = KappaMemo() if memo is None else memo
    pdef = crack_problem(eps_x, eps_y, n, gamma_g_values[0], nu, params)
    known, a_sides, built = len(memo.inverse), len(memo.kappa), 0
    kappas = []
    for operators in subdomain_operators(pdef, gamma_g_values):
        built += len(operators)
        kappas.append(memo.worst(operators))
    new = list(memo.inverse)[known:]
    log.debug(
        "crack geometry eps_x=%r eps_y=%r: %d operators built, %d new distinct, "
        "%d A sides run, %d skipped",
        eps_x, eps_y, built, len(new), len(memo.kappa) - a_sides,
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
    h_grid: float
    u: list[np.ndarray]
    history: list[IterationRecord]
    spaces: list[FESpace] = field(default_factory=list)
    checkpoint_u: dict[int, list[np.ndarray]] = field(default_factory=dict)
    checkpoint_traction: dict[int, np.ndarray] = field(default_factory=dict)
    profile_pair: tuple[int, int] | None = None
    profile_interface: InterfaceMesh | None = None


def traction_at_quadrature(state: LatinState, pair: tuple[int, int]) -> np.ndarray:
    """Interface force of the low side evaluated at quadrature points (nq, 2)."""
    f_hat = state.interface_field("f_hat", pair, pair[0])
    return state.operators[pair].scheme.at_quadrature(f_hat).reshape(-1, 2)


def solve_problem(
    pdef: ProblemDef,
    monitor_iterations: Iterable[int] = (),
    capture_traction: bool = False,
) -> SolveResult:
    """Run the full iteration, snapshotting fields at monitor iterations."""
    state = build_state(build_problem(pdef), pdef.params)
    result = SolveResult(
        pdef=pdef, h_grid=grid_spacing(pdef), u=[], history=[], spaces=state.spaces
    )
    monitors = tuple(sorted(set(int(i) for i in monitor_iterations)))
    pair = min(state.pairs) if state.pairs else None

    def snapshot(it: int, st: LatinState) -> None:
        result.checkpoint_u[it] = [v.copy() for v in st.u]
        if capture_traction and pair is not None:
            result.checkpoint_traction[it] = traction_at_quadrature(st, pair)

    iterate(state, checkpoints=monitors, callback=snapshot)
    result.u = [v.copy() for v in state.u]
    result.history = list(state.history)
    if pair is not None:
        result.profile_pair = pair
        result.profile_interface = state.operators[pair].iface
    return result


def problem_spaces(pdef: ProblemDef):
    """Geometry pipeline without any solves: the problem, its decomposition,
    domains, dof spaces and interfaces."""
    problem = build_problem(pdef)
    return (problem, *build_geometry(problem, pdef.params.quad_points_per_segment))


# --- studies ------------------------------------------------------------

@dataclass
class ConvergenceStudy:
    record: ConvergenceRecord
    levels: list[SolveResult]
    reference: SolveResult
    iteration_rows: list[tuple[int, float, float]]  # it, energy vs ref, indicator


def _solve_job(args) -> SolveResult:
    pdef, monitors, capture = args
    return solve_problem(pdef, monitors, capture)


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
    case: str = "ellipse",
    levels: int = 3,
    base_nx: int = 40,
    nu: float = 0.3,
    contrast: float = 1.0,
    params: LatinParams | None = None,
    reference_it_max: int | None = None,
    monitor_iterations: Iterable[int] = (),
    workers: int = 1,
) -> ConvergenceStudy:
    """Mesh ladder plus one-finer reference solved on the next level down.

    Coarse solutions are interpolated to the reference mesh and both norms
    are integrated over the reference cut geometry.  The monitored level
    (the finest ladder level) also records its error and its interface
    tractions at the monitored iterations.
    """
    if levels < 1:
        raise ConfigError("convergence study needs at least one level")
    if case == "ellipse":
        make = lambda lv, p: ellipse_case(lv, nu, base_nx, p)
    elif case == "two_inclusions":
        make = lambda lv, p: two_inclusions_case(contrast, lv, nu, base_nx, p)
    else:
        raise ConfigError(f"unknown convergence case {case!r}")
    base_params = params if params is not None else LatinParams()
    ref_params = base_params
    if reference_it_max is not None:
        ref_params = replace(base_params, it_max=reference_it_max)
    monitors = tuple(sorted(set(int(i) for i in monitor_iterations)))

    jobs = []
    for lv in range(levels):
        is_monitor = lv == levels - 1
        jobs.append((make(lv, base_params), monitors if is_monitor else (), is_monitor))
    jobs.append((make(levels, ref_params), (), False))
    results = _map_jobs(_solve_job, jobs, workers)
    level_results, ref_result = results[:levels], results[levels]

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
        h_list.append(res.h_grid)
        h1_list.append(analysis.h1_error(on_fine, ref_result.u, fine_spaces))
        energy_list.append(analysis.energy_error(on_fine, ref_result.u, fine_spaces))
        its_list.append(res.history[-1].it if res.history else 0)
        if checkpoints:
            indicator_by_it = {rec.it: rec.indicator for rec in res.history}
            for row, it in enumerate(checkpoints, start=1):
                chk = [rows[row] for rows in stacks]
                err = analysis.energy_error(chk, ref_result.u, fine_spaces)
                iteration_rows.append((it, err, indicator_by_it.get(it, float("nan"))))
    record = ConvergenceRecord(h=h_list, h1=h1_list, energy=energy_list, iterations=its_list)
    return ConvergenceStudy(
        record=record,
        levels=level_results,
        reference=ref_result,
        iteration_rows=iteration_rows,
    )


def crack_sweep_shifts(
    mode: str, eps_values: Iterable[float], eps_x_fixed: float
) -> list[tuple[float, float]]:
    """The (eps_x, eps_y) shift of each crack-sweep point, in sweep order.

    Mode "simple" keeps the vertical cuts at eps_x_fixed; mode "double"
    moves them with the diagonal shift eps.
    """
    if mode not in ("simple", "double"):
        raise ConfigError(f"unknown crack sweep mode {mode!r}")
    return [(eps if mode == "double" else eps_x_fixed, float(eps)) for eps in eps_values]


def run_condition_sweep(
    n: int = 24,
    mode: str = "simple",
    eps_values: Iterable[float] = (0.25, 1e-2, 1e-4, 1e-6, 1e-8, 1e-11),
    gamma_g_values: Iterable[float] = (0.0, 1e-3, 0.1),
    eps_x_fixed: float = 0.5,
    nu: float = 0.3,
    workers: int = 1,
    params: LatinParams | None = None,
) -> list[tuple[float, float, float]]:
    """Worst-subproblem kappa over the (eps, gamma_g) grid.

    The shifts of each point come from `crack_sweep_shifts`: mode "simple"
    sweeps the diagonal shift alone, mode "double" moves all three
    interfaces together.  Rows run over eps for each gamma_g in turn; each
    (eps_x, eps) geometry is built once, and is one job for the worker pool.
    ``params`` (default `LatinParams()`) supplies every solver parameter but
    gamma_g, which the grid sets.

    Each point reports max_s kappa_s over the subdomains, through one
    `KappaMemo` that lives for this call: every distinct operator is
    factorized and its inverse side estimated once, and the power iteration
    on the operator runs only where it can still attain the maximum, so
    every reported kappa is the float `condition_number` gives for the
    worst subdomain.  Subdomains the moving cut leaves unchanged, and a
    ghost penalty with no ghost faces to act on, repeat an operator bit for
    bit.  Serial jobs share the memo; each pooled job gets its own (empty)
    copy.  Each job logs its operator and A-side counts at DEBUG.
    """
    shifts = crack_sweep_shifts(mode, eps_values, eps_x_fixed)
    gammas = [float(g) for g in gamma_g_values]
    if not gammas:
        return []
    geometries = list(dict.fromkeys(shifts))
    memo = KappaMemo()
    jobs = [
        (eps_x, eps, n, tuple(gammas), nu, params, memo) for eps_x, eps in geometries
    ]
    kappa = {}
    for shift, kappas in zip(geometries, _map_jobs(_crack_kappas, jobs, workers)):
        kappa.update(((shift, g), k) for g, k in zip(gammas, kappas))
    return [(shift[1], g, kappa[(shift, g)]) for g in gammas for shift in shifts]


def run_condition_scaling(
    base_n: int = 12,
    levels: int = 4,
    eps: float = 0.25,
    gamma_g: float = 0.1,
    nu: float = 0.3,
    workers: int = 1,
    params: LatinParams | None = None,
) -> list[tuple[float, float, float, float]]:
    """Kappa against mesh size at a fixed good cut: rows (h, eps, gamma_g, kappa).

    Kappa is the worst subdomain's, selected as in `run_condition_sweep`
    with one `KappaMemo` per mesh.  ``params`` (default `LatinParams()`)
    supplies every solver parameter but gamma_g."""
    if levels < 2:
        raise ConfigError("condition scaling needs at least two levels")
    jobs = [
        (eps, eps, base_n * 2**lv, (gamma_g,), nu, params, None) for lv in range(levels)
    ]
    kappas = _map_jobs(_crack_kappas, jobs, workers)
    return [
        (1.0 / job[2], eps, gamma_g, kappa)
        for job, (kappa,) in zip(jobs, kappas)
    ]


def run_p1p0_comparison(
    base_nx: int = 40,
    nu: float = 0.3,
    profile_iterations: Iterable[int] = (5, 27, 210),
    params: LatinParams | None = None,
    workers: int = 1,
) -> dict[str, SolveResult]:
    """Ellipse contact under both interface schemes with traction snapshots.

    Each scheme iterates exactly to the last profile iteration, so
    ``params.it_max`` and ``params.interface_scheme`` are not used."""
    its = tuple(sorted(set(int(i) for i in profile_iterations)))
    base = params if params is not None else LatinParams()
    base = replace(base, it_max=its[-1])
    jobs = []
    for scheme in ("p1", "p0"):
        pdef = ellipse_case(0, nu, base_nx, replace(base, interface_scheme=scheme))
        jobs.append((pdef, its, True))
    results = _map_jobs(_solve_job, jobs, workers)
    return {"p1": results[0], "p0": results[1]}
