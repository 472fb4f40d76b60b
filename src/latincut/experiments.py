"""Reproducible experiment definitions and batch runners.

Each study (ellipse contact, two intersecting inclusions, crack-cut
condition numbers, interface-scheme comparison) is encoded as a
serializable ProblemDef plus a runner that returns plain data, so sweep
points can execute in worker processes and the orchestrator stays the only
writer.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from . import analysis, assembly
from .analysis import ConvergenceRecord, interpolate_to_fine, refinement_levels
from .assembly import FESpace
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
    iterate,
)
from .levelset import Circle, Ellipse, HalfPlane, interpolate_levelset
from .linalg import condition_number
from .mesh import build_structured_mesh

EXPERIMENTS = (
    "ellipse_convergence",
    "two_inclusions_convergence",
    "crack_condition_sweep",
    "crack_condition_scaling",
    "p1p0_comparison",
)

SIDES = ("left", "right", "bottom", "top")


@dataclass
class ProblemDef:
    """Complete, serializable description of one solve.

    Boundary data is restricted to constant vectors so definitions
    round-trip exactly through the flat config format.
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
        "mesh.rect": ",".join(repr(float(v)) for v in pdef.rect),
        "mesh.nx": str(pdef.nx),
        "mesh.ny": str(pdef.ny),
        "material.e": ",".join(repr(float(e)) for e in pdef.e_moduli),
        "material.nu": repr(float(pdef.nu)),
    }
    for i, entry in enumerate(pdef.levelsets):
        kind, *vals = entry
        flat[f"geometry.levelset.{i}"] = ",".join(
            [kind] + [repr(float(v)) for v in vals]
        )
    if pdef.grouping is not None:
        flat["geometry.grouping"] = ",".join(str(int(g)) for g in pdef.grouping)
    for sub, side, ux, uy in pdef.dirichlet:
        flat[f"bc.dirichlet.{sub}.{side}"] = f"{ux!r},{uy!r}"
    for sub, side, tx, ty in pdef.neumann:
        flat[f"bc.neumann.{sub}.{side}"] = f"{tx!r},{ty!r}"
    p = pdef.params
    flat.update(
        {
            "latin.k_plus": repr(p.k_plus),
            "latin.k_minus": repr(p.k_minus),
            "latin.eta": repr(p.eta),
            "latin.gamma_g": repr(p.gamma_g),
            "latin.gamma_pi": repr(p.gamma_pi),
            "latin.alpha": repr(p.alpha),
            "latin.it_max": str(p.it_max),
            "latin.quad_points_per_segment": str(p.quad_points_per_segment),
            "latin.interface_scheme": p.interface_scheme,
        }
    )
    return flat


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from err


def problem_from_flat(flat: Mapping[str, str]) -> ProblemDef:
    def need(key: str) -> str:
        if key not in flat:
            raise ConfigError(f"problem definition is missing {key!r}")
        return flat[key]

    rect_vals = _floats(need("mesh.rect"))
    if len(rect_vals) != 4:
        raise ConfigError("mesh.rect takes four numbers")
    levelsets = []
    for i in range(len(flat)):
        key = f"geometry.levelset.{i}"
        if key not in flat:
            break
        kind, *rest = [tok.strip() for tok in flat[key].split(",")]
        levelsets.append((kind, *[float(v) for v in rest]))
    if not levelsets:
        raise ConfigError("problem definition needs at least one level set")
    grouping = None
    if "geometry.grouping" in flat:
        grouping = tuple(int(v) for v in _floats(flat["geometry.grouping"]))
    dirichlet = []
    neumann = []
    for key in sorted(flat):
        parts = key.split(".")
        if len(parts) == 4 and parts[0] == "bc":
            vec = _floats(flat[key])
            if len(vec) != 2:
                raise ConfigError(f"{key} takes two numbers")
            row = (int(parts[2]), parts[3], vec[0], vec[1])
            (dirichlet if parts[1] == "dirichlet" else neumann).append(row)
    params = LatinParams(
        k_plus=float(need("latin.k_plus")),
        k_minus=float(need("latin.k_minus")),
        eta=float(need("latin.eta")),
        gamma_g=float(need("latin.gamma_g")),
        gamma_pi=float(need("latin.gamma_pi")),
        alpha=float(need("latin.alpha")),
        it_max=int(need("latin.it_max")),
        quad_points_per_segment=int(need("latin.quad_points_per_segment")),
        interface_scheme=need("latin.interface_scheme"),
    )
    return ProblemDef(
        name=need("problem.name"),
        rect=tuple(rect_vals),
        nx=int(need("mesh.nx")),
        ny=int(need("mesh.ny")),
        levelsets=tuple(levelsets),
        e_moduli=tuple(_floats(need("material.e"))),
        nu=float(need("material.nu")),
        params=params,
        grouping=grouping,
        dirichlet=tuple(dirichlet),
        neumann=tuple(neumann),
    )


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


def linear_stage_condition_numbers(pdef: ProblemDef) -> dict[int, float]:
    """Condition number of every subdomain's linear-stage operator.

    Assembles elasticity + ghost penalty + LaTIn augmentation, eliminates
    the strong Dirichlet dofs, and estimates kappa; non-SPD operators
    report inf.
    """
    return gamma_sweep_condition_numbers(pdef, (pdef.params.gamma_g,))[0]


def gamma_sweep_condition_numbers(
    pdef: ProblemDef, gamma_g_values: Iterable[float]
) -> list[dict[int, float]]:
    """linear_stage_condition_numbers for each ghost-penalty weight in turn.

    Only the ghost penalty depends on gamma_g, so the geometry, elasticity,
    augmentation and Dirichlet elimination are built once.  Each weight's
    operator is summed as (elasticity + ghost penalty) + augmentation, the
    order `latin.build_subdomain_system` uses: floating-point sums depend on
    it, and kappa must describe the matrix the linear stage factorizes.
    """
    gammas = [float(g) for g in gamma_g_values]
    _, _, _, spaces, interfaces = problem_spaces(pdef)
    out: list[dict[int, float]] = [{} for _ in gammas]
    for i, space in enumerate(spaces):
        elasticity = assembly.assemble_elasticity(space)
        touching = [ifc for pair, ifc in sorted(interfaces.items()) if i in pair]
        augmentation = assembly.assemble_latin_augmentation(
            space, touching, pdef.params.k_minus
        )
        fixed, _ = assembly.dirichlet_constraints(
            space, {s: (ux, uy) for sub, s, ux, uy in pdef.dirichlet if sub == i}
        )
        mask = np.ones(space.n_dofs, dtype=bool)
        mask[fixed] = False
        free = np.flatnonzero(mask)
        for kappas, gamma_g in zip(out, gammas):
            a = elasticity + assembly.assemble_ghost_penalty(space, gamma_g)
            a = a + augmentation
            kappas[i] = condition_number(a.submatrix(free))
    return out


def crack_condition_case(
    eps_x: float, eps_y: float, n: int, gamma_g: float, nu: float = 0.3
) -> tuple[ProblemDef, float]:
    """Crack problem plus the condition number of its worst subproblem."""
    pdef = crack_problem(eps_x, eps_y, n, gamma_g, nu)
    kappas = linear_stage_condition_numbers(pdef)
    return pdef, max(kappas.values())


def _crack_kappas(args) -> list[float]:
    """Worst-subproblem kappa of one crack geometry for each gamma_g."""
    eps_x, eps_y, n, gamma_g_values, nu = args
    pdef = crack_problem(eps_x, eps_y, n, gamma_g_values[0], nu)
    return [
        max(kappas.values())
        for kappas in gamma_sweep_condition_numbers(pdef, gamma_g_values)
    ]


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
    ops = state.operators[pair]
    return ops.scheme.at_quadrature(state.f_hat[(pair, pair[0])]).reshape(-1, 2)


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
        coarse_spaces = res.spaces
        on_fine = [
            interpolate_to_fine(u, cs, fs)
            for u, cs, fs in zip(res.u, coarse_spaces, fine_spaces)
        ]
        h_list.append(res.h_grid)
        h1_list.append(analysis.h1_error(on_fine, ref_result.u, fine_spaces))
        energy_list.append(analysis.energy_error(on_fine, ref_result.u, fine_spaces))
        its_list.append(res.history[-1].it if res.history else 0)
        if lv == levels - 1 and res.checkpoint_u:
            indicator_by_it = {rec.it: rec.indicator for rec in res.history}
            for it in sorted(res.checkpoint_u):
                chk = [
                    interpolate_to_fine(u, cs, fs)
                    for u, cs, fs in zip(res.checkpoint_u[it], coarse_spaces, fine_spaces)
                ]
                err = analysis.energy_error(chk, ref_result.u, fine_spaces)
                iteration_rows.append((it, err, indicator_by_it.get(it, float("nan"))))
    record = ConvergenceRecord(h=h_list, h1=h1_list, energy=energy_list, iterations=its_list)
    return ConvergenceStudy(
        record=record,
        levels=level_results,
        reference=ref_result,
        iteration_rows=iteration_rows,
    )


def run_condition_sweep(
    n: int = 24,
    mode: str = "simple",
    eps_values: Iterable[float] = (0.25, 1e-2, 1e-4, 1e-6, 1e-8, 1e-11),
    gamma_g_values: Iterable[float] = (0.0, 1e-3, 0.1),
    eps_x_fixed: float = 0.5,
    nu: float = 0.3,
    workers: int = 1,
) -> list[tuple[float, float, float]]:
    """Worst-subproblem kappa over the (eps, gamma_g) grid.

    mode "simple" keeps the vertical cuts at eps_x_fixed and sweeps the
    diagonal shift; mode "double" moves all three interfaces together.
    Rows run over eps for each gamma_g in turn; each (eps_x, eps) geometry
    is built once, and is one job for the worker pool.
    """
    if mode not in ("simple", "double"):
        raise ConfigError(f"unknown crack sweep mode {mode!r}")
    gammas = [float(g) for g in gamma_g_values]
    if not gammas:
        return []
    shifts = [(eps if mode == "double" else eps_x_fixed, float(eps)) for eps in eps_values]
    geometries = list(dict.fromkeys(shifts))
    jobs = [(eps_x, eps, n, tuple(gammas), nu) for eps_x, eps in geometries]
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
) -> list[tuple[float, float, float, float]]:
    """Kappa against mesh size at a fixed good cut: rows (h, eps, gamma_g, kappa)."""
    if levels < 2:
        raise ConfigError("condition scaling needs at least two levels")
    jobs = [(eps, eps, base_n * 2**lv, (gamma_g,), nu) for lv in range(levels)]
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
    """Ellipse contact under both interface schemes with traction snapshots."""
    its = tuple(sorted(set(int(i) for i in profile_iterations)))
    base = params if params is not None else LatinParams()
    base = replace(base, it_max=max(its[-1], base.it_max))
    jobs = []
    for scheme in ("p1", "p0"):
        pdef = ellipse_case(0, nu, base_nx, replace(base, interface_scheme=scheme))
        jobs.append((pdef, its, True))
    results = _map_jobs(_solve_job, jobs, workers)
    return {"p1": results[0], "p0": results[1]}
