"""Command line entry point: run experiments, validate configs.

Commands
    run <config-file>       execute the configured experiment
    validate <config-file>  parse + validate, report the experiment name
    list-experiments        print available experiment names

Exit codes: 0 success, 1 configuration error, 2 numerical failure (an
error.json record is left in the output directory).
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import analysis, experiments, vtkout
from .assembly import FESpace
from .config import RunConfig, format_value, parse_config, render_flat
from .errors import ConfigError, LatinCutError
from .experiments import Built

USAGE = """usage: latincut <command> [args]
commands:
  run <config-file>        run the configured experiment
  validate <config-file>   check a config file and exit
  list-experiments         list experiment names
"""


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(format_value, row)))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _rate_to_previous(h: list[float], err: list[float]) -> list[float]:
    rates = [math.nan]
    for k in range(1, len(h)):
        rates.append(math.log(err[k - 1] / err[k]) / math.log(h[k - 1] / h[k]))
    return rates


def _write_profiles(outdir: Path, result: experiments.SolveResult) -> None:
    if result.profile_interface is None or not result.checkpoint_traction:
        return
    for it in sorted(result.checkpoint_traction):
        prof = analysis.traction_profile(
            result.profile_interface, result.checkpoint_traction[it]
        )
        write_csv(
            outdir / f"profile_{it}.csv",
            ["theta", "traction"],
            [tuple(row) for row in prof],
        )


def _write_fields(
    outdir: Path, spaces: list[FESpace], checkpoint_u: dict[int, list[np.ndarray]]
) -> None:
    if not checkpoint_u:
        return
    outdir.mkdir(parents=True, exist_ok=True)
    for it in sorted(checkpoint_u):
        for i, (space, u) in enumerate(zip(spaces, checkpoint_u[it])):
            vtkout.write_subdomain_vtk(
                outdir / f"sub{i}_it{it}.vtk", space, u, f"subdomain {i} at it {it}"
            )


def _run_convergence(cfg: RunConfig, outdir: Path, built: list[Built]) -> None:
    v = cfg.values
    monitors = set(v["study.monitor_iterations"]) | set(v["checkpoints"])
    monitors.add(cfg.latin_params().it_max)
    study = experiments.run_convergence_study(
        built[0],
        levels=v["study.levels"],
        reference_it_max=v["study.reference_it_max"],
        monitor_iterations=sorted(monitors),
        workers=cfg.workers,
    )
    rec = study.record
    rates = _rate_to_previous(rec.h, rec.energy)
    write_csv(
        outdir / "convergence.csv",
        ["h", "H1_error", "energy_error", "rate_to_previous"],
        list(zip(rec.h, rec.h1, rec.energy, rates)),
    )
    write_csv(
        outdir / "iterations.csv",
        ["it", "energy_error_vs_ref", "latin_indicator"],
        study.iteration_rows,
    )
    monitored = study.levels[-1]
    if v["export.profiles"]:
        _write_profiles(outdir, monitored)
    if v["export.fields"]:
        keep = set(v["checkpoints"]) | {cfg.latin_params().it_max}
        snaps = {
            it: u for it, u in monitored.checkpoint_u.items() if it in keep
        }
        _write_fields(outdir / "fields", monitored.spaces, snaps)


def _sweep_shifts(v: dict) -> list[tuple[float, float]]:
    """The (eps_x, eps_y) shift of each sweep point, in sweep order: mode
    "simple" keeps the vertical cuts at crack.eps_x, mode "double" moves
    them with the diagonal shift eps."""
    return [
        (eps if v["crack.mode"] == "double" else v["crack.eps_x"], eps)
        for eps in v["crack.eps_values"]
    ]


def _run_condition_sweep(cfg: RunConfig, outdir: Path, built: list[Built]) -> None:
    v = cfg.values
    shifts, gammas = _sweep_shifts(v), v["crack.gamma_g_values"]
    # ``built`` holds one geometry per distinct shift, as `_sweep_geometries`
    # orders them
    kappas = experiments.crack_kappas(built, gammas, cfg.workers)
    kappa = dict(zip(dict.fromkeys(shifts), kappas))
    rows = [(eps, g, kappa[eps_x, eps][j]) for j, g in enumerate(gammas) for eps_x, eps in shifts]
    write_csv(outdir / "condition.csv", ["eps", "gamma_g", "kappa"], rows)
    # record the first swept problem, with the boundary conditions it assumes
    (outdir / "crack_problem.cfg").write_text(
        render_flat(experiments.problem_to_flat(built[0][0])), encoding="ascii"
    )


def _run_condition_scaling(cfg: RunConfig, outdir: Path, built: list[Built]) -> None:
    v = cfg.values
    eps, gamma_g = v["scaling.eps"], v["scaling.gamma_g"]
    kappas = experiments.crack_kappas(built, (gamma_g,), cfg.workers)
    rows = [
        (experiments.grid_spacing(pdef), eps, gamma_g, kappa)
        for (pdef, _), (kappa,) in zip(built, kappas)
    ]
    write_csv(
        outdir / "condition_scaling.csv", ["h", "eps", "gamma_g", "kappa"], rows
    )


def _run_p1p0(cfg: RunConfig, outdir: Path, built: list[Built]) -> None:
    v = cfg.values
    results = experiments.run_p1p0_comparison(built[0], v["profile.iterations"], cfg.workers)
    for scheme, res in results.items():
        sub = outdir / scheme
        sub.mkdir(parents=True, exist_ok=True)
        _write_profiles(sub, res)
        if v["export.fields"]:
            last = max(res.checkpoint_u)
            _write_fields(sub / "fields", res.spaces, {last: res.checkpoint_u[last]})


# (the keys and the mesh an error message names, definition) of each geometry
Geometries = Iterator[tuple[str, experiments.ProblemDef]]


class Experiment(NamedTuple):
    run: Callable[[RunConfig, Path, list[Built]], None]  # takes the built geometries
    reads: tuple[str, ...]  # run-config keys read besides config.COMMON_KEYS
    geometries: Callable[[RunConfig], Geometries]  # what `check_geometry` builds


def _level0_geometry(case: Callable[..., experiments.ProblemDef], **keys: str):
    """The level-0 case, the coarsest mesh an inclusion study builds;
    ``keys`` maps the case's other arguments to the keys that give them."""

    def geometries(cfg: RunConfig) -> Geometries:
        v = cfg.values
        nx = v["study.base_nx"]
        pdef = case(
            level=0, nu=v["study.nu"], base_nx=nx, params=cfg.latin_params(),
            **{arg: v[key] for arg, key in keys.items()},
        )
        yield f"study.base_nx: the level-0 mesh of {nx} cells per side", pdef

    return geometries


def _sweep_geometries(cfg: RunConfig) -> Geometries:
    v = cfg.values
    n = v["crack.n"]
    for eps_x, eps_y in dict.fromkeys(_sweep_shifts(v)):
        yield (
            f"crack.eps_x, crack.eps_values: the shift eps_x = {eps_x!r}, "
            f"eps_y = {eps_y!r} on the n = {n} grid",
            experiments.crack_problem(
                eps_x, eps_y, n, v["crack.gamma_g_values"][0], v["study.nu"],
                cfg.latin_params(),
            ),
        )


def _scaling_geometries(cfg: RunConfig) -> Geometries:
    v = cfg.values
    eps = v["scaling.eps"]
    for lv in range(v["scaling.levels"]):
        n = v["scaling.base_n"] * 2**lv
        yield (
            f"scaling.eps: the shift eps_x = eps_y = {eps!r} on the n = {n} grid",
            experiments.crack_problem(
                eps, eps, n, v["scaling.gamma_g"], v["study.nu"], cfg.latin_params()
            ),
        )


_ITERATION_KEYS = (
    "latin.k", "latin.eta", "latin.gamma_g", "latin.gamma_pi",
    "latin.quad_points_per_segment",
)
_CONVERGENCE_KEYS = (
    "checkpoints", "export.fields", "export.profiles",
    "study.levels", "study.base_nx", "study.nu", "study.reference_it_max",
    "study.monitor_iterations",
    *_ITERATION_KEYS, "latin.it_max", "latin.interface_scheme",
)
# the crack operators depend on k (the augmentation) and the interface
# quadrature only: they run no iteration, and their ghost-penalty weights
# are swept keys of their own
_CRACK_KEYS = ("study.nu", "latin.k", "latin.quad_points_per_segment")

# name -> runner, the keys it reads and the geometries it must not leave
# empty, in `list-experiments` order
EXPERIMENTS: dict[str, Experiment] = {
    "ellipse_convergence": Experiment(
        _run_convergence, _CONVERGENCE_KEYS, _level0_geometry(experiments.ellipse_case)
    ),
    "two_inclusions_convergence": Experiment(
        _run_convergence, _CONVERGENCE_KEYS + ("study.contrast",),
        _level0_geometry(experiments.two_inclusions_case, contrast="study.contrast"),
    ),
    "crack_condition_sweep": Experiment(
        _run_condition_sweep,
        ("crack.n", "crack.mode", "crack.eps_x", "crack.eps_values",
         "crack.gamma_g_values", *_CRACK_KEYS),
        _sweep_geometries,
    ),
    "crack_condition_scaling": Experiment(
        _run_condition_scaling,
        ("scaling.base_n", "scaling.levels", "scaling.eps", "scaling.gamma_g",
         *_CRACK_KEYS),
        _scaling_geometries,
    ),
    # each scheme iterates to the last profile, with its own interface scheme
    "p1p0_comparison": Experiment(
        _run_p1p0,
        ("export.fields", "study.base_nx", "study.nu", "profile.iterations",
         *_ITERATION_KEYS),
        _level0_geometry(experiments.ellipse_case),
    ),
}


def check_geometry(cfg: RunConfig) -> list[Built]:
    """Build the problems the experiment's `geometries` names, one
    background mesh per distinct grid; ConfigError if one leaves a
    subdomain without cells, as its decomposition reads
    (`experiments.empty_subdomains`).  `validate` and `run_experiment` both
    call it, so `run` rejects such a config before it writes anything, and
    its study takes the problems built here."""
    built, meshes = [], {}
    for where, pdef in EXPERIMENTS[cfg.experiment].geometries(cfg):
        grid = (pdef.rect, pdef.nx, pdef.ny)
        problem = experiments.build_problem(pdef, meshes.get(grid))
        meshes[grid] = problem.mesh
        empty = experiments.empty_subdomains(problem)
        if empty:
            raise ConfigError(f"{where} leaves subdomain {empty[0]} without cells")
        built.append((pdef, problem))
    return built


def run_experiment(cfg: RunConfig, outdir: Path) -> None:
    built = check_geometry(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "resolved.cfg").write_text(render_flat(cfg.flat), encoding="ascii")
    EXPERIMENTS[cfg.experiment].run(cfg, outdir, built)


def _load(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return parse_config(text, os.environ)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if not args:
        sys.stderr.write(USAGE)
        return 1
    command, rest = args[0], args[1:]
    if command == "list-experiments":
        for name in EXPERIMENTS:
            print(name)
        return 0
    if command not in ("run", "validate") or len(rest) != 1:
        sys.stderr.write(USAGE)
        return 1
    try:
        cfg = _load(rest[0])
        if command == "validate":
            check_geometry(cfg)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return 1
    if command == "validate":
        print(f"ok: experiment {cfg.experiment}, output {cfg.output_dir}")
        return 0
    outdir = Path(cfg.output_dir)
    try:
        run_experiment(cfg, outdir)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return 1
    except (LatinCutError, np.linalg.LinAlgError, FloatingPointError) as err:
        outdir.mkdir(parents=True, exist_ok=True)
        record = {
            "error": type(err).__name__,
            "message": str(err),
            "experiment": cfg.experiment,
        }
        (outdir / "error.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8"
        )
        sys.stderr.write(f"numerical failure: {err}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
