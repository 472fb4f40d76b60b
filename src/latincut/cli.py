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
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, experiments, vtkout
from .assembly import FESpace
from .config import RunConfig, format_value, parse_config, render_flat
from .errors import ConfigError, LatinCutError

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


def _run_convergence(cfg: RunConfig, outdir: Path, case: str) -> None:
    v = cfg.values
    monitors = set(v["study.monitor_iterations"]) | set(v["checkpoints"])
    monitors.add(cfg.latin_params().it_max)
    study = experiments.run_convergence_study(
        case=case,
        levels=v["study.levels"],
        base_nx=v["study.base_nx"],
        nu=v["study.nu"],
        # only the two-inclusions experiment reads it; ellipse_case has no contrast
        contrast=v.get("study.contrast", 1.0),
        params=cfg.latin_params(),
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


def _run_condition_sweep(cfg: RunConfig, outdir: Path) -> None:
    v = cfg.values
    rows = experiments.run_condition_sweep(
        n=v["crack.n"],
        mode=v["crack.mode"],
        eps_values=v["crack.eps_values"],
        gamma_g_values=v["crack.gamma_g_values"],
        eps_x_fixed=v["crack.eps_x"],
        nu=v["study.nu"],
        workers=cfg.workers,
        params=cfg.latin_params(),
    )
    write_csv(outdir / "condition.csv", ["eps", "gamma_g", "kappa"], rows)
    # record the first swept problem, with the boundary conditions it assumes
    eps_x, eps_y = experiments.crack_sweep_shifts(
        v["crack.mode"], v["crack.eps_values"], v["crack.eps_x"]
    )[0]
    exemplar = experiments.crack_problem(
        eps_x, eps_y, v["crack.n"], v["crack.gamma_g_values"][0], v["study.nu"],
        cfg.latin_params(),
    )
    (outdir / "crack_problem.cfg").write_text(
        render_flat(experiments.problem_to_flat(exemplar)), encoding="ascii"
    )


def _run_condition_scaling(cfg: RunConfig, outdir: Path) -> None:
    v = cfg.values
    rows = experiments.run_condition_scaling(
        base_n=v["scaling.base_n"],
        levels=v["scaling.levels"],
        eps=v["scaling.eps"],
        gamma_g=v["scaling.gamma_g"],
        nu=v["study.nu"],
        workers=cfg.workers,
        params=cfg.latin_params(),
    )
    write_csv(
        outdir / "condition_scaling.csv", ["h", "eps", "gamma_g", "kappa"], rows
    )


def _run_p1p0(cfg: RunConfig, outdir: Path) -> None:
    v = cfg.values
    results = experiments.run_p1p0_comparison(
        base_nx=v["study.base_nx"],
        nu=v["study.nu"],
        profile_iterations=v["profile.iterations"],
        params=cfg.latin_params(),
        workers=cfg.workers,
    )
    for scheme, res in results.items():
        sub = outdir / scheme
        sub.mkdir(parents=True, exist_ok=True)
        _write_profiles(sub, res)
        if v["export.fields"]:
            last = max(res.checkpoint_u)
            _write_fields(sub / "fields", res.spaces, {last: res.checkpoint_u[last]})


class Experiment(NamedTuple):
    run: Callable[[RunConfig, Path], None]
    reads: tuple[str, ...]  # run-config keys read besides config.COMMON_KEYS


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

# name -> runner and the keys it reads, in `list-experiments` order
EXPERIMENTS: dict[str, Experiment] = {
    "ellipse_convergence": Experiment(
        partial(_run_convergence, case="ellipse"), _CONVERGENCE_KEYS
    ),
    "two_inclusions_convergence": Experiment(
        partial(_run_convergence, case="two_inclusions"),
        _CONVERGENCE_KEYS + ("study.contrast",),
    ),
    "crack_condition_sweep": Experiment(
        _run_condition_sweep,
        ("crack.n", "crack.mode", "crack.eps_x", "crack.eps_values",
         "crack.gamma_g_values", *_CRACK_KEYS),
    ),
    "crack_condition_scaling": Experiment(
        _run_condition_scaling,
        ("scaling.base_n", "scaling.levels", "scaling.eps", "scaling.gamma_g",
         *_CRACK_KEYS),
    ),
    # each scheme iterates to the last profile, with its own interface scheme
    "p1p0_comparison": Experiment(
        _run_p1p0,
        ("export.fields", "study.base_nx", "study.nu", "profile.iterations",
         *_ITERATION_KEYS),
    ),
}


def run_experiment(cfg: RunConfig, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "resolved.cfg").write_text(render_flat(cfg.flat), encoding="ascii")
    EXPERIMENTS[cfg.experiment].run(cfg, outdir)


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
