"""Config grammar, layered precedence, and the command line driver.

The end-to-end runs use one-level ladders on coarse meshes so the whole
file stays in the sub-second range; output schemas are asserted exactly
because downstream plotting scripts parse them by header name.
"""

import contextlib
import importlib.metadata
import io
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latincut
from latincut import analysis, cli, experiments, latin
from latincut.cli import EXPERIMENTS
from latincut.config import (
    COMMON_KEYS,
    KNOWN_KEYS,
    build_run_config,
    env_overrides,
    params_to_flat,
    parse_config,
    parse_flat,
    render_flat,
)
from latincut.errors import ConfigError
from latincut.latin import LatinParams


# --- grammar -----------------------------------------------------------------

def test_parse_flat_accepts_comments_and_embedded_equals():
    text = "\n".join(
        [
            "# header comment",
            "",
            "experiment = p1p0_comparison  # trailing note",
            "output.dir = out/a=b",
        ]
    )
    assert parse_flat(text) == {
        "experiment": "p1p0_comparison",
        "output.dir": "out/a=b",
    }


@pytest.mark.parametrize(
    "text, match",
    [
        ("a = 1\nnot a pair\n", "line 2: expected"),
        (" = 5\n", "line 1: empty key"),
        ("workers = 1\nworkers = 2\n", "line 2: duplicate"),
    ],
)
def test_parse_flat_reports_line_numbers(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_flat(text)


def test_render_flat_round_trips_sorted():
    flat = {"b.two": "2", "a.one": "x y", "c": "3,4"}
    text = render_flat(flat)
    assert parse_flat(text) == flat
    assert text.splitlines() == sorted(text.splitlines())


# --- merged configuration ------------------------------------------------------

def test_defaults_alone_give_a_runnable_config():
    cfg = build_run_config({})
    assert cfg.experiment == "ellipse_convergence"
    assert cfg.output_dir == "out"
    assert cfg.workers == 1
    assert cfg.values["checkpoints"] == ()
    assert cfg.values["export.fields"] is False and cfg.values["export.profiles"] is False
    assert cfg.latin_params() == LatinParams()
    assert cfg.values["study.monitor_iterations"] == (10, 20, 30, 50, 100, 200)
    crack = build_run_config({"experiment": "crack_condition_sweep"})
    assert crack.values["crack.eps_values"] == (0.25, 0.01, 1e-4, 1e-6, 1e-8, 1e-11)
    assert crack.latin_params() == LatinParams()


def test_precedence_defaults_then_file_then_environment():
    cfg = build_run_config({"workers": "3", "latin.eta": "0.5"})
    assert cfg.workers == 3 and cfg.values["latin.eta"] == 0.5
    cfg = build_run_config(
        {"workers": "3"}, {"LATINCUT_WORKERS": "5", "LATINCUT_LATIN_ETA": "0.25"}
    )
    assert cfg.workers == 5
    assert cfg.values["latin.eta"] == 0.25
    assert cfg.values["latin.k"] == 1.0  # untouched default


def test_environment_wildcard_keys_and_rejections():
    env = {
        "LATINCUT_LATIN_K": "2.0",
        "HOME": "/somewhere",  # unprefixed names are ignored
    }
    assert env_overrides(env) == {"latin.k": "2.0"}
    # the former wildcard families are rejected in test_former_problem_keys_are_unknown
    with pytest.raises(ConfigError, match="unknown config key in environment: LATINCUT_BOGUS"):
        env_overrides({"LATINCUT_BOGUS": "1"})


# problem-definition keys a run config once accepted and then ignored; the
# problem form (`crack_problem.cfg`) carries them, a run config does not
FORMER_PROBLEM_KEYS = {
    "problem.name": "mine",
    "mesh.rect": "0,0,1,1",
    "mesh.nx": "999",
    "mesh.ny": "4",
    "material.e": "1.0,1.0",
    "material.nu": "0.3",
    "geometry.grouping": "0,1",
    "geometry.levelset.0": "circle,0,0,0.5",
    "bc.dirichlet.0.top": "0,-1",
    "bc.neumann.0.top": "0,-5",
}


@pytest.mark.parametrize("key", sorted(FORMER_PROBLEM_KEYS))
def test_former_problem_keys_are_unknown(tmp_path, capsys, key, monkeypatch):
    out = tmp_path / "out"
    body = f"experiment = crack_condition_scaling\noutput.dir = {out}\n"
    path = run_cfg(tmp_path, body + f"{key} = {FORMER_PROBLEM_KEYS[key]}\n")
    assert cli.main(["run", str(path)]) == 1
    assert f"config error: unknown config key {key!r}" in capsys.readouterr().err
    name = "LATINCUT_" + key.replace(".", "_").upper()
    monkeypatch.setenv(name, FORMER_PROBLEM_KEYS[key])
    assert cli.main(["run", str(run_cfg(tmp_path, body))]) == 1
    assert f"unknown config key in environment: {name}" in capsys.readouterr().err
    assert not out.exists()


def test_legacy_k_pair_reads_as_k():
    cfg = build_run_config({"latin.k_plus": "2.0", "latin.k_minus": "2.0"})
    assert cfg.latin_params().k == 2.0
    assert cfg.values["latin.k"] == 2.0
    assert "latin.k_plus" not in cfg.flat and "latin.k_minus" not in cfg.flat
    for entries in (
        {"latin.k_plus": "2.0", "latin.k_minus": "1.0"},
        {"latin.k_plus": "2.0"},
        {"latin.k_minus": "2.0"},
    ):
        with pytest.raises(ConfigError, match="require k_plus == k_minus"):
            build_run_config(entries)
    with pytest.raises(ConfigError, match="latin.k replaces"):
        build_run_config({"latin.k": "2.0", "latin.k_plus": "2.0", "latin.k_minus": "2.0"})
    # the legacy names are read from files only
    with pytest.raises(ConfigError, match="unknown config key in environment"):
        build_run_config({}, {"LATINCUT_LATIN_K_PLUS": "2.0"})


@pytest.mark.parametrize(
    "entries, match",
    [
        ({"latin.bogus": "1"}, "unknown config key"),
        ({"workers": "0"}, "at least 1"),
        ({"workers": "many"}, "must be an integer"),
        ({"export.fields": "yes"}, "true or false"),
        ({"experiment": "nope"}, "must be one of"),
        ({"experiment": "crack_condition_sweep", "crack.mode": "triple"}, "must be one of"),
        # problem-form entries are not run-config keys; the form is only
        # written, as a record of the problem a run built
        ({"mesh.rect": "0,0,1"}, "unknown config key"),
        ({"mesh.rect": "0,0,-1,1"}, "unknown config key"),
        ({"bc.dirichlet.0.top": "1.0"}, "unknown config key"),
        ({"geometry.levelset.0": "blob,1.0"}, "unknown config key"),
        ({"geometry.levelset.0": "circle,1.0"}, "unknown config key"),
        ({"latin.eta": "1.5"}, "eta"),
    ],
)
def test_invalid_entries_rejected(entries, match):
    with pytest.raises(ConfigError, match=match):
        build_run_config(entries)


def test_parse_config_combines_text_and_environment():
    cfg = parse_config("workers = 2\n", {"LATINCUT_OUTPUT_DIR": "elsewhere"})
    assert cfg.workers == 2 and cfg.output_dir == "elsewhere"


# --- command line ---------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    for argv in ([], ["bogus"], ["run"], ["validate", "a", "b"]):
        assert cli.main(argv) == 1
        assert "usage:" in capsys.readouterr().err


def test_list_experiments(capsys):
    assert cli.main(["list-experiments"]) == 0
    assert capsys.readouterr().out.split() == list(EXPERIMENTS)


def test_validate_reports_experiment_and_output(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = crack_condition_scaling\noutput.dir = somewhere\n")
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok: experiment crack_condition_scaling, output somewhere\n"


def test_validate_rejects_bad_configs(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("workers = 0\n")
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert cli.main(["validate", str(tmp_path / "missing.cfg")]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def run_cfg(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return path


def test_run_convergence_end_to_end(tmp_path):
    out = tmp_path / "out"
    cfg = run_cfg(
        tmp_path,
        f"""
experiment = ellipse_convergence
output.dir = {out}
study.levels = 1
study.base_nx = 12
study.reference_it_max = 8
latin.it_max = 8
study.monitor_iterations = 2,4,50
checkpoints = 3
export.profiles = true
export.fields = true
""",
    )
    assert cli.main(["run", str(cfg)]) == 0

    resolved = (out / "resolved.cfg").read_text()
    assert "study.base_nx = 12" in resolved
    assert "latin.eta = 0.85" in resolved  # defaults are materialized

    conv = (out / "convergence.csv").read_text().splitlines()
    assert conv[0] == "h,H1_error,energy_error,rate_to_previous"
    assert len(conv) == 2
    h_text, _, _, rate_text = conv[1].split(",")
    assert h_text == repr(2.4 / 12)
    assert rate_text == "nan"  # single level has no previous error

    its = (out / "iterations.csv").read_text().splitlines()
    assert its[0] == "it,energy_error_vs_ref,latin_indicator"
    # monitors union checkpoints union it_max; a monitor past it_max never comes
    assert [row.split(",")[0] for row in its[1:]] == ["2", "3", "4", "8"]
    assert all(float(row.split(",")[1]) > 0 for row in its[1:])

    profiles = sorted(p.name for p in out.glob("profile_*.csv"))
    assert profiles == ["profile_2.csv", "profile_3.csv", "profile_4.csv", "profile_8.csv"]
    assert (out / "profile_8.csv").read_text().splitlines()[0] == "theta,traction"

    fields = sorted(p.name for p in (out / "fields").glob("*.vtk"))
    assert fields == ["sub0_it3.vtk", "sub0_it8.vtk", "sub1_it3.vtk", "sub1_it8.vtk"]
    assert (out / "fields" / "sub0_it8.vtk").read_text().startswith("# vtk DataFile")

    # reruns with the same config byte-match everything they rewrite
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert cli.main(["run", str(cfg)]) == 0
    for p, payload in before.items():
        assert p.read_bytes() == payload, p


def test_exported_profiles_come_from_the_ladder_solve(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = run_cfg(
        tmp_path,
        f"""
experiment = ellipse_convergence
output.dir = {out}
study.levels = 2
study.base_nx = 12
study.reference_it_max = 6
latin.it_max = 6
study.monitor_iterations = 2,4
export.profiles = true
""",
    )
    solve = experiments.solve_problem
    calls = []

    def counted(pdef, *args, **kwargs):
        calls.append(pdef)
        return solve(pdef, *args, **kwargs)

    monkeypatch.setattr(experiments, "solve_problem", counted)
    assert cli.main(["run", str(cfg)]) == 0
    # one solve per ladder level plus the reference, which is solved first;
    # no re-solve for profiles
    assert [p.nx for p in calls] == [48, 12, 24]

    monitored = solve(calls[2], (2, 4, 6))
    iface = experiments.problem_spaces(monitored.pdef)[1][monitored.profile_interface.pair]
    expect = tmp_path / "expect"
    expect.mkdir()
    for it, traction in monitored.checkpoint_traction.items():
        prof = analysis.traction_profile(iface, traction)
        cli.write_csv(
            expect / f"profile_{it}.csv", ["theta", "traction"], [tuple(r) for r in prof]
        )
    written = sorted(p.name for p in out.glob("profile_*.csv"))
    assert written == ["profile_2.csv", "profile_4.csv", "profile_6.csv"]
    for name in written:
        assert (out / name).read_bytes() == (expect / name).read_bytes(), name


def test_run_condition_sweep_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = run_cfg(
        tmp_path,
        f"""
experiment = crack_condition_sweep
output.dir = {out}
crack.n = 12
crack.eps_values = 0.25,1e-8
crack.gamma_g_values = 0.0,0.001
""",
    )
    assert cli.main(["run", str(cfg)]) == 0
    rows = (out / "condition.csv").read_text().splitlines()
    assert rows[0] == "eps,gamma_g,kappa"
    assert len(rows) == 5
    form = parse_flat((out / "crack_problem.cfg").read_text())
    assert form["problem.name"] == "crack" and form["mesh.nx"] == "12"


@pytest.mark.parametrize("mode", ["simple", "double"])
def test_condition_sweep_records_its_first_problem(tmp_path, monkeypatch, mode):
    make, built = experiments.crack_problem, []

    def recording(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(experiments, "crack_problem", recording)
    out = tmp_path / "out"
    cfg = run_cfg(
        tmp_path,
        f"experiment = crack_condition_sweep\noutput.dir = {out}\ncrack.n = 12\n"
        f"crack.mode = {mode}\ncrack.eps_x = 0.375\ncrack.eps_values = 0.25,1e-8\n"
        "crack.gamma_g_values = 0.001,0.1\n",
    )
    assert cli.main(["run", str(cfg)]) == 0
    # the config check builds each geometry first, with gamma_g = 0; the
    # sweep's first problem is the first with its first weight, built
    # before the exemplar
    first = next(p for p in built if p.params.gamma_g == 0.001)
    assert first is not built[-1]
    written = (out / "crack_problem.cfg").read_text(encoding="ascii")
    assert written == render_flat(experiments.problem_to_flat(first))
    eps_x = 0.25 if mode == "double" else 0.375
    assert first == make(eps_x, 0.25, 12, 0.001)


def test_crack_sweep_honours_latin_params(tmp_path):
    def sweep(name, latin):
        out = tmp_path / name
        cfg = run_cfg(
            tmp_path,
            f"experiment = crack_condition_sweep\noutput.dir = {out}\ncrack.n = 12\n"
            f"crack.eps_values = 0.25\ncrack.gamma_g_values = 0.1\n{latin}",
        )
        assert cli.main(["run", str(cfg)]) == 0
        kappa = float((out / "condition.csv").read_text().splitlines()[1].split(",")[2])
        form = parse_flat((out / "crack_problem.cfg").read_text())
        return kappa, {key: v for key, v in form.items() if key.startswith("latin.")}

    kappa_1, params_1 = sweep("k1", "")
    kappa_4, params_4 = sweep("k4", "latin.k = 4.0\nlatin.quad_points_per_segment = 4\n")
    # gamma_g is the swept value, 0.1 here
    assert params_1 == params_to_flat(LatinParams())
    assert params_4 == params_to_flat(LatinParams(k=4.0, quad_points_per_segment=4))
    # the Robin augmentation k int u.v enters every operator the sweep estimates
    assert kappa_4 != pytest.approx(kappa_1, rel=1e-3)
    # the legacy pair in a file is the same run
    assert sweep("legacy", "latin.k_plus = 4.0\nlatin.k_minus = 4.0\n"
                 "latin.quad_points_per_segment = 4\n") == (kappa_4, params_4)


def test_resolved_cfg_parses_back_to_the_run(tmp_path):
    out = tmp_path / "out"
    text = (
        f"experiment = crack_condition_scaling\noutput.dir = {out}\nscaling.base_n = 12\n"
        "scaling.levels = 2\nlatin.k_plus = 2.5\nlatin.k_minus = 2.5\n"
        "latin.quad_points_per_segment = 4\n"
    )
    assert cli.main(["run", str(run_cfg(tmp_path, text))]) == 0
    cfg, again = parse_config(text), parse_config((out / "resolved.cfg").read_text())
    assert again.values == cfg.values
    assert again.latin_params() == cfg.latin_params()
    assert cfg.latin_params() == LatinParams(k=2.5, quad_points_per_segment=4)


def readme_configs() -> dict[str, str]:
    """Every config README.md shows: each `# name.cfg` section of a code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    configs = {}
    for block in re.findall(r"^```\n(.*?)^```", readme, re.M | re.S):
        for section in re.split(r"^(?=# [\w.-]+\.cfg)", block, flags=re.M):
            name = re.match(r"# ([\w.-]+\.cfg)", section)
            if name:
                configs[name.group(1)] = section
    return configs


def test_readme_shows_the_example_configs():
    assert sorted(readme_configs()) == [
        "crack_scaling.cfg", "crack_sweep.cfg", "ellipse.cfg", "ellipse_quick.cfg", "p1p0.cfg",
    ]


@pytest.mark.parametrize("name", sorted(readme_configs()))
def test_readme_config_parses(name):
    cfg = parse_config(readme_configs()[name])
    assert cfg.output_dir.startswith("out/")


@pytest.mark.parametrize(
    "experiment, key",
    [
        ("crack_condition_sweep", "crack.gamma_g_values"),
        ("crack_condition_sweep", "crack.eps_values"),
        ("p1p0_comparison", "profile.iterations"),
    ],
)
def test_run_rejects_empty_sweep_lists(tmp_path, capsys, experiment, key):
    out = tmp_path / "out"
    size = {"crack_condition_sweep": "crack.n", "p1p0_comparison": "study.base_nx"}[experiment]
    cfg = run_cfg(
        tmp_path, f"experiment = {experiment}\noutput.dir = {out}\n{size} = 12\n{key} =\n"
    )
    assert cli.main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


def test_run_condition_scaling_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = run_cfg(
        tmp_path,
        f"experiment = crack_condition_scaling\noutput.dir = {out}\n"
        "scaling.base_n = 12\nscaling.levels = 2\n",
    )
    assert cli.main(["run", str(cfg)]) == 0
    rows = (out / "condition_scaling.csv").read_text().splitlines()
    assert rows[0] == "h,eps,gamma_g,kappa"
    assert len(rows) == 3


def test_run_p1p0_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = run_cfg(
        tmp_path,
        f"""
experiment = p1p0_comparison
output.dir = {out}
study.base_nx = 12
profile.iterations = 2,5
""",
    )
    assert cli.main(["run", str(cfg)]) == 0
    for scheme in ("p1", "p0"):
        files = sorted(p.name for p in (out / scheme).glob("profile_*.csv"))
        assert files == ["profile_2.csv", "profile_5.csv"]


def test_run_numerical_failure_leaves_error_record(tmp_path, capsys):
    # the inclusion touches no Dirichlet side, so with a vanishing search
    # direction stiffness its operator is singular to rounding
    out = tmp_path / "out"
    cfg = run_cfg(
        tmp_path,
        f"""
experiment = ellipse_convergence
output.dir = {out}
study.levels = 1
study.base_nx = 4
latin.it_max = 2
latin.k = 1e-300
study.reference_it_max = 2
""",
    )
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure:")
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "SolverFailure"
    assert record["experiment"] == "ellipse_convergence"
    assert "subdomain 1 is not positive definite" in record["message"]
    assert (out / "resolved.cfg").exists()


def test_diverging_run_fails_without_a_warning(tmp_path, capsys):
    # the interface norms of this diverging run round negative at iteration
    # 6, so the indicator's ratio is negative: the run must report it
    # through error.json alone, printing no numpy warning
    out = tmp_path / "out"
    cfg = run_cfg(
        tmp_path,
        f"""
experiment = p1p0_comparison
output.dir = {out}
study.base_nx = 8
latin.k = 1e150
latin.eta = 1e-09
latin.gamma_pi = 1e-12
profile.iterations = 2,20
""",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", str(cfg)])
    assert [str(w.message) for w in caught] == []
    assert code == 2
    message = "iteration 6: non-finite error indicator on pair (0, 1)"
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert json.loads((out / "error.json").read_text()) == {
        "error": "SolverFailure",
        "message": message,
        "experiment": "p1p0_comparison",
    }


def test_k_whose_square_overflows_is_a_config_error(tmp_path, capsys):
    # error_indicator weighs the displacements by k ** 2, which overflows
    out = tmp_path / "out"
    cfg = run_cfg(
        tmp_path,
        f"""
experiment = ellipse_convergence
output.dir = {out}
study.levels = 1
study.base_nx = 4
latin.it_max = 2
latin.k = 1e200
study.reference_it_max = 2
""",
    )
    message = "config error: search-direction stiffness k is too large: k ** 2 overflows\n"
    assert cli.main(["validate", str(cfg)]) == 1
    assert capsys.readouterr().err == message
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_console_script_is_installed(tmp_path):
    """The declared ``latincut`` console script resolves to ``cli.main`` and
    works when run the way the installed script runs it.

    The script is invoked through the same wrapper setuptools writes for a
    console script, so no install is needed; an installed distribution and
    its executable on PATH, when present, are checked as well.
    """
    tomllib = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"latincut": "latincut.cli:main"}
    target = scripts["latincut"]
    assert pkgutil.resolve_name(target) is cli.main

    def check(proc):
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == list(EXPERIMENTS), proc.stderr

    module, _, attr = target.partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    src = str(Path(latincut.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    check(
        subprocess.run(
            [sys.executable, "-c", wrapper, "list-experiments"],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
    )

    try:
        dist = importlib.metadata.distribution("latincut")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = dist.entry_points.select(group="console_scripts", name="latincut")
    assert [ep.value for ep in installed] == [target]
    exe = shutil.which("latincut")
    if exe is not None:
        check(subprocess.run([exe, "list-experiments"], capture_output=True, text=True))


# --- the keys each experiment reads ----------------------------------------------

# every run-config key, each with a valid value: every experiment must
# either read such a key or reject it; and `latin.alpha`, the penalty of a
# removed weak-Dirichlet path that older problem files carry, which every
# experiment rejects
CANDIDATE_KEYS = {
    **{key: default for key, (_, default, _) in KNOWN_KEYS.items()},
    "latin.alpha": "10.0",
}

# A quick config of each experiment, and for each key it reads besides
# COMMON_KEYS a second value, which must change what the run writes.
_CONVERGENCE_QUICK = (
    {
        "study.levels": "1", "study.base_nx": "8", "study.reference_it_max": "4",
        "latin.it_max": "4", "study.monitor_iterations": "2", "checkpoints": "3",
        "export.fields": "true", "export.profiles": "true",
    },
    {
        "checkpoints": "1", "export.fields": "false", "export.profiles": "false",
        "study.levels": "2", "study.base_nx": "10", "study.nu": "0.25",
        "study.reference_it_max": "5", "study.monitor_iterations": "1",
        "latin.k": "2.0", "latin.eta": "0.5", "latin.gamma_g": "0.2",
        "latin.gamma_pi": "0.2", "latin.quad_points_per_segment": "1",
        "latin.it_max": "3", "latin.interface_scheme": "p0",
    },
)
_CRACK_CHANGES = {"study.nu": "0.25", "latin.k": "2.0", "latin.quad_points_per_segment": "1"}
QUICK = {
    "ellipse_convergence": _CONVERGENCE_QUICK,
    "two_inclusions_convergence": (
        _CONVERGENCE_QUICK[0], {**_CONVERGENCE_QUICK[1], "study.contrast": "2.0"}
    ),
    "crack_condition_sweep": (
        {"crack.n": "6", "crack.eps_values": "0.25", "crack.gamma_g_values": "0.1"},
        {
            "crack.n": "9", "crack.mode": "double", "crack.eps_x": "0.375",
            "crack.eps_values": "0.125", "crack.gamma_g_values": "0.2", **_CRACK_CHANGES,
        },
    ),
    "crack_condition_scaling": (
        {"scaling.base_n": "6", "scaling.levels": "2"},
        {
            "scaling.base_n": "9", "scaling.levels": "3", "scaling.eps": "0.125",
            "scaling.gamma_g": "0.2", **_CRACK_CHANGES,
        },
    ),
    "p1p0_comparison": (
        {"study.base_nx": "8", "profile.iterations": "2,3", "export.fields": "true"},
        {
            "export.fields": "false", "study.base_nx": "10", "study.nu": "0.25",
            "profile.iterations": "2,4", "latin.k": "2.0", "latin.eta": "0.5",
            "latin.gamma_g": "0.2", "latin.gamma_pi": "0.2",
            "latin.quad_points_per_segment": "1",
        },
    ),
}
READ = [(name, key) for name, exp in EXPERIMENTS.items() for key in exp.reads]
UNREAD = [
    (name, key)
    for name, exp in EXPERIMENTS.items()
    for key in CANDIDATE_KEYS
    if key not in COMMON_KEYS + exp.reads
]


def test_read_sets_are_the_accepted_keys():
    assert len(CANDIDATE_KEYS) == 30
    assert sorted(KNOWN_KEYS) == sorted(set(CANDIDATE_KEYS) - {"latin.alpha"})
    for name, exp in EXPERIMENTS.items():
        assert len(set(exp.reads)) == len(exp.reads)
        assert not set(exp.reads) & set(COMMON_KEYS)
        assert sorted(QUICK[name][1]) == sorted(exp.reads), name
        cfg = build_run_config({"experiment": name})
        assert sorted(cfg.flat) == sorted(COMMON_KEYS + exp.reads)
    # 70 accepted (experiment, key) pairs out of 5 x 30
    assert len(READ) + len(COMMON_KEYS) * len(EXPERIMENTS) == 70
    assert len(UNREAD) == 80


def quick_outputs(tmp_path, name, entries) -> dict[str, bytes]:
    """Run a quick config; every file it writes except resolved.cfg."""
    out = tmp_path / "out"
    text = render_flat({"experiment": name, "output.dir": str(out), **entries})
    assert cli.main(["run", str(run_cfg(tmp_path, text))]) == 0
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "resolved.cfg"
    }


@pytest.fixture(scope="module")
def quick_baseline(tmp_path_factory):
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = quick_outputs(tmp_path_factory.mktemp(name), name, QUICK[name][0])
        return runs[name]

    return get


@pytest.mark.parametrize("name, key", READ)
def test_each_read_key_changes_the_outputs(tmp_path, quick_baseline, name, key):
    base, changes = QUICK[name]
    assert base.get(key, CANDIDATE_KEYS[key]) != changes[key]
    assert quick_outputs(tmp_path, name, {**base, key: changes[key]}) != quick_baseline(name)


@pytest.mark.parametrize("name, key", UNREAD)
def test_each_unread_key_is_rejected(tmp_path, capsys, monkeypatch, name, key):
    out = tmp_path / "out"
    body = f"experiment = {name}\noutput.dir = {out}\n"
    env = "LATINCUT_" + key.replace(".", "_").upper()
    if key in KNOWN_KEYS:
        in_file = f"config error: {key!r} is not read by experiment {name!r}"
        in_env = in_file.replace(" is not", " (from the environment) is not")
    else:
        in_file = f"config error: unknown config key {key!r}"
        in_env = f"config error: unknown config key in environment: {env}"
    path = run_cfg(tmp_path, body + f"{key} = {CANDIDATE_KEYS[key]}\n")
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err == in_file + "\n"
    monkeypatch.setenv(env, CANDIDATE_KEYS[key])
    assert cli.main(["run", str(run_cfg(tmp_path, body))]) == 1
    assert capsys.readouterr().err == in_env + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "body, key",
    [
        ("experiment = crack_condition_sweep\ncrack.n = 25\n", "crack.n"),
        ("experiment = crack_condition_scaling\nscaling.base_n = 10\n", "scaling.base_n"),
        ("experiment = crack_condition_scaling\nscaling.levels = 1\n", "scaling.levels"),
        ("checkpoints = 0,5\n", "checkpoints"),
        ("latin.it_max = 20\ncheckpoints = 5,700\n", "checkpoints"),
        ("study.monitor_iterations = 0,5\n", "study.monitor_iterations"),
        ("experiment = p1p0_comparison\nprofile.iterations = 0,5\n", "profile.iterations"),
        (
            "experiment = crack_condition_sweep\ncrack.gamma_g_values = 0.1,-1\n",
            "crack.gamma_g_values",
        ),
        (
            "experiment = crack_condition_sweep\ncrack.gamma_g_values = -1,0.1\n",
            "crack.gamma_g_values",
        ),
        ("study.nu = 0.7\n", "study.nu"),
        ("study.nu = nan\n", "study.nu"),
        ("experiment = two_inclusions_convergence\nstudy.contrast = 0\n", "study.contrast"),
        ("experiment = crack_condition_sweep\ncrack.eps_x = nan\n", "crack.eps_x"),
        # shifts that leave a crack subdomain empty
        ("experiment = crack_condition_sweep\ncrack.n = 12\ncrack.eps_x = 10\n", "crack.eps_x"),
        (
            "experiment = crack_condition_sweep\ncrack.n = 12\ncrack.eps_values = 30\n",
            "crack.eps_values",
        ),
        (
            "experiment = crack_condition_scaling\nscaling.base_n = 12\nscaling.eps = 5\n",
            "scaling.eps",
        ),
        # a cut within rounding of the square's edge: no cell lies beyond it
        (
            "experiment = crack_condition_sweep\ncrack.n = 12\n"
            "crack.eps_x = -3.9999999999999\ncrack.eps_values = 0.25\n",
            "crack.eps_x",
        ),
        (
            "experiment = crack_condition_scaling\nscaling.base_n = 12\n"
            "scaling.levels = 2\nscaling.eps = -3.9999999999999\n",
            "scaling.eps",
        ),
        # a relaxation that never leaves the first linear stage
        ("latin.eta = 0\n", "eta"),
        # a level-0 mesh too coarse to hold a cell of the inclusion
        ("study.base_nx = 1\n", "study.base_nx"),
        ("study.base_nx = 3\n", "study.base_nx"),
        ("experiment = p1p0_comparison\nstudy.base_nx = 1\n", "study.base_nx"),
        ("experiment = p1p0_comparison\nstudy.base_nx = 3\n", "study.base_nx"),
        ("experiment = two_inclusions_convergence\nstudy.base_nx = 1\n", "study.base_nx"),
    ],
)
def test_validate_rejects_what_run_would_reject(tmp_path, capsys, body, key):
    out = tmp_path / "out"
    path = run_cfg(tmp_path, f"output.dir = {out}\n{body}")
    assert cli.main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    # run rejects it with the same message before it writes anything
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize(
    "body, meshes, decompositions",
    [
        ("experiment = crack_condition_sweep\ncrack.n = 12\n", 1, 6),
        (
            "experiment = crack_condition_scaling\nscaling.base_n = 12\n"
            "scaling.levels = 2\n",
            2, 2,
        ),
        (
            "experiment = p1p0_comparison\nstudy.base_nx = 8\n"
            "profile.iterations = 2,5\n",
            1, 1,
        ),
    ],
)
def test_run_builds_each_geometry_once(monkeypatch, tmp_path, body, meshes, decompositions):
    # the study takes the problems the empty-subdomain check built: one mesh
    # per distinct grid (the six sweep shifts share one), one decomposition
    # per geometry, and P1 and P0 share theirs
    counts = {"mesh": 0, "decompose": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(
        experiments, "build_structured_mesh",
        counting("mesh", experiments.build_structured_mesh),
    )
    for module in (latin, experiments):
        monkeypatch.setattr(
            module, "decompose_mesh", counting("decompose", module.decompose_mesh)
        )
    path = run_cfg(tmp_path, f"output.dir = {tmp_path / 'out'}\n{body}")
    assert cli.main(["run", str(path)]) == 0
    assert counts == {"mesh": meshes, "decompose": decompositions}


def _shift(n):
    """A crack shift on the n grid: a cut on the square's edge, another cut
    or a grid corner (0, +-n/3, +-2n/3, +-n), a float next to one, or an
    ordinary value."""
    edges = [sign * k * n / 3 for k in range(4) for sign in (1.0, -1.0)]
    near = [np.nextafter(e, to) for e in edges for to in (-np.inf, np.inf)]
    return st.one_of(
        st.sampled_from(edges + [float(v) for v in near]),
        st.floats(-1.2 * n, 1.2 * n, allow_nan=False),
    )


def _main_stderr(args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    return code, err.getvalue()


def assert_validate_and_run_agree(body):
    """If validate accepts the config, run succeeds or leaves an error.json
    (exit 2); if validate rejects it, run rejects it with the same message
    and writes nothing.  Neither prints a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = Path(tmp) / "run.cfg"
        path.write_text(f"output.dir = {out}\n{body}")
        code, err = _main_stderr(["validate", str(path)])
        run_code, run_err = _main_stderr(["run", str(path)])
        assert "Traceback" not in err + run_err
        if code == 1:
            assert (run_code, run_err) == (1, err) and not out.exists()
        else:
            assert code == 0
            assert run_code == 0 or (run_code == 2 and (out / "error.json").is_file())


def _iterations(*entries):
    """Iteration lists drawn from ``entries``."""
    return st.lists(st.sampled_from(entries), min_size=1, max_size=3).map(
        lambda its: ",".join(map(str, its))
    )


# key -> (accepted value texts, ordinary and edge, with at most 20
# iterations; value texts the config check rejects)
_SOLVER_KEYS = {
    "study.nu": (["0.3", "1e-12", repr(float(np.nextafter(0.5, 0.0)))], ["0.0", "0.5", "-0.1"]),
    "latin.k": (["1.0", "0.001", "1000.0", "1e-300", "1e150"], ["0.0", "-1.0", "1e200"]),
    "latin.eta": (["0.85", "1.0", "1e-09"], ["0.0", "1.5"]),
    "latin.gamma_g": (["0.1", "0.0", "1000.0"], ["-0.1"]),
    "latin.gamma_pi": (["0.1", "0.0", "1e-12", "1000.0"], ["-0.1"]),
    "latin.quad_points_per_segment": (["1", "2", "4"], ["3"]),
    "export.fields": (["true", "false"], ["yes"]),
}
_CONVERGENCE_KEYS = {
    "study.levels": (["1", "2"], ["0"]),
    "latin.it_max": (["1", "5", "20"], ["0"]),
    "study.reference_it_max": (["1", "5", "20"], ["0"]),
    "study.monitor_iterations": (_iterations(1, 2, 7, 20), ["0", "-1"]),
    "export.profiles": (["true", "false"], ["1"]),
    "latin.interface_scheme": (["p1", "p0"], ["p2"]),
}
_EXTRA_KEYS = {
    "ellipse_convergence": {},
    "two_inclusions_convergence": {"study.contrast": (["1.0", "1e-06", "1000000.0"], ["0.0"])},
    "p1p0_comparison": {"profile.iterations": (_iterations(1, 2, 7, 20), ["0", ""])},
}


@st.composite
def inclusion_configs(draw):
    """A small ellipse, two-inclusion or P1/P0 run: every key it reads at an
    accepted value, or at most one at a rejected value.  Checkpoints and
    the mesh size (at most 12 cells per side) are left for the cross-key
    and geometry checks to judge."""
    experiment = draw(st.sampled_from(sorted(_EXTRA_KEYS)))
    keys = {**_SOLVER_KEYS, **_EXTRA_KEYS[experiment]}
    if experiment != "p1p0_comparison":
        keys.update(_CONVERGENCE_KEYS)
    values = {}
    for key, (accepted, _) in keys.items():
        values[key] = draw(
            accepted if isinstance(accepted, st.SearchStrategy) else st.sampled_from(accepted)
        )
    if draw(st.integers(0, 2)) == 2:
        key = draw(st.sampled_from(sorted(keys)))
        values[key] = draw(st.sampled_from(keys[key][1]))
    # out of order, so the draws do not favor the smallest meshes
    values["study.base_nx"] = draw(st.sampled_from([12, 8, 6, 9, 4, 2, 10, 1, 3]))
    if experiment != "p1p0_comparison" and draw(st.booleans()):
        values["checkpoints"] = draw(_iterations(1, 5, 20))
    return f"experiment = {experiment}\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(body=inclusion_configs())
def test_validate_and_run_agree_on_inclusion_studies(body):
    assert_validate_and_run_agree(body)


def _crack_keys(experiment, n):
    """Every key a crack experiment on the n grid reads: key -> (strategy of
    accepted value texts, ordinary and edge; value texts the config check
    rejects)."""
    shift = _shift(n).map(repr)
    keys = {
        key: (st.sampled_from(_SOLVER_KEYS[key][0]), _SOLVER_KEYS[key][1])
        for key in ("study.nu", "latin.k", "latin.quad_points_per_segment")
    }
    if experiment == "crack_condition_sweep":
        weights = st.lists(st.sampled_from(["0.0", "1e-12", "0.001", "0.1", "1000.0"]),
                           min_size=1, max_size=3)
        return keys | {
            "crack.n": (st.just(str(n)), ["4", "0", "-3"]),
            "crack.mode": (st.sampled_from(["simple", "double"]), ["triple", ""]),
            "crack.eps_x": (shift, ["nan", "inf"]),
            "crack.eps_values": (st.lists(shift, min_size=1, max_size=2).map(",".join),
                                 ["", "nan"]),
            "crack.gamma_g_values": (weights.map(",".join), ["", "-0.1", "0.1,-1e-12"]),
        }
    return keys | {
        "scaling.base_n": (st.just(str(n)), ["4", "0"]),
        "scaling.levels": (st.sampled_from(["2", "3"]), ["1", "0"]),
        "scaling.eps": (shift, ["nan", "inf"]),
        "scaling.gamma_g": (st.sampled_from(["0.1", "0.0", "1e-12", "1000.0"]), ["-0.1"]),
    }


@st.composite
def crack_configs(draw):
    """A small crack sweep or scaling run: every key it reads at an accepted
    value, or at most one at a rejected value.  Shifts, at most 12 cells
    per side and up to three scaling levels are left for the geometry
    check to judge."""
    experiment = draw(st.sampled_from(["crack_condition_sweep", "crack_condition_scaling"]))
    sizes = [3, 6, 9, 12] if experiment == "crack_condition_sweep" else [3, 6, 12]
    keys = _crack_keys(experiment, draw(st.sampled_from(sizes)))
    values = {key: draw(accepted) for key, (accepted, _) in keys.items()}
    if draw(st.integers(0, 2)) == 2:
        key = draw(st.sampled_from(sorted(keys)))
        values[key] = draw(st.sampled_from(keys[key][1]))
    return f"experiment = {experiment}\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(body=crack_configs())
def test_validate_and_run_agree_on_crack_shifts(body):
    assert_validate_and_run_agree(body)


def test_readme_key_table_matches_the_experiments():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| ((?:`[\w.]+`(?:, )?)+) \|$", readme, re.M)
    assert {name: sorted(re.findall(r"`([\w.]+)`", keys)) for name, keys in rows} == {
        name: sorted(exp.reads) for name, exp in EXPERIMENTS.items()
    }


def test_benchmark_configs_parse(monkeypatch):
    """Every config perfbench/run.py generates (each workload, seeds 0-9) is
    a valid run config.  run.py is executed from its source with its
    `study` import supplied, so nothing under perfbench/ is written."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"

    def load(name):
        path = bench / f"{name}.py"
        module = ModuleType(f"perfbench_{name}")
        module.__file__ = str(path)
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
        return module

    monkeypatch.setitem(sys.modules, "study", load("study"))
    run = load("run")
    assert sorted(run.WORKLOADS) == ["crack_sweep", "ellipse_ladder", "p1p0_long"]
    for make, _ in run.WORKLOADS.values():
        for seed in range(10):
            values = make(seed)
            assert parse_config(run.render_config(values)).experiment == values["experiment"]
