"""Config grammar, layered precedence, and the command line driver.

The end-to-end runs use one-level ladders on coarse meshes so the whole
file stays in the sub-second range; output schemas are asserted exactly
because downstream plotting scripts parse them by header name.
"""

import importlib.metadata
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import latincut
from latincut import analysis, cli, experiments
from latincut.config import (
    build_run_config,
    env_overrides,
    parse_config,
    parse_flat,
    render_flat,
)
from latincut.errors import ConfigError
from latincut.experiments import EXPERIMENTS, problem_from_flat
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
    assert cfg.checkpoints == ()
    assert cfg.export_fields is False and cfg.export_profiles is False
    assert cfg.latin_params() == LatinParams()
    assert cfg.values["study.monitor_iterations"] == (10, 20, 30, 50, 100, 200)
    assert cfg.values["crack.eps_values"] == (0.25, 0.01, 1e-4, 1e-6, 1e-8, 1e-11)
    assert cfg.problem_entries == {}


def test_precedence_defaults_then_file_then_environment():
    cfg = build_run_config({"workers": "3", "latin.eta": "0.5"})
    assert cfg.workers == 3 and cfg.values["latin.eta"] == 0.5
    cfg = build_run_config(
        {"workers": "3"}, {"LATINCUT_WORKERS": "5", "LATINCUT_LATIN_ETA": "0.25"}
    )
    assert cfg.workers == 5
    assert cfg.values["latin.eta"] == 0.25
    assert cfg.values["latin.alpha"] == 10.0  # untouched default


def test_environment_wildcard_keys_and_rejections():
    env = {
        "LATINCUT_GEOMETRY_LEVELSET_0": "circle,0.0,0.0,0.5",
        "LATINCUT_BC_DIRICHLET_0_TOP": "0.0,-1.0",
        "HOME": "/somewhere",  # unprefixed names are ignored
    }
    out = env_overrides(env)
    assert out == {
        "geometry.levelset.0": "circle,0.0,0.0,0.5",
        "bc.dirichlet.0.top": "0.0,-1.0",
    }
    with pytest.raises(ConfigError, match="unknown config key in environment: LATINCUT_BOGUS"):
        env_overrides({"LATINCUT_BOGUS": "1"})


@pytest.mark.parametrize(
    "entries, match",
    [
        ({"latin.bogus": "1"}, "unknown config key"),
        ({"workers": "0"}, "at least 1"),
        ({"workers": "many"}, "must be an integer"),
        ({"export.fields": "yes"}, "true or false"),
        ({"experiment": "nope"}, "must be one of"),
        ({"crack.mode": "triple"}, "must be one of"),
        ({"mesh.rect": "0,0,1"}, "four numbers"),
        ({"mesh.rect": "0,0,-1,1"}, "nonempty rectangle"),
        ({"bc.dirichlet.0.top": "1.0"}, "two numbers"),
        ({"geometry.levelset.0": "blob,1.0"}, "unknown level-set kind"),
        ({"geometry.levelset.0": "circle,1.0"}, "takes 3 numbers"),
        ({"latin.eta": "1.5"}, "eta"),
    ],
)
def test_invalid_entries_rejected(entries, match):
    with pytest.raises(ConfigError, match=match):
        build_run_config(entries)


def test_problem_vocabulary_collected_separately():
    cfg = build_run_config(
        {
            "problem.name": "custom",
            "mesh.nx": "4",
            "geometry.levelset.0": "circle,0.0,0.0,0.5",
            "bc.dirichlet.0.top": "0.0,-1.0",
        }
    )
    assert set(cfg.problem_entries) == {
        "problem.name",
        "mesh.nx",
        "geometry.levelset.0",
        "bc.dirichlet.0.top",
    }
    assert cfg.values["mesh.nx"] == 4
    assert "bc.dirichlet.0.top" not in cfg.values


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
study.monitor_iterations = 2,4
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
    # monitors union checkpoints union it_max
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
    # one solve per ladder level plus the reference; no re-solve for profiles
    assert [p.nx for p in calls] == [12, 24, 48]

    monitored = solve(calls[1], (2, 4, 6), capture_traction=True)
    iface = experiments.problem_spaces(monitored.pdef)[4][monitored.profile_pair]
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
    exemplar = problem_from_flat(parse_flat((out / "crack_problem.cfg").read_text()))
    assert exemplar.name == "crack" and exemplar.nx == 12


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
    cfg = run_cfg(
        tmp_path,
        f"experiment = {experiment}\noutput.dir = {out}\ncrack.n = 12\n"
        f"study.base_nx = 12\n{key} =\n",
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
latin.it_max = 5
""",
    )
    assert cli.main(["run", str(cfg)]) == 0
    for scheme in ("p1", "p0"):
        files = sorted(p.name for p in (out / scheme).glob("profile_*.csv"))
        assert files == ["profile_2.csv", "profile_5.csv"]


def test_run_numerical_failure_leaves_error_record(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_cfg(
        tmp_path,
        f"""
experiment = ellipse_convergence
output.dir = {out}
study.levels = 1
study.base_nx = 1
latin.it_max = 2
study.reference_it_max = 2
""",
    )
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure:")
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "EmptyDomainError"
    assert record["experiment"] == "ellipse_convergence"
    assert "covers no cells" in record["message"]
    assert (out / "resolved.cfg").exists()


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
