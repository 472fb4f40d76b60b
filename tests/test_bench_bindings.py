"""Every function the benchmark's tracer wraps still exists where it looks.

`perfbench/study.py --trace` rebinds each (module, attribute) site in its
SPANS and COUNTED tables; a site renamed or deleted in `latincut` breaks the
traced run only when it starts.  The tables are read from the file without
importing it as a module, so nothing under `perfbench/` is written.  A
traced solve checks that the LaTIn spans and counts land where the
benchmark's per-layer breakdown expects them, and traced runs that the
geometry a run builds, its config check's included, falls inside the study.
"""

from pathlib import Path
from types import ModuleType

import pytest

STUDY = Path(__file__).resolve().parents[1] / "perfbench" / "study.py"


def load_study() -> ModuleType:
    module = ModuleType("perfbench_study")
    module.__file__ = str(STUDY)
    exec(compile(STUDY.read_text(encoding="utf-8"), str(STUDY), "exec"), module.__dict__)
    return module


study = load_study()
SPAN_SITES = [(name, path, attr) for name, sites in study.SPANS for path, attr in sites]


@pytest.mark.parametrize("name, path, attr", SPAN_SITES)
def test_span_site_resolves(name, path, attr):
    # install() reads owner.__dict__, so an inherited or re-exported name
    # does not count
    raw = study._owner(path).__dict__.get(attr)
    assert raw is not None, f"{name}: latincut.{path} defines no {attr}"
    assert callable(getattr(raw, "__func__", raw)), f"{name}: {path}.{attr}"


@pytest.mark.parametrize("name, path, attr", study.COUNTED)
def test_counted_site_resolves(name, path, attr):
    assert callable(getattr(study._owner(path), attr, None)), f"{name}: {path}.{attr}"


def install_tracer(monkeypatch):
    # monkeypatch restores every wrapped site when the test ends
    for _, path, attr in SPAN_SITES + list(study.COUNTED):
        owner = study._owner(path)
        monkeypatch.setattr(owner, attr, owner.__dict__[attr])
    tracer = study.Tracer()
    tracer.install()
    return tracer


def ancestors(spans, index):
    """Names of the spans that enclose span ``index``, innermost first."""
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def test_tracer_installs_on_every_site(monkeypatch):
    install_tracer(monkeypatch)


@pytest.mark.parametrize("scheme, solves", [("p1", 9), ("p0", 6)])
def test_tracer_attributes_iteration_work(monkeypatch, scheme, solves):
    # per iteration: one solve per subdomain, plus the P1 interface projection
    tracer = install_tracer(monkeypatch)
    from latincut import experiments
    from latincut.latin import LatinParams

    params = LatinParams(it_max=3, interface_scheme=scheme)
    experiments.solve_problem(experiments.ellipse_case(base_nx=16, params=params))
    record = tracer.record()
    assert record["counts"]["latin.iterations"] == 3
    assert record["counts"]["linalg.solve.calls"] == solves
    spans = record["spans"]
    stages = {
        "latin.linear_stage", "latin.postprocess", "latin.local_stage",
        "latin.projection", "latin.indicator", "latin.relax_snapshot",
    }
    latin = [i for i, span in enumerate(spans) if span[0].startswith("latin.")]
    assert {spans[i][0] for i in latin} == stages | {"latin.build_state", "latin.iterate"}
    inside = [i for i in latin if spans[i][0] in stages]
    assert [spans[i][0] for i in inside if "latin.iterate" not in ancestors(spans, i)] == []


@pytest.mark.parametrize(
    "body",
    [
        "experiment = ellipse_convergence\nstudy.levels = 1\nstudy.base_nx = 8\n"
        "latin.it_max = 2\nstudy.reference_it_max = 2\n",
        "experiment = crack_condition_sweep\ncrack.n = 6\ncrack.eps_values = 0.25,1e-8\n"
        "crack.gamma_g_values = 0.1\n",
    ],
)
def test_geometry_is_built_inside_the_study(monkeypatch, tmp_path, body):
    # the benchmark counts parsing as set-up and run_experiment as the
    # study, so the geometry the config check builds belongs to the study
    tracer = install_tracer(monkeypatch)
    from latincut import cli

    path = tmp_path / "run.cfg"
    path.write_text(f"output.dir = {tmp_path / 'out'}\n{body}")
    assert cli.main(["run", str(path)]) == 0
    spans = tracer.record()["spans"]
    geometry = [i for i, span in enumerate(spans)
                if span[0] in ("mesh.build", "cutgeom.decompose")]
    assert {spans[i][0] for i in geometry} == {"mesh.build", "cutgeom.decompose"}
    for i in geometry:
        outer = set(ancestors(spans, i))
        assert "cli.run_experiment" in outer and "config.parse" not in outer
