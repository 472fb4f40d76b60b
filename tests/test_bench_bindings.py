"""Every function the benchmark's tracer wraps still exists where it looks.

`perfbench/study.py --trace` rebinds each (module, attribute) site in its
SPANS and COUNTED tables; a site renamed or deleted in `latincut` breaks the
traced run only when it starts.  The tables are read from the file without
importing it as a module, so nothing under `perfbench/` is written.
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


def test_tracer_installs_on_every_site(monkeypatch):
    # monkeypatch restores every wrapped site when the test ends
    for _, path, attr in SPAN_SITES + list(study.COUNTED):
        owner = study._owner(path)
        monkeypatch.setattr(owner, attr, owner.__dict__[attr])
    study.Tracer().install()
