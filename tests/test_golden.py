"""Digests of every output the five experiments write on quick configs.

Each `tests/golden/*.cfg` is a small run of one experiment.
`tests/golden/digests.json` holds the SHA-256 of every CSV, VTK file and
`crack_problem.cfg` these runs write through `cli.main`, with the numpy and
scipy versions that produced them.  Reruns are byte-identical, so a change
in summation order, iteration arithmetic or file format shows here.  A
change that regenerates the file is changing this check, and says which
numbers moved and why.

Regenerate with `PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from latincut import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
DIGESTED = ("*.csv", "*.vtk", "crack_problem.cfg")


def run_golden(root: Path, setenv) -> dict[str, str]:
    """Run every golden config into ``root/<config name>`` and digest what
    it writes; ``setenv(name, value)`` points the output directory there."""
    digests = {}
    for cfg in sorted(GOLDEN.glob("*.cfg")):
        out = root / cfg.stem
        setenv("LATINCUT_OUTPUT_DIR", str(out))
        assert cli.main(["run", str(cfg)]) == 0, cfg.name
        for path in sorted(out.rglob("*")):
            if path.is_file() and any(path.match(p) for p in DIGESTED):
                digests[path.relative_to(root).as_posix()] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
    return digests


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith("LATINCUT_"):
            monkeypatch.delenv(name)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digests = run_golden(tmp_path, monkeypatch.setenv)
    expected = recorded["digests"]
    if digests != expected:
        lines = [
            f"outputs differ from {DIGESTS.name}: recorded with numpy "
            f"{recorded['numpy']} and scipy {recorded['scipy']}, run with numpy "
            f"{np.__version__} and scipy {scipy.__version__}"
        ]
        for path in sorted(digests.keys() | expected.keys()):
            old, new = expected.get(path), digests.get(path)
            if old != new:
                lines.append(f"  {path}: recorded {old}, now {new}")
        lines.append("new digests:")
        lines.append(json.dumps(digests, indent=2, sort_keys=True))
        raise AssertionError("\n".join(lines))


def main() -> None:
    for name in [n for n in os.environ if n.startswith("LATINCUT_")]:
        del os.environ[name]
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_golden(Path(tmp), os.environ.__setitem__)
    record = {"numpy": np.__version__, "scipy": scipy.__version__, "digests": digests}
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(digests)} digests to {DIGESTS}\n")


if __name__ == "__main__":
    main()
