"""Self-test of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs each workload twice with one seed, traced, and requires identical
per-layer counts and byte-identical CSVs.  Takes about a minute.
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_same_counts_and_csvs(workload, tmp_path):
    records = []
    for k in range(2):
        cwd = tmp_path / str(k)
        cwd.mkdir()
        record = run.run_study(workload, 1, cwd, True, time.monotonic() + 170.0)
        assert "error" not in record, record.get("error")
        records.append(record)
    first, second = records
    assert first["counts"] == second["counts"]
    assert first["digests"] and first["digests"] == second["digests"]
    assert first["bytes_written"] == second["bytes_written"]
    layers = run.layer_metrics(first)
    selfs = sum(v for k, v in layers.items()
                if k.endswith(".self_s") and k != "config.parse.self_s")
    assert selfs == pytest.approx(layers["trace.study_s"], rel=1e-9)


def test_self_times_subtract_direct_children():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["inner", 5.0, 6.0, 0],
    ]
    assert run.self_times(spans) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name)
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"),
         "--workload", "crack_sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
