"""latincut study benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one of the paper's three studies at a size that repeats in
seconds.  Every study runs through the real `latincut run` path in a fresh
process (`perfbench/study.py`) on a config file generated from the seed,
with `workers = 1` and single-threaded BLAS.  Two lanes, one per core, run
studies back to back for S seconds; every study's outputs are checked
(SHA-256 digests for seed 0, physical invariants for every seed).

--trace 0 reports end-to-end medians: study_s, setup_s, peak_rss_mb.
--trace 1 traces lane 0 only and reports the per-layer breakdown of its
lower-median study (self time per layer, exact counts) plus the tracing
overhead against the untraced lane.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  The layer
map and the reasons for each workload are in LAYERS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from pathlib import Path

import study

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STUDY = Path(study.__file__).resolve()
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 170.0  # the whole benchmark run must end well within 180 s
SETUP_PROBES = 6  # extra `latincut validate` processes per untraced run
LANES = 2  # studies run at once, one per CPU of the 2-core machine

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _uniform(rng: random.Random, lo: float, hi: float) -> str:
    return repr(round(rng.uniform(lo, hi), 4))


def ellipse_ladder(seed: int) -> dict[str, str]:
    cfg = {
        "experiment": "ellipse_convergence",
        "study.levels": "2",
        "study.base_nx": "40",
        "latin.it_max": "200",
        "export.profiles": "true",
    }
    if seed:
        rng = random.Random(seed)
        cfg["study.nu"] = _uniform(rng, 0.25, 0.35)
        cfg["latin.eta"] = _uniform(rng, 0.8, 0.9)
    return cfg


CRACK_EPS = (0.25, 1e-2, 1e-4, 1e-6, 1e-8, 1e-11)


def crack_sweep(seed: int) -> dict[str, str]:
    cfg = {"experiment": "crack_condition_sweep", "crack.n": "72"}
    if seed:
        rng = random.Random(seed)
        cfg["crack.eps_x"] = _uniform(rng, 0.3, 0.7)
        # one factor in [1, 3.5] keeps every eps inside its decade
        scale = round(rng.uniform(1.0, 3.5), 4)
        cfg["crack.eps_values"] = ",".join(f"{e * scale:.5g}" for e in CRACK_EPS)
        cfg["study.nu"] = _uniform(rng, 0.25, 0.35)
    return cfg


def p1p0_long(seed: int) -> dict[str, str]:
    cfg = {
        "experiment": "p1p0_comparison",
        "study.base_nx": "40",
        "profile.iterations": "5,27,210,3000",
        "export.fields": "true",
    }
    if seed:
        rng = random.Random(seed)
        cfg["study.nu"] = _uniform(rng, 0.25, 0.35)
        cfg["latin.eta"] = _uniform(rng, 0.8, 0.9)
    return cfg


# name -> (config generator, why it was chosen)
WORKLOADS = {
    "ellipse_ladder": (
        ellipse_ladder,
        "The headline study: large SuperLU triangular solves and mesh adjacency "
        "dominate it; it also covers the analysis module and the re-solve that "
        "runs when profiles are exported.",
    ),
    "crack_sweep": (
        crack_sweep,
        "Runs no LaTIn iteration: geometry (three level sets and a triple "
        "junction), assembly, factorization and power iterations, with all 18 "
        "sweep points on one mesh.",
    ),
    "p1p0_long": (
        p1p0_long,
        "6000 small LaTIn iterations, where per-iteration Python overhead costs "
        "about as much as SuperLU; covers the P0 path and VTK output.",
    ),
}

# SHA-256 of every CSV the seed-0 config writes (the byte-identical contract).
SEED0_DIGESTS = {
    "crack_sweep": {
        "condition.csv": "854677640147c23665cb99954460aee0f731067a143de6d87cc02a6ddb49abcb"
    },
    "ellipse_ladder": {
        "convergence.csv": "661733976429766e08d0cbd3517b4ebc9d6841c17f9324030843f2e0ebe430cb",
        "iterations.csv": "37d76e641e34ee3e379754ac2cc15e1d5424f7bcd8f764ba45dc5b18592febeb",
        "profile_10.csv": "d512db5b89ce62f1dc61231594521baefb2212693f51789f79482523d3f0cd10",
        "profile_100.csv": "15e2f7c68beed38b8f6dfa393769e2fcb32f7b424a3fe2761e6984479789bf27",
        "profile_20.csv": "81977766970d3b51aee2c3664a56487889220dbcaff17ef1eb4b65e6a8a5ebe4",
        "profile_200.csv": "0f65dd8f60dc485d4fcc046f31b14dd7842b90c6dd19801a6a0925480665d7f7",
        "profile_30.csv": "66fb5de99c56577f585521640c25cb44797603809f0308128fb1286e494576be",
        "profile_50.csv": "a70336ddbede74bc6e396195173b40e12b3f893e9a5be433da27fe741688a9d7"
    },
    "p1p0_long": {
        "p0/profile_210.csv": "5f2aaf5df0cee359cee7577032619a1fa8fa65d37813890c9ee3c0c9579e03fe",
        "p0/profile_27.csv": "d6f48306cc0d3a9257b568c1ad9c1c6b14125e74a764a39548a8e7af074c1b58",
        "p0/profile_3000.csv": "dece53ffba826d17e35ce1e4eed0b76401b975de7f9218e8725459f3508164ef",
        "p0/profile_5.csv": "aeb599976a8dc5310c48b3c5889d0cc0864d0b4f20fded1e44516c4d28482ccc",
        "p1/profile_210.csv": "4e26dd8da6b8fb9541164701c268edb4e25ab5a794d8324617901de2845b3ef0",
        "p1/profile_27.csv": "696963512b6d273ff4c4c2181dc046878fdd0bd97dbc2c040398b2c2867cca75",
        "p1/profile_3000.csv": "2ea76982a32ecaf4a2d0a8d739f6ce06f4297bfe5286d2fc5053621f1dc3b3bd",
        "p1/profile_5.csv": "b428eb452736fc2e7f62464e3fcf9c318ca44ed5f3cc69892d204a98ca3751d7"
    }
}


def render_config(values: dict[str, str]) -> str:
    full = {"output.dir": "out", "workers": "1", **values}
    return "".join(f"{k} = {full[k]}\n" for k in sorted(full))


def _csv_rows(path: Path) -> list[list[float]]:
    lines = path.read_text(encoding="ascii").splitlines()[1:]
    return [[float(x) for x in line.split(",")] for line in lines]


def _total_variation(values: list[float]) -> float:
    return sum(abs(b - a) for a, b in zip(values, values[1:]))


def check_invariants(workload: str, cfg: dict[str, str], out: Path) -> list[str]:
    """Physical checks the tests assert, applied to this run's CSVs."""
    problems = []
    if workload == "ellipse_ladder":
        rows = _csv_rows(out / "convergence.csv")
        if len(rows) != int(cfg["study.levels"]):
            problems.append(f"convergence.csv has {len(rows)} rows")
        errors = [v for row in rows for v in row[1:3]]
        if not all(math.isfinite(e) and e > 0.0 for e in errors):
            problems.append("errors are not finite and positive")
        rate = rows[-1][3]
        if not 0.85 <= rate <= 1.25:
            problems.append(f"energy rate {rate!r} is not near 1")
        if not list(out.glob("profile_*.csv")):
            problems.append("no traction profiles written")
    elif workload == "crack_sweep":
        rows = _csv_rows(out / "condition.csv")
        if len(rows) != 18:
            problems.append(f"condition.csv has {len(rows)} rows, expected 18")
        for eps, gamma_g, kappa in rows:
            if not (math.isfinite(kappa) and kappa > 0.0):
                problems.append(f"kappa {kappa!r} at eps={eps!r}, gamma_g={gamma_g!r}")
    elif workload == "p1p0_long":
        last = max(int(i) for i in cfg["profile.iterations"].split(","))
        tv = {
            scheme: _total_variation(
                [r[1] for r in _csv_rows(out / scheme / f"profile_{last}.csv")]
            )
            for scheme in ("p1", "p0")
        }
        if not tv["p1"] < tv["p0"]:
            problems.append(f"P1 traction TV {tv['p1']!r} not below P0 {tv['p0']!r}")
        if not list((out / "p1" / "fields").glob("*.vtk")):
            problems.append("no VTK fields written")
    return problems


def csv_digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*.csv"))
    }


def child_env() -> dict[str, str]:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("LATINCUT_") and k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(command: str, cfg_path: Path, cwd: Path, trace: bool, deadline: float) -> dict:
    """One fresh interpreter running `latincut <command> <cfg_path>`."""
    result_path = cwd / "result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(STUDY), command, str(cfg_path), str(result_path)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        argv + [repr(t_spawn)] + (["--trace"] if trace else []),
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timed out"}
    if not result_path.is_file():
        return {"error": f"exit {proc.returncode}, no result: {err.strip()[-400:]}"}
    record = json.loads(result_path.read_text(encoding="utf-8"))
    if proc.returncode != 0 or record["exit_code"] != 0:
        record["error"] = f"exit {proc.returncode}: {err.strip()[-400:]}"
    elif not Path(record["package"]).resolve().is_relative_to(ROOT / "src"):
        record["error"] = f"imported latincut from {record['package']}"
    return record


def run_study(workload: str, seed: int, cwd: Path, trace: bool, deadline: float) -> dict:
    """Generate the config, run the study, check its outputs."""
    cfg = WORKLOADS[workload][0](seed)
    cfg_path = cwd / "study.cfg"
    cfg_path.write_text(render_config(cfg), encoding="ascii")
    out = cwd / "out"
    shutil.rmtree(out, ignore_errors=True)
    record = spawn("run", cfg_path, cwd, trace, deadline)
    if "error" not in record:
        try:
            problems = check_invariants(workload, cfg, out)
        except (OSError, ValueError, IndexError) as err:
            problems = [f"unreadable outputs: {err}"]
        record["digests"] = csv_digests(out)
        if seed == 0 and record["digests"] != SEED0_DIGESTS.get(workload):
            problems.append("seed-0 CSV digests differ from the recorded ones")
        if problems:
            record["error"] = "; ".join(problems)
        record["bytes_written"] = sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file()
        )
    shutil.rmtree(out, ignore_errors=True)
    return record


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: span duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - inner
    return out


# config.parse happens before the study; cli.run_experiment is the study
SPAN_LAYERS = tuple(
    name for name, _ in study.SPANS if name not in ("config.parse", "cli.run_experiment")
)
COUNTS = (
    "mesh.meshes_built", "cutgeom.decompose.calls", "assembly.dofs",
    "assembly.nnz", "linalg.factorize.calls", "linalg.factor_fill",
    "linalg.solve.calls", "linalg.matvec.calls", "latin.iterations",
    "experiments.problem_spaces.calls",
)


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced study; self times sum to trace.study_s."""
    selfs = self_times(record["spans"])
    counts = record["counts"]
    study = next(end - start for name, start, end, _ in record["spans"]
                 if name == "cli.run_experiment")
    m = {f"{name}.self_s": selfs.get(name, 0.0) for name in SPAN_LAYERS}
    m["untraced.self_s"] = selfs["cli.run_experiment"]
    m["config.parse.self_s"] = selfs["config.parse"]
    for name in COUNTS:
        m[name] = counts.get(name, 0)
    m["mesh.rebuild_ratio"] = (
        counts["mesh.meshes_built"] / counts["mesh.meshes_distinct"]
    )
    solves = counts.get("linalg.solve.calls", 0)
    m["linalg.solve.mean_ms"] = 1e3 * selfs.get("linalg.solve", 0.0) / solves if solves else 0.0
    jobs = counts.get("experiments.jobs", 0)
    m["experiments.solves_per_job"] = counts.get("experiments.solves", 0) / jobs if jobs else 0.0
    m["io.bytes_written"] = record["bytes_written"]
    m["trace.study_s"] = study
    return m


UNITS = {"self_s": "s", "study_s": "s", "setup_s": "s", "overhead_s": "s",
         "peak_rss_mb": "MB", "mean_ms": "ms", "bytes_written": "B",
         "rebuild_ratio": "ratio", "solves_per_job": "ratio"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "count")


def machine_block() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "threads": THREAD_ENV,
    }


def lane(workload: str, seed: int, trace: bool, probes: int, cwd: Path,
         t_stop: float, deadline: float) -> tuple[list[dict], list[dict]]:
    """Studies back to back, each started only if it should end by t_stop,
    then `probes` set-up-only processes."""
    cwd.mkdir()
    studies: list[dict] = []
    while True:
        t0 = time.monotonic()
        studies.append(run_study(workload, seed, cwd, trace, deadline))
        now = time.monotonic()
        if len(studies) >= 3 and all("error" in r for r in studies[-3:]):
            break
        if now + (now - t0) > t_stop or now > deadline - 30.0:
            break
    cfg_path = cwd / "study.cfg"
    return studies, [spawn("validate", cfg_path, cwd, False, deadline) for _ in range(probes)]


def measure(workload: str, seed: int, seconds: float, trace: bool, cwd: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    cfg_path = cwd / "probe.cfg"
    cfg_path.write_text(render_config(WORKLOADS[workload][0](seed)), encoding="ascii")
    # warm-up: the first interpreter in a fresh checkout compiles bytecode
    if "error" in spawn("validate", cfg_path, cwd, False, deadline):
        raise SystemExit("latincut cannot be imported or the config is invalid")
    # LANES studies run at once.  With --trace lane 0 is traced and the
    # others are not, so the overhead is measured over the same moments.
    t_stop = time.monotonic() + seconds
    probes = 0 if trace else SETUP_PROBES // LANES
    with ThreadPoolExecutor(LANES) as pool:
        futures = [
            pool.submit(lane, workload, seed, trace and k == 0, probes,
                        cwd / f"lane{k}", t_stop, deadline)
            for k in range(LANES)
        ]
        lanes = [f.result() for f in futures]
    traced = lanes[0][0] if trace else []
    studies = [r for studies, _ in (lanes[1:] if trace else lanes) for r in studies]
    everything = traced + studies + [r for _, done in lanes for r in done]
    errors = [r["error"] for r in everything if "error" in r]
    ok = [r for r in everything if "error" not in r]
    traced = [r for r in traced if "error" not in r]
    if traced and any(r["counts"] != traced[0]["counts"] for r in traced):
        errors.append("per-layer counts differ between traced runs of one seed")
    return {
        "setups": [r["setup_s"] for r in ok],
        "studies": [r for r in studies if "error" not in r],
        "traced": traced,
        "attempted": len(everything),
        "failed": len(errors),
        "errors": errors,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "latincut" / "cli.py").is_file():
        sys.stderr.write(f"no latincut sources under {ROOT / 'src'}\n")
        return 2

    WORK.mkdir(exist_ok=True)
    cwd = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), cwd)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for err in res["errors"]:
        sys.stderr.write(f"failed run: {err}\n")
    studies, traced = res["studies"], res["traced"]
    if not studies or (args.trace and not traced):
        sys.stderr.write("no study completed; no result\n")
        return 1
    study_s = [r["study_s"] for r in studies]
    if args.trace:
        # breakdown of one real study (so its self times sum exactly), the
        # lower median; the overhead compares the medians of both lanes
        mid = sorted(traced, key=lambda r: r["study_s"])[(len(traced) - 1) // 2]
        metrics = layer_metrics(mid)
        metrics["trace.overhead_s"] = (
            statistics.median(r["study_s"] for r in traced) - statistics.median(study_s)
        )
    else:
        metrics = {
            "study_s": statistics.median(study_s),
            "setup_s": statistics.median(res["setups"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in studies),
        }
    attempted, failed = res["attempted"], res["failed"]
    print("workload:", args.workload, "seed:", args.seed,
          "config:", json.dumps(WORKLOADS[args.workload][0](args.seed)))
    print("machine:", json.dumps(machine_block()))
    print(f"runs: {len(studies)} untraced, {len(traced)} traced; study_s samples:",
          " ".join(f"{s:.3f}" for s in study_s))
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':36s} {failed / attempted:14.6g} 1")
    if args.trace:
        share = sorted(((m["value"], k) for k, m in metrics.items() if k.endswith(".self_s")
                        and k != "config.parse.self_s"), reverse=True)
        total = metrics["trace.study_s"]["value"]
        print("  shares of traced study_s:",
              ", ".join(f"{k[:-7]} {100 * v / total:.1f}%" for v, k in share[:8]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
