"""Run one `latincut run` or `latincut validate` in this process and record its cost.

usage: python3 study.py COMMAND CONFIG RESULT_JSON SPAWN_T [--trace]

COMMAND is `run` or `validate`.  SPAWN_T is the parent's `time.monotonic()`
taken just before it started this process; CLOCK_MONOTONIC is system-wide,
so `setup_s` counts interpreter start, `import latincut` and config parsing.

The program is driven through `latincut.cli.main`, the same path as the
`latincut` console script.  Only two names in `latincut.cli` are rebound, to
take timestamps: `_load` (file to resolved RunConfig) and `run_experiment`
(the study).  With --trace, `Tracer` also wraps the public functions of every
module where their callers look them up, keeps one span per call in memory
(name, start, end, parent index) and writes them all into RESULT_JSON when
the run ends.  Nothing inside `src/latincut` is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

# (span name, [(module, attribute), ...]).  A function imported by name into
# several modules is wrapped in each, so every call site sees the wrapper.
SPANS = (
    ("mesh.build", [("experiments", "build_structured_mesh")]),
    ("mesh.face_adjacency", [("mesh", "build_face_adjacency")]),
    ("levelset.interpolate", [("experiments", "interpolate_levelset")]),
    (
        "cutgeom.decompose",
        [("experiments", "decompose_mesh"), ("latin", "decompose_mesh"),
         ("cutgeom", "decompose_mesh")],
    ),
    ("cutgeom.domain", [("experiments", "build_cut_domain"), ("latin", "build_cut_domain")]),
    ("cutgeom.interface", [("experiments", "build_interface"), ("latin", "build_interface")]),
    (
        "assembly.assemble",
        [("assembly", name) for name in (
            "build_space", "assemble_elasticity", "assemble_ghost_penalty",
            "assemble_latin_augmentation", "assemble_nitsche_matrix",
            "assemble_nitsche_rhs", "assemble_body_force",
            "assemble_boundary_traction", "interface_eval_operator",
            "interface_mass", "gradient_jump_matrix", "scatter_band_to_space",
            "dirichlet_constraints",
        )]
        + [("latin", "build_space"), ("latin", "build_subdomain_system"),
           ("latin", "build_interface_operators"),
           ("linalg.SparseSym", "__add__"), ("linalg.SparseSym", "submatrix"),
           ("linalg.SparseSym", "finalize")],
    ),
    (
        "linalg.factorize",
        [("latin", "factorize"), ("linalg", "factorize"),
         ("latin", "factorize_dense"), ("linalg", "factorize_dense")],
    ),
    ("linalg.solve", [("linalg.SpdFactor", "solve"), ("linalg.DenseFactor", "solve")]),
    ("linalg.condition", [("experiments", "condition_number")]),
    ("latin.build_state", [("experiments", "build_state")]),
    ("latin.iterate", [("experiments", "iterate")]),
    ("latin.linear_stage", [("latin", "linear_stage")]),
    ("latin.postprocess", [("latin", "postprocess_interface")]),
    ("latin.local_stage", [("latin", "local_stage")]),
    ("latin.projection", [("latin.P1Scheme", "project_qp"), ("latin.P0Scheme", "project_qp")]),
    ("latin.indicator", [("latin", "error_indicator")]),
    ("latin.relax_snapshot", [("latin", "relax"), ("latin", "_snapshot")]),
    ("analysis.interpolate", [("experiments", "interpolate_to_fine")]),
    ("analysis.norms", [("analysis", "h1_error"), ("analysis", "energy_error")]),
    ("analysis.profile", [("analysis", "traction_profile")]),
    ("cli.write_csv", [("cli", "write_csv")]),
    ("vtkout.write", [("vtkout", "write_subdomain_vtk")]),
    ("config.parse", [("cli", "parse_config")]),
    ("cli.run_experiment", [("cli", "run_experiment")]),
)

# Calls counted without a span: too many and too short to time one by one,
# or pure bookkeeping around spans that already cover the work.
COUNTED = (
    ("linalg.matvec.calls", "linalg.SparseSym", "matvec"),
    ("experiments.solves", "experiments", "solve_problem"),
    ("experiments.jobs", "experiments", "_solve_job"),
    ("experiments.problem_spaces.calls", "experiments", "problem_spaces"),
)


def _owner(path: str):
    """`latin` -> module latincut.latin; `linalg.SpdFactor` -> that class."""
    mod, _, cls = path.partition(".")
    obj = importlib.import_module(f"latincut.{mod}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans as [name, start, end, parent index]; counts by name."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.meshes: set = set()
        self._stack: list[int] = []

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _observe(self, name: str, args, result) -> None:
        if name == "linalg.factorize":
            a = args[0]
            self._count("linalg.factorize.calls")
            lu = getattr(result, "_lu", None)
            if lu is not None:
                self._count("linalg.factor_fill", int(lu.L.nnz + lu.U.nnz))
            if hasattr(a, "csr"):
                self._count("assembly.dofs", int(a.n))
                self._count("assembly.nnz", int(a.csr.nnz))
        elif name == "linalg.solve":
            self._count("linalg.solve.calls")
        elif name == "mesh.build":
            self._count("mesh.meshes_built")
            self.meshes.add((tuple(args[0]), int(args[1]), int(args[2])))
        elif name == "cutgeom.decompose":
            self._count("cutgeom.decompose.calls")
        elif name == "latin.linear_stage":
            self._count("latin.iterations")

    def span(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, self._observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            observe(name, args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for name, sites in SPANS:
            for path, attr in sites:
                owner = _owner(path)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.span(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.span(name, raw))
        for name, path, attr in COUNTED:
            owner = _owner(path)
            setattr(owner, attr, self.counter(name, getattr(owner, attr)))

    def record(self) -> dict:
        counts = dict(self.counts)
        counts["mesh.meshes_distinct"] = len(self.meshes)
        return {"spans": self.spans, "counts": counts}


def main(argv: list[str]) -> int:
    trace = "--trace" in argv
    argv = [a for a in argv if a != "--trace"]
    if len(argv) != 4 or argv[0] not in ("run", "validate"):
        sys.stderr.write(__doc__)
        return 2
    command, config, result_path, spawn_t = argv[0], argv[1], argv[2], float(argv[3])

    import latincut
    from latincut import cli

    marks: dict[str, float] = {}
    load, run_experiment = cli._load, cli.run_experiment

    def timed_load(path):
        cfg = load(path)
        marks["setup_s"] = time.monotonic() - spawn_t
        return cfg

    def timed_run(cfg, outdir):
        t0 = time.perf_counter()
        run_experiment(cfg, outdir)
        marks["study_s"] = time.perf_counter() - t0

    cli._load = timed_load
    cli.run_experiment = timed_run
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    code = cli.main([command, config])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "exit_code": code,
        "package": latincut.__file__,
        "peak_rss_mb": peak_kib / 1024.0,
        **marks,
    }
    if tracer is not None:
        record.update(tracer.record())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
