"""Case builders, flat serialization round trips, and the study drivers.

Study-level physics checks run on deliberately small meshes; the full-size
runs live in the acceptance suite.
"""

import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from latincut import experiments, latin, linalg
from latincut.analysis import fit_rate
from latincut.config import parse_flat, render_flat
from latincut.errors import ConfigError
from latincut.cli import EXPERIMENTS
from latincut.experiments import (
    ProblemDef,
    KappaMemo,
    build_problem,
    crack_problem,
    ellipse_case,
    grid_spacing,
    problem_from_flat,
    problem_spaces,
    problem_to_flat,
    run_condition_scaling,
    run_condition_sweep,
    run_convergence_study,
    run_p1p0_comparison,
    solve_problem,
    subdomain_operators,
    two_inclusions_case,
)
from latincut.latin import LatinParams, build_state
from latincut.levelset import Ellipse
from latincut.linalg import SparseSym, condition_number, factorize, inverse_estimate


# --- the all-subdomain oracle ---------------------------------------------

def linear_stage_condition_numbers(pdef: ProblemDef) -> dict[int, float]:
    """The full `condition_number` of every subdomain's linear-stage operator,
    with no memo and no selection."""
    (operators,) = subdomain_operators(pdef, (pdef.params.gamma_g,))
    return {i: condition_number(a) for i, a in enumerate(operators)}


def crack_condition_case(
    eps_x: float, eps_y: float, n: int, gamma_g: float, nu: float = 0.3
) -> tuple[ProblemDef, float]:
    """Crack problem plus the condition number of its worst subproblem."""
    pdef = crack_problem(eps_x, eps_y, n, gamma_g, nu)
    return pdef, max(linear_stage_condition_numbers(pdef).values())


def storage(a) -> tuple[bytes, bytes, bytes]:
    return a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes()


# --- case builders ----------------------------------------------------------

def test_ellipse_case_defaults():
    pdef = ellipse_case()
    assert pdef.name == "ellipse"
    assert pdef.rect == (-1.2, -1.2, 1.2, 1.2)
    assert pdef.nx == pdef.ny == 40
    assert pdef.levelsets == (("ellipse", 1.0, 0.5, 0.654545, 0.0, 0.0),)
    assert pdef.e_moduli == (1.0, 1.0)
    assert pdef.nu == 0.3
    # canonical sort puts bottom before top
    assert pdef.dirichlet == ((0, "bottom", 0.0, 0.0), (0, "top", 0.0, -1.0))
    assert pdef.neumann == ()
    assert grid_spacing(pdef) == pytest.approx(0.06, rel=1e-15)
    assert ellipse_case(2).nx == 160
    with pytest.raises(ConfigError):
        ellipse_case(-1)


def test_two_inclusions_case_topology():
    pdef = two_inclusions_case(contrast=5.0, base_nx=16)
    assert pdef.e_moduli == (1.0, 5.0, 5.0)
    assert pdef.levelsets == (("circle", -0.25, 0.0, 0.5), ("circle", 0.25, 0.0, 0.5))
    _, deco, domains, spaces, interfaces = problem_spaces(pdef)
    assert deco.n_subdomains == 3
    assert set(deco.pairs) == {(0, 1), (0, 2), (1, 2)}
    assert len(domains) == len(spaces) == 3
    assert sorted(interfaces) == deco.pairs


def test_crack_problem_geometry():
    eps_x = eps_y = 0.25
    n = 12
    pdef = crack_problem(eps_x, eps_y, n, gamma_g=0.1)
    assert pdef.params.gamma_g == 0.1
    assert len(pdef.dirichlet) == 8  # top and bottom data on all four pieces
    _, deco, domains, _, _ = problem_spaces(pdef)
    assert deco.n_subdomains == 4
    assert set(deco.pairs) == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)}
    h = 1.0 / n
    areas = [d.qweights.sum() for d in domains]
    # vertical cuts sit at 1/3 + eps_x h and 2/3 + eps_x h
    assert areas[2] == pytest.approx(1.0 / 3.0 + eps_x * h, rel=1e-12)
    assert areas[3] == pytest.approx(1.0 / 3.0 - eps_x * h, rel=1e-12)
    assert sum(areas) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ConfigError):
        crack_problem(eps_x, eps_y, 13, gamma_g=0.1)


def test_problem_def_rejects_bad_boundary_rows():
    kw = dict(
        name="x",
        rect=(0.0, 0.0, 1.0, 1.0),
        nx=4,
        ny=4,
        levelsets=(("halfplane", 0.0, -1.0, 0.5),),
        e_moduli=(1.0, 1.0),
        nu=0.3,
        params=LatinParams(),
    )
    with pytest.raises(ConfigError):
        ProblemDef(**kw, dirichlet=((0, "north", 0.0, 0.0),))
    with pytest.raises(ConfigError):
        ProblemDef(**kw, neumann=((2, "top", 0.0, 0.0),))
    pdef = ProblemDef(**kw, dirichlet=((0, "top", 0.0, -1.0), (0, "bottom", 0.0, 0.0)))
    assert pdef.dirichlet[0][1] == "bottom"


def test_level_set_entries_validated_at_build():
    with pytest.raises(ConfigError):
        build_problem(replace(ellipse_case(), levelsets=(("blob", 1.0),)))
    with pytest.raises(ConfigError):
        build_problem(replace(ellipse_case(), levelsets=(("circle", 0.0, 0.0),)))


# --- serialization -----------------------------------------------------------

def round_trip_cases():
    custom = LatinParams(
        eta=0.8, it_max=77, quad_points_per_segment=4, interface_scheme="p0"
    )
    return [
        ellipse_case(1, nu=1.0 / 3.0),
        ellipse_case(0, params=custom),
        two_inclusions_case(contrast=2.5, base_nx=16),
        crack_problem(1e-4, 1e-8, 24, gamma_g=1e-3),
        replace(two_inclusions_case(base_nx=16), grouping=(0, 1, 1), name="merged"),
    ]


@pytest.mark.parametrize("pdef", round_trip_cases(), ids=lambda p: p.name)
def test_flat_round_trip_is_bit_exact(pdef):
    flat = problem_to_flat(pdef)
    assert problem_from_flat(flat) == pdef
    assert problem_to_flat(problem_from_flat(flat)) == flat
    # and through the text format used on disk
    assert problem_from_flat(parse_flat(render_flat(flat))) == pdef


def setting(key, value, match):
    """A mutation that sets ``key = value``; the error must contain ``match``."""
    mutate = lambda flat: flat.__setitem__(key, value)  # noqa: E731
    mutate.match = match
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda f: f.pop("latin.eta"),
        lambda f: f.pop("geometry.levelset.0"),
        setting("mesh.rect", "0,0,1", "four numbers"),
        setting("bc.dirichlet.0.top", "1.0", "two numbers"),
        setting("mesh.rect", "0,0,-1,1", "nonempty rectangle"),
        setting("geometry.levelset.0", "blob,1.0", "unknown level-set kind"),
        setting("geometry.levelset.0", "circle,1.0", "takes 3 parameters"),
        setting("geometry.levelset.0", "circle,abc,0,1", "geometry.levelset.0 must be a number"),
        setting("latin.it_max", "many", "latin.it_max must be an integer"),
        setting("latin.k_plus", "2.0", "require k_plus == k_minus"),
        setting("mesh.nx", "abc", "mesh.nx must be an integer"),
        setting("mesh.ny", "0", "at least 1"),
        setting("material.nu", "x", "material.nu must be a number"),
        setting("geometry.grouping", "0,0.5", "geometry.grouping must be an integer"),
        # keys problem_to_flat cannot write: a typo, a gap, an unknown key
        setting("bc.dirchlet.0.left", "0.0,0.0", "unknown problem-definition key"),
        setting("geometry.levelset.2", "circle,0,0,1", "unknown problem-definition key"),
        setting("mesh.bogus", "1", "unknown problem-definition key"),
        setting("bc.neumann.01.top", "0.0,0.0", "unknown problem-definition key"),
        setting("bc.neumann.x.top", "0.0,0.0", "unknown problem-definition key"),
        setting("bc.neumann.0.middle", "0.0,0.0", "unknown boundary side"),
        # non-finite numbers, each named by its key
        setting("material.e", "nan,1.0", "material.e must be finite"),
        setting("material.e", "inf,1.0", "material.e must be finite"),
        setting("bc.dirichlet.0.top", "nan,-1.0", "bc.dirichlet.0.top must be finite"),
        setting("material.nu", "nan", "material.nu must be finite"),
        setting("mesh.rect", "-1.2,-1.2,nan,1.2", "mesh.rect must be finite"),
    ],
)
def test_problem_from_flat_rejects_broken_input(mutate):
    flat = problem_to_flat(ellipse_case())
    mutate(flat)
    with pytest.raises(ConfigError, match=getattr(mutate, "match", None)):
        problem_from_flat(flat)


def test_problem_from_flat_reads_the_legacy_k_pair():
    pdef = crack_problem(0.25, 0.25, 12, 0.1, params=LatinParams(k=2.0))
    flat = problem_to_flat(pdef)
    k = flat.pop("latin.k")
    assert problem_from_flat({**flat, "latin.k_plus": k, "latin.k_minus": k}) == pdef
    with pytest.raises(ConfigError, match="require k_plus == k_minus"):
        problem_from_flat({**flat, "latin.k_plus": k, "latin.k_minus": "1.0"})


def test_problem_from_flat_ignores_the_legacy_alpha():
    # older files carry the penalty of a weak-Dirichlet path no problem used
    pdef = crack_problem(0.25, 0.25, 12, 0.1)
    assert problem_from_flat({**problem_to_flat(pdef), "latin.alpha": "10.0"}) == pdef


def test_build_problem_collects_boundary_data():
    problem = build_problem(ellipse_case())
    assert [m.e for m in problem.materials] == [1.0, 1.0]
    assert problem.dirichlet == {0: {"bottom": (0.0, 0.0), "top": (0.0, -1.0)}}
    assert problem.neumann == {}
    assert problem.mesh.structured.nx == 40


# --- single solves ------------------------------------------------------------

def test_solve_problem_snapshots_and_profile_pair():
    pdef = ellipse_case(0, base_nx=12, params=LatinParams(it_max=8))
    res = solve_problem(pdef, monitor_iterations=(5, 3), capture_traction=True)
    assert res.h_grid == pytest.approx(0.2, rel=1e-15)
    assert sorted(res.checkpoint_u) == [3, 5]
    assert sorted(res.checkpoint_traction) == [3, 5]
    assert res.profile_pair == (0, 1)
    assert len(res.history) == 8 and res.history[-1].it == 8
    assert len(res.u) == 2
    nq = problem_spaces(pdef)[4][(0, 1)].segments.qcells.size
    assert res.checkpoint_traction[3].shape == (nq, 2)
    assert not np.array_equal(res.checkpoint_u[3][0], res.checkpoint_u[5][0])


def test_interface_quadrature_sits_on_the_ellipse():
    pdef = ellipse_case(0, base_nx=12)
    iface = problem_spaces(pdef)[4][(0, 1)]
    phi = Ellipse(1.0, 0.5, 0.654545).evaluate(iface.segments.qpoints)
    assert np.max(np.abs(phi)) < grid_spacing(pdef)


def test_linear_stage_operators_are_spd():
    kappas = linear_stage_condition_numbers(ellipse_case(0, base_nx=12))
    assert sorted(kappas) == [0, 1]
    assert all(1.0 < k < 1e12 and math.isfinite(k) for k in kappas.values())


@pytest.mark.parametrize(
    "pdef",
    [crack_problem(0.25, 1e-8, 12, 0.1), two_inclusions_case(base_nx=16)],
    ids=lambda p: p.name,
)
def test_condition_numbers_describe_the_factorized_operators(pdef, monkeypatch):
    # subdomains touching two or more interfaces catch any difference in
    # how the condition path and the solver sum the augmentation terms
    factorized = {}  # id of each factor -> the matrix it factors

    def capture(a):
        factor = factorize(a)
        factorized[id(factor)] = storage(a)
        return factor

    monkeypatch.setattr(latin, "factorize", capture)
    state = build_state(build_problem(pdef), pdef.params)
    solved = [factorized[id(s.factor)] for s in state.systems]
    # the matrices the sweep itself estimates, captured where it estimates them
    estimated = []

    def recording(a, *args, **kwargs):
        estimated.append(storage(a))
        return inverse_estimate(a, *args, **kwargs)

    monkeypatch.setattr(experiments, "inverse_estimate", recording)
    (operators,) = subdomain_operators(pdef, (pdef.params.gamma_g,))
    KappaMemo().worst(operators)
    assert [storage(a) for a in operators] == solved
    assert set(estimated) == set(solved)


# --- study drivers -------------------------------------------------------------

def small_study(workers=1):
    return run_convergence_study(
        case="ellipse",
        levels=2,
        base_nx=12,
        params=LatinParams(it_max=10),
        reference_it_max=12,
        monitor_iterations=(2, 10),
        workers=workers,
    )


def test_convergence_study_shrinks_errors():
    study = small_study()
    rec = study.record
    assert [r.pdef.nx for r in study.levels] == [12, 24]
    assert study.reference.pdef.nx == 48
    assert study.reference.pdef.params.it_max == 12
    np.testing.assert_allclose(rec.h, [2.4 / 12, 2.4 / 24], rtol=1e-15)
    assert rec.h1[1] < 0.7 * rec.h1[0]
    assert rec.energy[1] < 0.7 * rec.energy[0]
    assert rec.iterations == [10, 10]
    its = [row[0] for row in study.iteration_rows]
    assert its == [2, 10]
    # the final monitored checkpoint is the converged field itself
    assert study.iteration_rows[-1][1] == rec.energy[1]
    assert all(err > 0 and ind > 0 for _, err, ind in study.iteration_rows)


def test_convergence_study_validation():
    with pytest.raises(ConfigError):
        run_convergence_study(levels=0)
    with pytest.raises(ConfigError):
        run_convergence_study(case="wedge")


def test_worker_pool_results_are_deterministic():
    serial = small_study(workers=1)
    pooled = small_study(workers=2)
    assert serial.record == pooled.record
    assert serial.iteration_rows == pooled.iteration_rows
    for a, b in zip(serial.levels + [serial.reference], pooled.levels + [pooled.reference]):
        for ua, ub in zip(a.u, b.u):
            np.testing.assert_array_equal(ua, ub)


def test_condition_sweep_shows_stabilization():
    rows = run_condition_sweep(n=12, eps_values=(0.25, 1e-8), gamma_g_values=(0.0, 1e-3))
    assert [(e, g) for e, g, _ in rows] == [
        (0.25, 0.0),
        (1e-8, 0.0),
        (0.25, 1e-3),
        (1e-8, 1e-3),
    ]
    kappa = {(e, g): k for e, g, k in rows}
    bad = kappa[(1e-8, 0.0)] / kappa[(0.25, 0.0)]
    assert math.isinf(bad) or bad > 1e3
    good = kappa[(1e-8, 1e-3)] / kappa[(0.25, 1e-3)]
    assert good < 1e2
    with pytest.raises(ConfigError):
        run_condition_sweep(mode="triple")


@pytest.mark.parametrize("mode", ["simple", "double"])
def test_condition_sweep_matches_per_point_cases(mode):
    eps_values = (0.25, 1e-8, 0.25)
    gamma_g_values = (0.0, 1e-3, 0.1)
    rows = run_condition_sweep(
        n=12, mode=mode, eps_values=eps_values, gamma_g_values=gamma_g_values
    )
    expect = []
    for gamma_g in gamma_g_values:
        for eps in eps_values:
            eps_x = eps if mode == "double" else 0.5
            expect.append((eps, gamma_g, crack_condition_case(eps_x, eps, 12, gamma_g)[1]))
    assert rows == expect


def test_condition_sweep_worker_pool_matches_serial():
    kwargs = dict(n=12, eps_values=(0.25, 1e-8), gamma_g_values=(0.0,))
    assert run_condition_sweep(**kwargs) == run_condition_sweep(workers=2, **kwargs)


def test_condition_sweep_estimates_each_distinct_operator_once(monkeypatch):
    # at n = 12 the default sweep builds 72 operators and 18 of them repeat
    # one already built, bit for bit; the power iteration on the operator
    # (the A side) runs only where it can still give a point's maximum
    factorized, a_sides = [], []

    def factorizing(a):
        factorized.append(storage(a))
        return factorize(a)

    def estimating(a, **kwargs):
        a_sides.append(storage(a))
        return condition_number(a, **kwargs)

    monkeypatch.setattr(linalg, "factorize", factorizing)
    monkeypatch.setattr(experiments, "condition_number", estimating)
    rows = run_condition_sweep(n=12)
    swept = list(factorized)
    monkeypatch.undo()
    # every operator of the same points, with no memo and no selection
    operators = [
        storage(a)
        for eps in (0.25, 1e-2, 1e-4, 1e-6, 1e-8, 1e-11)
        for group in subdomain_operators(
            crack_problem(0.5, eps, 12, 0.0), (0.0, 1e-3, 0.1)
        )
        for a in group
    ]
    assert len(operators) == 72 and len(set(operators)) == 54
    assert len(swept) == 54 and set(swept) == set(operators)
    assert len(a_sides) == 22 and set(a_sides) <= set(operators)
    assert len(set(a_sides)) == 22
    expect = [
        (eps, gamma_g, crack_condition_case(0.5, eps, 12, gamma_g)[1])
        for gamma_g in (0.0, 1e-3, 0.1)
        for eps in (0.25, 1e-2, 1e-4, 1e-6, 1e-8, 1e-11)
    ]
    hexed = lambda rs: [tuple(float(v).hex() for v in r) for r in rs]
    assert hexed(rows) == hexed(expect)
    assert hexed(run_condition_sweep(n=12, workers=2)) == hexed(rows)


def test_condition_sweep_logs_its_counts(caplog):
    # one DEBUG line per geometry job; the serial jobs share one memo, so a
    # job's "new distinct" operators are those no earlier job built
    with caplog.at_level(logging.DEBUG, logger="latincut.experiments"):
        run_condition_sweep(n=12)
    lines = [r.getMessage() for r in caplog.records if r.name == "latincut.experiments"]
    counts = [
        tuple(int(v) for v in re.findall(r"(\d+) (?:operators|new|A sides|skipped)", line))
        for line in lines
    ]
    assert len(lines) == 6 and all(c[0] == 12 for c in counts)
    assert sum(c[1] for c in counts) == 54
    assert sum(c[2] for c in counts) == 22
    # no operator skipped in one job has its A side run in a later one
    assert sum(c[3] for c in counts) == 54 - 22


@settings(max_examples=25)
@given(
    members=st.lists(
        st.tuples(st.integers(2, 40), st.integers(0, 10**6), st.floats(-2.0, 2.0)),
        min_size=1,
        max_size=5,
    ),
    indefinite=st.booleans(),
    one=st.one_of(st.none(), st.floats(-1.0, 1.0)),
)
def test_worst_matches_the_maximum_of_every_estimate(members, indefinite, one):
    operators = []
    for n, seed, log_scale in members:
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, n))
        d = np.exp(log_scale * rng.standard_normal(n))
        dense = d[:, None] * (b @ b.T + n * np.eye(n)) * d[None, :]
        operators.append(SparseSym.finalize(sp.csr_matrix(dense)))
    if indefinite:
        operators.append(SparseSym.finalize(sp.csr_matrix(np.diag([2.0, -1.0, 3.0]))))
    if one is not None:
        operators.append(SparseSym.finalize(sp.csr_matrix(np.array([[one]]))))
    expect = max(condition_number(a) for a in operators)
    assert KappaMemo().worst(operators).hex() == expect.hex()


def test_condition_scaling_near_inverse_square():
    rows = run_condition_scaling(base_n=12, levels=3)
    h = [r[0] for r in rows]
    np.testing.assert_allclose(h, [1 / 12, 1 / 24, 1 / 48], rtol=1e-15)
    slope = fit_rate(h, [r[3] for r in rows])
    assert slope == pytest.approx(-2.0, abs=0.4)
    with pytest.raises(ConfigError):
        run_condition_scaling(levels=1)


def test_crack_condition_case_reports_worst_subproblem():
    # a point the per-point comparisons do not cover: eps_x = eps_y = 0.25
    pdef, kappa = crack_condition_case(0.25, 0.25, 12, gamma_g=0.1)
    assert len(linear_stage_condition_numbers(pdef)) == 4
    rows = run_condition_sweep(
        n=12, eps_values=(0.25,), gamma_g_values=(0.1,), eps_x_fixed=0.25
    )
    assert rows == [(0.25, 0.1, kappa)]


def test_p1p0_comparison_runs_both_schemes():
    res = run_p1p0_comparison(
        base_nx=12, profile_iterations=(2, 5), params=LatinParams(it_max=50)
    )
    assert set(res) == {"p1", "p0"}
    for scheme, r in res.items():
        assert r.pdef.params.interface_scheme == scheme
        assert sorted(r.checkpoint_traction) == [2, 5]
        # nothing is written after the last profile, so no scheme iterates past it
        assert len(r.history) == 5
        assert r.profile_pair == (0, 1)
    assert not np.allclose(
        res["p1"].checkpoint_traction[5], res["p0"].checkpoint_traction[5]
    )


def test_experiment_registry_names():
    assert tuple(EXPERIMENTS) == (
        "ellipse_convergence",
        "two_inclusions_convergence",
        "crack_condition_sweep",
        "crack_condition_scaling",
        "p1p0_comparison",
    )
