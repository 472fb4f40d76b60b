"""Acceptance runs at the full study sizes.

This module is deliberately heavy: the ellipse mesh ladder (four levels
plus a one-finer reference, all iterated to 200) dominates the suite's
runtime.  Every other test file runs on toy meshes; here the solver has to
reproduce the headline numbers.  Each criterion is one test that prints a
single summary line once its assertions pass.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import test_assembly
import test_latin
from latincut.analysis import (
    energy_error,
    fit_rate,
    h1_error,
    interpolate_to_fine,
    total_variation,
    traction_profile,
)
from latincut.assembly import (
    assemble_ghost_penalty,
    build_space,
    gradient_jump_matrix,
)
from latincut.cutgeom import Material, build_cut_domain, build_interface, decompose_mesh
from latincut.experiments import (
    build_problem,
    ellipse_case,
    problem_spaces,
    run_condition_scaling,
    run_condition_sweep,
    run_convergence_study,
    run_p1p0_comparison,
    solve_problem,
)
from latincut.latin import LatinParams, run
from latincut.levelset import Ellipse, interpolate_levelset
from latincut.mesh import build_structured_mesh

MAT = Material(e=1.0, nu=0.3)

# expected error magnitudes at the coarsest ladder level (h = 0.06)
REF_H1_COARSE = 7.5087e-2
REF_ENERGY_COARSE = 5.2406e-2

MONITORS = (30, 50, 80, 120, 160, 200)


@pytest.fixture(scope="module")
def ladder():
    return run_convergence_study(
        case="ellipse",
        levels=4,
        base_nx=40,
        reference_it_max=200,
        monitor_iterations=MONITORS,
    )


@pytest.fixture(scope="module")
def reference_spaces(ladder):
    return problem_spaces(ladder.reference.pdef)[3]


@pytest.fixture(scope="module")
def profile_runs():
    return run_p1p0_comparison(base_nx=40, profile_iterations=(27, 210))


@pytest.fixture(scope="module")
def ellipse_state():
    pdef = ellipse_case(0)
    return run(build_problem(pdef), pdef.params)


def test_criterion_1_ellipse_ladder_converges_at_rate_one(ladder):
    rec = ladder.record
    assert 0.85 <= rec.h1_rate <= 1.15
    assert 0.85 <= rec.energy_rate <= 1.15
    assert rec.h[0] == pytest.approx(0.06, rel=1e-12)
    assert REF_H1_COARSE / 3.0 <= rec.h1[0] <= 3.0 * REF_H1_COARSE
    assert REF_ENERGY_COARSE / 3.0 <= rec.energy[0] <= 3.0 * REF_ENERGY_COARSE
    print(
        f"CRITERION 1 PASS: H1 rate {rec.h1_rate:.3f}, energy rate "
        f"{rec.energy_rate:.3f}, coarse errors {rec.h1[0]:.4e} / {rec.energy[0]:.4e}"
    )


def test_criterion_2_interface_quadrature_insensitivity(ladder, reference_spaces):
    rec = ladder.record
    pdef4 = ellipse_case(0, params=LatinParams(quad_points_per_segment=4))
    res = solve_problem(pdef4)
    coarse_spaces = problem_spaces(pdef4)[3]
    on_fine = [
        interpolate_to_fine(u, cs, fs)
        for u, cs, fs in zip(res.u, coarse_spaces, reference_spaces)
    ]
    h1_4 = h1_error(on_fine, ladder.reference.u, reference_spaces)
    en_4 = energy_error(on_fine, ladder.reference.u, reference_spaces)
    dh = abs(h1_4 - rec.h1[0]) / rec.h1[0]
    de = abs(en_4 - rec.energy[0]) / rec.energy[0]
    assert dh < 1e-2
    assert de < 1e-2
    print(
        f"CRITERION 2 PASS: 4-point vs 2-point interface rule changes "
        f"H1 by {dh:.2e}, energy by {de:.2e}"
    )


def test_criterion_3_ghost_penalty_controls_bad_cuts():
    eps_values = (0.25, 1e-2, 1e-4, 1e-6, 1e-8, 1e-11)
    rows = run_condition_sweep(
        n=24, eps_values=eps_values, gamma_g_values=(0.0, 1e-3)
    )
    kappa = {(e, g): k for e, g, k in rows}
    raw = kappa[(1e-6, 0.0)] / kappa[(0.25, 0.0)]
    assert math.isinf(raw) or raw >= 1e3
    stabilized = kappa[(1e-11, 1e-3)] / kappa[(0.25, 1e-3)]
    assert stabilized <= 1e2
    print(
        f"CRITERION 3 PASS: unstabilized kappa grows x{raw:.3g} by eps=1e-6, "
        f"gamma_g=1e-3 holds growth to x{stabilized:.3g} at eps=1e-11"
    )


def test_criterion_4_condition_number_scales_like_inverse_square():
    rows = run_condition_scaling(base_n=12, levels=4, eps=0.25, gamma_g=0.1)
    slope = fit_rate([r[0] for r in rows], [r[3] for r in rows])
    assert slope == pytest.approx(-2.0, abs=0.4)
    print(f"CRITERION 4 PASS: kappa(h) log-log slope {slope:.3f}")


def test_criterion_5_error_plateau_after_thirty_iterations(ladder):
    errs = {it: err for it, err, _ in ladder.iteration_rows}
    assert sorted(errs) == sorted(MONITORS)
    final = errs[200]
    assert abs(errs[30] - final) / final <= 0.10
    ratio = max(errs.values()) / min(errs.values())
    assert ratio <= 1.15
    print(
        f"CRITERION 5 PASS: error at it 30 within "
        f"{abs(errs[30] - final) / final:.2%} of it 200, spread x{ratio:.4f}"
    )


def test_criterion_6_p0_tractions_oscillate_p1_tractions_settle(profile_runs):
    profiles = {}
    for scheme, res in profile_runs.items():
        iface = problem_spaces(res.pdef)[4][res.profile_pair]
        profiles[scheme] = {
            it: traction_profile(iface, tr)
            for it, tr in res.checkpoint_traction.items()
        }
    tv_p0 = total_variation(profiles["p0"][210][:, 1])
    tv_p1 = total_variation(profiles["p1"][210][:, 1])
    assert tv_p0 / tv_p1 >= 10.0
    early, late = profiles["p1"][27][:, 1], profiles["p1"][210][:, 1]
    drift = np.linalg.norm(early - late) / np.linalg.norm(late)
    assert drift < 0.05
    print(
        f"CRITERION 6 PASS: traction total variation p0/p1 = "
        f"{tv_p0 / tv_p1:.1f}, p1 profile drift it 27 -> 210 {drift:.2%}"
    )


def test_criterion_7_property_suite(ellipse_state):
    # consistency patches on uncut geometry
    test_assembly.test_strong_dirichlet_patch()
    test_assembly.test_nitsche_patch()
    # two stacked blocks against the closed-form contact pressure
    test_latin.test_two_block_compression_exact()
    # bonded fixed point against an independently assembled saddle system
    test_latin.test_bonded_matches_monolithic_saddle()

    # contact law holds pointwise on the curved interface at it_max
    fn, gap = test_latin.heart_fields(ellipse_state, (0, 1))
    assert fn.max() <= 1e-10
    assert gap.min() >= -1e-6
    assert np.abs(fn * gap).max() <= 1e-6

    # stabilization terms are consistent: exactly zero on global linears
    mesh = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), 20, 20)
    ls = [interpolate_levelset(Ellipse(1.0, 0.5, 0.654545), mesh)]
    deco = decompose_mesh(mesh, ls)
    space = build_space(build_cut_domain(0, mesh, MAT, deco))
    u = test_assembly.linear_field(space.mesh.vertices[space.vertices]).ravel()
    g = assemble_ghost_penalty(space, 0.1)
    assert abs(u @ g.matvec(u)) <= 1e-12 * max(1.0, u @ u)
    iface = build_interface(0, 1, mesh, deco)
    j = gradient_jump_matrix(mesh, iface.interior_faces, iface.band_vertices, 0.1)
    z = test_assembly.linear_field(mesh.vertices[iface.band_vertices]).ravel()
    assert abs(z @ j.matvec(z)) <= 1e-12 * max(1.0, z @ z)

    # interface forces balance node by node, with no roundoff allowance
    for pair in ellipse_state.pairs:
        np.testing.assert_array_equal(
            ellipse_state.interface_field("f_hat", pair, pair[0]),
            -ellipse_state.interface_field("f_hat", pair, pair[1]),
        )
    print(
        "CRITERION 7 PASS: patches, two-block pressure, bonded saddle, "
        "contact law, linear consistency, action-reaction"
    )


def test_criterion_8_cut_geometry_is_second_order():
    a, b, r = 1.0, 0.5, 0.654545
    big_a, big_b = a * r, b * r
    area_exact = np.pi * big_a * big_b
    per_exact = 4.0 * quad(
        lambda t: np.hypot(big_a * np.sin(t), big_b * np.cos(t)), 0.0, np.pi / 2.0
    )[0]
    hs, area_errs, len_errs = [], [], []
    for n in (12, 24, 48, 96):
        mesh = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), n, n)
        ls = [interpolate_levelset(Ellipse(a, b, r), mesh)]
        deco = decompose_mesh(mesh, ls)
        dom = build_cut_domain(1, mesh, MAT, deco)
        iface = build_interface(0, 1, mesh, deco)
        hs.append(2.4 / n)
        area_errs.append(abs(dom.qweights.sum() - area_exact))
        len_errs.append(abs(iface.segments.length.sum() - per_exact))
    area_rate = fit_rate(hs, area_errs)
    len_rate = fit_rate(hs, len_errs)
    assert area_rate == pytest.approx(2.0, abs=0.4)
    assert len_rate == pytest.approx(2.0, abs=0.4)
    print(
        f"CRITERION 8 PASS: cut-area rate {area_rate:.2f}, "
        f"interface-length rate {len_rate:.2f}"
    )
