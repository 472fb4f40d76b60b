"""Nested interpolation, broken error norms, rate fits, traction profiles.

The default cut quadrature is exact for quadratics, so every norm of an
affine difference field below is a machine-precision identity with a
closed form, not a tolerance fit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latincut.analysis import (
    ConvergenceRecord,
    energy_error,
    fit_rate,
    h1_error,
    interpolate_to_fine,
    refinement_levels,
    total_variation,
    traction_profile,
)
from latincut.assembly import build_space
from latincut.cutgeom import Material, build_cut_domain, build_interface, decompose_mesh
from latincut.errors import NonNestedMeshError
from latincut.levelset import Circle, Ellipse, HalfPlane, interpolate_levelset
from latincut.mesh import build_structured_mesh

MAT = Material(e=1.0, nu=0.3)
LAM, MU = 0.3 / (1.3 * 0.4), 1.0 / 2.6
# sharp constant in  energy norm <= C * H1 norm  for plane strain
C_EQUIV = np.sqrt(2.0 * (LAM + MU))

coeff = st.floats(-3.0, 3.0)


def split_spaces(n, cut=0.5):
    """Two half-square subdomains meeting along y = cut on the unit square."""
    mesh = build_structured_mesh((0.0, 0.0, 1.0, 1.0), n, n)
    ls = [interpolate_levelset(HalfPlane(0.0, -1.0, cut), mesh)]
    deco = decompose_mesh(mesh, ls)
    spaces = [
        build_space(build_cut_domain(i, mesh, MAT, deco))
        for i in (0, 1)
    ]
    return mesh, spaces


def ellipse_spaces(n):
    mesh = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), n, n)
    ls = [interpolate_levelset(Ellipse(1.0, 0.5, 0.654545), mesh)]
    deco = decompose_mesh(mesh, ls)
    spaces = [
        build_space(build_cut_domain(i, mesh, MAT, deco))
        for i in (0, 1)
    ]
    return mesh, spaces


def sample(space, fx, fy):
    """Nodal interpolant of (fx, fy) in the space's interleaved dof order."""
    pts = space.mesh.vertices[space.vertices]
    u = np.empty(space.n_dofs)
    u[0::2] = fx(pts)
    u[1::2] = fy(pts)
    return u


# --- nesting checks --------------------------------------------------------

def test_refinement_levels_counts():
    base = build_structured_mesh((0.0, 0.0, 1.0, 1.0), 4, 4)
    assert refinement_levels(base, base) == 0
    assert refinement_levels(base, build_structured_mesh((0.0, 0.0, 1.0, 1.0), 8, 8)) == 1
    assert refinement_levels(base, build_structured_mesh((0.0, 0.0, 1.0, 1.0), 32, 32)) == 3


def test_refinement_levels_rejects_non_nested_pairs():
    base = build_structured_mesh((0.0, 0.0, 1.0, 1.0), 4, 4)
    with pytest.raises(NonNestedMeshError):
        refinement_levels(base, build_structured_mesh((0.0, 0.0, 2.0, 1.0), 8, 8))
    with pytest.raises(NonNestedMeshError):
        refinement_levels(base, build_structured_mesh((0.0, 0.0, 1.0, 1.0), 6, 6))
    with pytest.raises(NonNestedMeshError):
        # both factors integer but unequal
        refinement_levels(base, build_structured_mesh((0.0, 0.0, 1.0, 1.0), 8, 16))
    with pytest.raises(NonNestedMeshError):
        # ratio 3 divides but is not a power of two
        refinement_levels(base, build_structured_mesh((0.0, 0.0, 1.0, 1.0), 12, 12))
    with pytest.raises(NonNestedMeshError):
        refinement_levels(dataclasses.replace(base, structured=None), base)


def test_interpolate_requires_nested_meshes():
    _, coarse = split_spaces(6)
    _, fine = split_spaces(9)
    u = np.zeros(coarse[0].n_dofs)
    with pytest.raises(NonNestedMeshError):
        interpolate_to_fine(u, coarse[0], fine[0])


# --- nodal transfer to the fine mesh ---------------------------------------

def affine_pair():
    fx = lambda p: 0.3 + 0.7 * p[:, 0] - 0.2 * p[:, 1]
    fy = lambda p: -0.1 + 0.4 * p[:, 0] + 0.9 * p[:, 1]
    return fx, fy


def test_interpolation_reproduces_affine_fields_two_block():
    _, coarse = split_spaces(6)
    _, fine = split_spaces(12)
    fx, fy = affine_pair()
    for cs, fs in zip(coarse, fine):
        out = interpolate_to_fine(sample(cs, fx, fy), cs, fs)
        np.testing.assert_allclose(out, sample(fs, fx, fy), atol=1e-13)


def test_interpolation_reproduces_affine_fields_curved_band():
    # the fine band pokes past the coarse cut cells near the ellipse, so
    # this also exercises the nearest-covering-cell fallback; the linear
    # extension keeps affine fields exact there too
    _, coarse = ellipse_spaces(8)
    _, fine = ellipse_spaces(16)
    fx, fy = affine_pair()
    for cs, fs in zip(coarse, fine):
        out = interpolate_to_fine(sample(cs, fx, fy), cs, fs)
        np.testing.assert_allclose(out, sample(fs, fx, fy), atol=1e-11)


def test_stacked_interpolation_matches_per_field_calls():
    # a (t, n) stack locates the fine vertices once and gives every field
    # its own call's result byte for byte, fallback vertices included
    _, coarse = ellipse_spaces(8)
    _, fine = ellipse_spaces(16)
    rng = np.random.default_rng(0)
    for cs, fs in zip(coarse, fine):
        fields = rng.standard_normal((3, cs.n_dofs))
        stacked = interpolate_to_fine(fields, cs, fs)
        assert stacked.shape == (3, fs.n_dofs)
        for u, row in zip(fields, stacked):
            assert row.tobytes() == interpolate_to_fine(u, cs, fs).tobytes()


# --- broken norms -----------------------------------------------------------

def test_error_norms_closed_forms():
    _, spaces = split_spaces(8)
    zeros = [np.zeros(s.n_dofs) for s in spaces]

    const = [sample(s, lambda p: 3.0 + 0 * p[:, 0], lambda p: -2.0 + 0 * p[:, 0]) for s in spaces]
    assert h1_error(const, zeros, spaces) == pytest.approx(np.sqrt(13.0), rel=1e-12)
    assert energy_error(const, zeros, spaces) == pytest.approx(0.0, abs=1e-12)

    stretch = [sample(s, lambda p: p[:, 0], lambda p: 0 * p[:, 0]) for s in spaces]
    # |u|^2 = int x^2 = 1/3, |grad u|^2 = 1; strain energy density lam + 2 mu
    assert h1_error(stretch, zeros, spaces) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)
    assert energy_error(stretch, zeros, spaces) == pytest.approx(np.sqrt(LAM + 2 * MU), rel=1e-12)
    assert h1_error(zeros, stretch, spaces) == h1_error(stretch, zeros, spaces)

    shear = [sample(s, lambda p: p[:, 1], lambda p: 0 * p[:, 0]) for s in spaces]
    assert h1_error(shear, zeros, spaces) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)
    assert energy_error(shear, zeros, spaces) == pytest.approx(np.sqrt(MU), rel=1e-12)

    dilate = [sample(s, lambda p: p[:, 0], lambda p: p[:, 1]) for s in spaces]
    assert h1_error(dilate, zeros, spaces) == pytest.approx(np.sqrt(8.0 / 3.0), rel=1e-12)
    assert energy_error(dilate, zeros, spaces) == pytest.approx(2.0 * np.sqrt(LAM + MU), rel=1e-12)


@given(a0=coeff, a1=coeff, a2=coeff, b0=coeff, b1=coeff, b2=coeff)
def test_energy_norm_bounded_by_h1_norm(a0, a1, a2, b0, b1, b2):
    _, spaces = split_spaces(6)
    zeros = [np.zeros(s.n_dofs) for s in spaces]
    u = [
        sample(
            s,
            lambda p: a0 + a1 * p[:, 0] + a2 * p[:, 1],
            lambda p: b0 + b1 * p[:, 0] + b2 * p[:, 1],
        )
        for s in spaces
    ]
    e = energy_error(u, zeros, spaces)
    h = h1_error(u, zeros, spaces)
    assert e <= C_EQUIV * h * (1.0 + 1e-9) + 1e-12


def test_equivalence_constant_is_sharp_for_dilatation():
    # u = (x, y) has strain = identity: the smaller plane-strain constant
    # sqrt(lam + 2 mu) fails on it, while sqrt(2 (lam + mu)) is attained
    # exactly against the gradient seminorm sqrt(2 |Omega|)
    _, spaces = split_spaces(8)
    zeros = [np.zeros(s.n_dofs) for s in spaces]
    dilate = [sample(s, lambda p: p[:, 0], lambda p: p[:, 1]) for s in spaces]
    e = energy_error(dilate, zeros, spaces)
    h = h1_error(dilate, zeros, spaces)
    assert e > np.sqrt(LAM + 2 * MU) * h
    assert e == pytest.approx(C_EQUIV * np.sqrt(2.0), rel=1e-12)


# --- convergence records and rate fits --------------------------------------

# error ladder recorded from a full-size reference run of the ellipse study
LADDER_H = [6e-2, 3e-2, 1.5e-2, 7.5e-3]
LADDER_H1 = [7.5087e-2, 3.9379e-2, 2.0446e-2, 9.6445e-3]
LADDER_EN = [5.2406e-2, 2.8651e-2, 1.4827e-2, 7.3295e-3]


def test_reference_ladder_rates_near_one():
    rec = ConvergenceRecord(h=LADDER_H, h1=LADDER_H1, energy=LADDER_EN, iterations=[200] * 4)
    assert rec.h1_rate == pytest.approx(0.98, abs=0.02)
    assert rec.energy_rate == pytest.approx(0.95, abs=0.02)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(h=LADDER_H, h1=LADDER_H1[:3], energy=LADDER_EN, iterations=[200] * 4),
        dict(h=LADDER_H, h1=LADDER_H1, energy=LADDER_EN, iterations=[200] * 3),
        dict(h=[0.1, 0.1, 0.05], h1=[1.0] * 3, energy=[1.0] * 3, iterations=[1] * 3),
        dict(h=[0.05, 0.1], h1=[1.0] * 2, energy=[1.0] * 2, iterations=[1] * 2),
        dict(h=[0.1, 0.05], h1=[1.0, 0.0], energy=[1.0] * 2, iterations=[1] * 2),
        dict(h=[0.1, 0.05], h1=[1.0] * 2, energy=[1.0, -2.0], iterations=[1] * 2),
    ],
)
def test_convergence_record_validation(kwargs):
    with pytest.raises(ValueError):
        ConvergenceRecord(**kwargs)


def test_short_record_is_valid_but_cannot_fit():
    rec = ConvergenceRecord(h=[0.1, 0.05], h1=[1.0, 0.5], energy=[1.0, 0.5], iterations=[1, 1])
    with pytest.raises(ValueError):
        rec.h1_rate


def test_fit_rate_recovers_exact_powers():
    h = [0.2, 0.1, 0.05, 0.025]
    assert fit_rate(h, [3.0 * x**2 for x in h]) == pytest.approx(2.0, rel=1e-12)
    assert fit_rate(h, [0.7 * x**0.5 for x in h]) == pytest.approx(0.5, rel=1e-12)
    assert fit_rate(h, [2.0 / x for x in h]) == pytest.approx(-1.0, rel=1e-12)


@pytest.mark.parametrize(
    "h, errors",
    [
        ([0.1, 0.05], [1.0, 0.5]),
        ([0.1, 0.05, 0.025], [1.0, 0.5]),
        ([0.1, 0.0, 0.025], [1.0, 0.5, 0.25]),
        ([0.1, 0.05, 0.025], [1.0, -0.5, 0.25]),
    ],
)
def test_fit_rate_validation(h, errors):
    with pytest.raises(ValueError):
        fit_rate(h, errors)


# --- traction profiles -------------------------------------------------------

def ellipse_interface(n=12):
    mesh = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), n, n)
    ls = [interpolate_levelset(Ellipse(1.0, 0.5, 0.654545), mesh)]
    return build_interface(0, 1, mesh, decompose_mesh(mesh, ls))


def test_traction_profile_sorts_by_angle():
    iface = ellipse_interface()
    segs = iface.segments
    theta = np.arctan2(segs.qpoints[:, 1], segs.qpoints[:, 0])
    g = 2.0 + np.cos(theta)
    prof = traction_profile(iface, g[:, None] * segs.qnormals)
    assert prof.shape == (segs.qcells.size, 2)
    assert np.all(np.diff(prof[:, 0]) >= 0.0)
    order = np.argsort(theta, kind="stable")
    np.testing.assert_allclose(prof[:, 0], theta[order], atol=1e-15)
    # unit normals make the recovered normal component exactly g
    np.testing.assert_allclose(prof[:, 1], g[order], rtol=1e-12)
    flat = traction_profile(iface, (g[:, None] * segs.qnormals).ravel())
    np.testing.assert_array_equal(flat, prof)


def test_traction_profile_center_shift():
    center = (0.3, 0.1)
    mesh = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), 14, 14)
    ls = [interpolate_levelset(Circle(center, 0.6), mesh)]
    iface = build_interface(0, 1, mesh, decompose_mesh(mesh, ls))
    prof = traction_profile(iface, iface.segments.qnormals, center=center)
    # outward unit data dotted with the normals gives 1 all around
    np.testing.assert_allclose(prof[:, 1], 1.0, rtol=1e-12)
    assert prof[-1, 0] - prof[0, 0] > 6.0


def test_traction_profile_count_mismatch():
    iface = ellipse_interface()
    vals = np.ones((iface.segments.qcells.size - 1, 2))
    with pytest.raises(ValueError):
        traction_profile(iface, vals)


def test_total_variation_values():
    assert total_variation([0.0, 1.0, 0.0]) == pytest.approx(2.0)
    assert total_variation([0.0, 1.0, 0.0, 1.0]) == pytest.approx(3.0)
    assert total_variation(np.zeros(5)) == 0.0
    assert total_variation([4.2]) == 0.0
