"""Level-set catalog, nodal interpolation, classification rules."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latincut.errors import InvalidGeometryError
from latincut.levelset import (
    ZERO_SHIFT,
    Circle,
    DiscreteLevelSet,
    Ellipse,
    HalfPlane,
    MinUnion,
    barycentric_coordinates,
    classify_point,
    classify_values,
    interpolate_levelset,
)
from latincut.mesh import build_structured_mesh

finite = st.floats(-2.0, 2.0, allow_nan=False)


def test_catalog_values_by_hand():
    ell = Ellipse(a=1.0, b=0.5, r=0.654545)
    # on-curve point: (x/a)^2 + (y/b)^2 = r^2 at (r, 0)
    assert ell.evaluate(np.array([[0.654545, 0.0]]))[0] == pytest.approx(0.0, abs=1e-12)
    assert ell.evaluate(np.array([[0.0, 0.0]]))[0] < 0  # inside negative
    assert ell.evaluate(np.array([[1.0, 1.0]]))[0] > 0

    circ = Circle(center=(0.25, -0.5), r=0.5)
    assert circ.evaluate(np.array([[0.75, -0.5]]))[0] == pytest.approx(0.0, abs=1e-12)
    assert circ.evaluate(np.array([[0.25, -0.5]]))[0] < 0

    hp = HalfPlane(a=1.0, b=0.0, c=-0.5)  # x = 0.5 line, negative below
    assert hp.evaluate(np.array([[0.5, 3.0]]))[0] == pytest.approx(0.0, abs=1e-12)
    assert hp.evaluate(np.array([[0.0, 0.0]]))[0] < 0
    assert hp.evaluate(np.array([[1.0, 0.0]]))[0] > 0

    union = MinUnion(parts=(Circle((0.0, 0.0), 0.5), Circle((1.0, 0.0), 0.5)))
    vals = union.evaluate(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]]))
    assert vals[0] < 0 and vals[1] < 0 and vals[2] > 0


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Ellipse(a=0.0, b=0.5, r=1.0),
        lambda: Ellipse(a=1.0, b=-0.5, r=1.0),
        lambda: Ellipse(a=1.0, b=0.5, r=0.0),
        lambda: Circle(center=(0, 0), r=-1.0),
        lambda: HalfPlane(a=0.0, b=0.0, c=1.0),
        lambda: MinUnion(parts=()),
    ],
)
def test_catalog_validation(bad):
    with pytest.raises(InvalidGeometryError):
        bad()


def test_interpolation_exact_for_linear_function():
    m = build_structured_mesh((-1.0, -1.0, 1.0, 1.0), 5, 4)
    hp = HalfPlane(a=0.3, b=-0.7, c=0.1)
    ls = interpolate_levelset(hp, m)
    np.testing.assert_allclose(ls.nodal_values, hp.evaluate(m.vertices), atol=1e-14)
    # cell gradients of an interpolated linear field equal the exact gradient
    grads = ls.cell_gradients()
    np.testing.assert_allclose(grads[:, 0], 0.3, atol=1e-13)
    np.testing.assert_allclose(grads[:, 1], -0.7, atol=1e-13)
    # on a subset of cells, the same rows bit for bit
    tris = np.array([5, 0, 7])
    assert ls.cell_gradients(tris).tobytes() == grads[tris].tobytes()
    # cell_values gathers the right corners
    cv = ls.cell_values()
    np.testing.assert_array_equal(cv, ls.nodal_values[m.triangles])


@given(a=finite, b=finite, c=finite)
def test_cell_gradients_property(a, b, c):
    if abs(a) + abs(b) < 1e-3:
        a = 1.0
    m = build_structured_mesh((0.0, 0.0, 1.0, 1.0), 3, 3)
    ls = DiscreteLevelSet(m, a * m.vertices[:, 0] + b * m.vertices[:, 1] + c)
    grads = ls.cell_gradients()
    np.testing.assert_allclose(grads[:, 0], a, atol=1e-10)
    np.testing.assert_allclose(grads[:, 1], b, atol=1e-10)


def test_classification_nudges_exact_zeros():
    m = build_structured_mesh((0.0, 0.0, 1.0, 1.0), 2, 2)
    vals = np.zeros(m.n_vertices)
    vals[0] = -1.0
    ls = DiscreteLevelSet(m, vals)
    # exact zeros are pushed to a mesh-scaled epsilon so cuts are unambiguous
    assert np.all(ls.classification_values != 0.0)
    np.testing.assert_array_equal(
        ls.classification_values[vals == 0.0], ZERO_SHIFT * m.h
    )
    assert ls.classification_values[0] == -1.0
    # raw samples are left untouched
    assert np.array_equal(ls.nodal_values, vals)


def test_classify_values_priority_rule():
    # sign pattern (-, -) belongs to the later level set by priority
    vals = np.array([[-1.0, -1.0, 1.0], [1.0, -1.0, -1.0]])
    out = classify_values(vals)
    # columns: only ls0 negative -> 1; both negative -> 2; only ls1 -> 2
    np.testing.assert_array_equal(out, [1, 2, 2])
    # all positive -> subdomain 0 (the matrix)
    assert classify_values(np.array([[0.5], [0.5]]))[0] == 0


def test_classify_point_matches_nodal_signs():
    m = build_structured_mesh((-1.2, -1.2, 1.2, 1.2), 12, 12)
    ls = interpolate_levelset(Ellipse(1.0, 0.5, 0.654545), m)
    pts = np.array([[0.0, 0.0], [1.1, 1.1], [0.6, 0.0]])
    labels = classify_point(pts, [ls])
    assert labels[0] == 1  # deep inside the ellipse
    assert labels[1] == 0
    assert labels[2] == 1


def test_classify_point_with_grouping():
    m = build_structured_mesh((-1.0, -1.0, 1.0, 1.0), 8, 8)
    ls = [
        interpolate_levelset(HalfPlane(1.0, 0.0, 0.0), m),
        interpolate_levelset(HalfPlane(0.0, 1.0, 0.0), m),
    ]
    pts = np.array([[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.5, 0.5]])
    plain = classify_point(pts, ls)
    np.testing.assert_array_equal(plain, [2, 2, 1, 0])
    merged = classify_point(pts, ls, grouping=[0, 1, 1])
    np.testing.assert_array_equal(merged, [1, 1, 1, 0])


def test_barycentric_identity_and_affine_invariance():
    corners = np.array([[[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]])
    lam = barycentric_coordinates(np.array([[2.0 / 3.0, 1.0 / 3.0]]), corners)
    np.testing.assert_allclose(lam, [[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]], atol=1e-14)
    for k, v in enumerate(corners[0]):
        lam = barycentric_coordinates(v[None, :], corners)
        expect = np.zeros(3)
        expect[k] = 1.0
        np.testing.assert_allclose(lam[0], expect, atol=1e-13)


@given(
    s=st.floats(0.01, 0.98),
    t=st.floats(0.01, 0.98),
    shift=st.tuples(finite, finite),
)
def test_barycentric_reconstruction_property(s, t, shift):
    if s + t >= 0.99:
        s, t = s / 2, t / 2
    corners = np.array([[[0.1, -0.4], [1.3, 0.2], [0.5, 1.7]]]) + np.asarray(shift)
    p = (1 - s - t) * corners[0, 0] + s * corners[0, 1] + t * corners[0, 2]
    lam = barycentric_coordinates(p[None, :], corners)
    assert lam[0].sum() == pytest.approx(1.0, abs=1e-12)
    rebuilt = lam[0] @ corners[0]
    np.testing.assert_allclose(rebuilt, p, atol=1e-12)
