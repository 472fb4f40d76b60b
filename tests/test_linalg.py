"""Symmetric sparse wrapper, Cholesky-style factorization, condition numbers."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

from latincut.errors import NotSpdError, SolverFailure
from latincut.linalg import (
    DenseFactor,
    SparseSym,
    condition_number,
    factorize,
    factorize_dense,
)


def spd_from(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


def test_finalize_symmetrizes_and_sums_duplicates():
    rows = np.array([0, 0, 1, 2, 0])
    cols = np.array([0, 1, 0, 2, 1])
    vals = np.array([2.0, 1.0, 3.0, 4.0, 5.0])
    a = SparseSym.from_coo(rows, cols, vals, 3)
    dense = np.zeros((3, 3))
    for r, c, v in zip(rows, cols, vals):
        dense[r, c] += v
    expect = 0.5 * (dense + dense.T)
    np.testing.assert_allclose(a.toarray(), expect, atol=1e-15)
    # duplicate (0,1) entries were summed, not dropped
    assert a.toarray()[0, 1] == pytest.approx(0.5 * (1.0 + 5.0 + 3.0))


def test_finalize_identical_storage_for_equal_assemblies():
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 20, size=200)
    cols = rng.integers(0, 20, size=200)
    vals = rng.standard_normal(200)
    a = SparseSym.from_coo(rows, cols, vals, 20)
    perm = rng.permutation(200)
    b = SparseSym.from_coo(rows[perm], cols[perm], vals[perm], 20)
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_allclose(a.data, b.data, rtol=1e-15)


def test_submatrix_matches_dense_slice():
    a = SparseSym.finalize(sp.csr_matrix(spd_from(0, 8)))
    keep = np.array([0, 2, 3, 7])
    np.testing.assert_allclose(
        a.submatrix(keep).toarray(), a.toarray()[np.ix_(keep, keep)], atol=1e-15
    )


def test_add_and_scale():
    a = SparseSym.finalize(sp.csr_matrix(spd_from(1, 5)))
    b = SparseSym.finalize(sp.csr_matrix(spd_from(2, 5)))
    np.testing.assert_allclose((a + b).toarray(), a.toarray() + b.toarray(), atol=1e-14)
    z = SparseSym(csr=sp.csr_matrix((5, 5)))
    assert z.n == 5
    np.testing.assert_allclose((a + z).toarray(), a.toarray(), atol=1e-15)


def test_matvec():
    a = SparseSym.finalize(sp.csr_matrix(spd_from(3, 6)))
    x = np.arange(6.0)
    np.testing.assert_allclose(a.matvec(x), a.toarray() @ x, rtol=1e-14)


@given(n=st.integers(2, 12), seed=st.integers(0, 1000))
def test_factorize_solves_spd_systems(n, seed):
    dense = spd_from(seed, n)
    a = SparseSym.finalize(sp.csr_matrix(dense))
    b = np.random.default_rng(seed + 1).standard_normal(n)
    x = factorize(a).solve(b)
    np.testing.assert_allclose(dense @ x, b, atol=1e-8 * np.linalg.norm(b))
    np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-8, atol=1e-10)


def test_factorize_solve_is_repeatable():
    dense = spd_from(11, 7)
    a = SparseSym.finalize(sp.csr_matrix(dense))
    b = np.ones(7)
    np.testing.assert_allclose(factorize(a).solve(b), factorize(a).solve(b), atol=1e-14)


def test_factorize_rejects_indefinite_and_singular():
    indefinite = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NotSpdError):
        factorize(SparseSym.finalize(sp.csr_matrix(indefinite)))
    singular = np.zeros((3, 3))
    singular[0, 0] = 1.0
    with pytest.raises(NotSpdError):
        factorize(SparseSym.finalize(sp.csr_matrix(singular)))
    with pytest.raises(SolverFailure):
        factorize(SparseSym(csr=sp.csr_matrix((0, 0))))


def test_factorize_dense_matches_numpy():
    dense = spd_from(5, 9)
    b = np.linspace(-1, 1, 9)
    fac = factorize_dense(dense)
    assert isinstance(fac, DenseFactor)
    np.testing.assert_allclose(fac.solve(b), np.linalg.solve(dense, b), rtol=1e-10)
    with pytest.raises(NotSpdError):
        factorize_dense(np.diag([1.0, -2.0]))


def test_condition_number_diagonal_exact():
    a = SparseSym.finalize(sp.csr_matrix(np.diag([1.0, 4.0, 100.0])))
    assert condition_number(a) == pytest.approx(100.0, rel=2e-3)


@given(n=st.integers(2, 10), seed=st.integers(0, 200))
def test_condition_number_close_to_dense(n, seed):
    dense = spd_from(seed, n)
    a = SparseSym.finalize(sp.csr_matrix(dense))
    kappa = condition_number(a)
    assert kappa == pytest.approx(np.linalg.cond(dense, 2), rel=5e-2)


def test_condition_number_edge_cases():
    one = SparseSym.finalize(sp.csr_matrix(np.array([[3.0]])))
    assert condition_number(one) == 1.0
    indefinite = SparseSym.finalize(sp.csr_matrix(np.diag([1.0, -1.0])))
    assert condition_number(indefinite) == np.inf
    # deterministic across calls
    a = SparseSym.finalize(sp.csr_matrix(spd_from(42, 15)))
    assert condition_number(a) == condition_number(a)
