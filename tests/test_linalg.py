"""Symmetric sparse wrapper, Cholesky-style factorization, condition numbers."""

import ctypes
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from latincut import linalg
from latincut.errors import NotSpdError, SolverFailure
from latincut.linalg import (
    BOUND_MARGIN,
    CsrOperator,
    DenseFactor,
    SparseSym,
    _pivots,
    condition_number,
    factorize,
    factorize_dense,
    inverse_estimate,
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


# signed zeros and ordinary floats, so a result differing only in the sign
# of a zero shows in its bytes
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def csr_and_vector(draw):
    """A CSR matrix with empty rows and stored (signed) zeros likely, its
    indices in int32 or int64, and a vector to apply it to."""
    n_row, n_col = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    dense = draw(arrays(np.float64, (n_row, n_col), elements=ENTRIES))
    stored = draw(arrays(np.bool_, (n_row, n_col)))
    rows, cols = np.nonzero(stored)
    index = draw(st.sampled_from([np.int32, np.int64]))
    a = sp.csr_matrix((n_row, n_col))
    a.data = dense[rows, cols]
    a.indices = cols.astype(index)
    a.indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1)))).astype(index)
    x = draw(arrays(np.float64, n_col, elements=ENTRIES))
    return a, x


def storage(a: SparseSym) -> tuple:
    c = a.csr
    parts = (c.indptr, c.indices, c.data)
    return (c.shape, *(x.dtype.str for x in parts), *(x.tobytes() for x in parts))


@st.composite
def assembled(draw, n):
    """An n x n operator as assembly builds it: from random (mostly
    unsymmetric, duplicate-laden) COO triplets, whose entries may cancel to
    +0 or -0, or an empty matrix."""
    k = draw(st.integers(0, 4 * n))
    if k == 0 and draw(st.booleans()):
        return SparseSym(csr=sp.csr_matrix((n, n)))
    index = arrays(np.int64, k, elements=st.integers(0, n - 1))
    rows, cols = draw(index), draw(index)
    vals = draw(arrays(np.float64, k, elements=ENTRIES))
    return SparseSym.from_coo(rows, cols, vals, n)


@given(data=st.data())
def test_sums_and_submatrices_are_stored_as_if_finalized(data):
    n = data.draw(st.integers(1, 7))
    a, b = data.draw(assembled(n)), data.draw(assembled(n))
    assert storage(a) == storage(SparseSym.finalize(a.csr))
    total = a + b
    assert storage(total) == storage(SparseSym.finalize(a.csr + b.csr))
    keep = np.array(
        data.draw(st.lists(st.integers(0, n - 1), unique=True).map(sorted)), dtype=np.int64
    )
    for m in (a, total):
        sub = m.submatrix(keep)
        assert storage(sub) == storage(SparseSym.finalize(m.csr[np.ix_(keep, keep)]))
        np.testing.assert_array_equal(sub.toarray(), m.toarray()[np.ix_(keep, keep)])


@given(data=st.data())
def test_matvec_matches_scipy_byte_for_byte(data):
    n = data.draw(st.integers(1, 7))
    a = data.draw(assembled(n))
    x = data.draw(arrays(np.float64, n, elements=ENTRIES))
    assert a.matvec(x).tobytes() == (a.csr @ x).tobytes()


def test_submatrix_needs_a_strictly_increasing_index_set():
    a = SparseSym.finalize(sp.csr_matrix(spd_from(0, 4)))
    for keep in ([2, 0], [1, 1], [[0, 1]]):
        with pytest.raises(ValueError):
            a.submatrix(np.array(keep))


@given(case=csr_and_vector())
def test_csr_operator_matches_scipy_byte_for_byte(case):
    a, x = case
    op = CsrOperator(a)
    assert op.indices.dtype == a.indices.dtype and op.data is a.data
    assert (op @ x).tobytes() == (a @ x).tobytes()


def test_csr_operator_rejects_a_wrong_length():
    op = CsrOperator(sp.csr_matrix(np.ones((2, 3))))
    with pytest.raises(ValueError):
        op @ np.ones(2)


def test_pivot_ratio():
    a = SparseSym.finalize(sp.csr_matrix(np.diag([4.0, 1.0, 2.0])))
    assert factorize(a).pivot_ratio == 0.25
    # singular to working precision, yet every pivot is positive
    tiny = SparseSym.finalize(sp.csr_matrix(np.diag([1.0, 1e-14])))
    assert factorize(tiny).pivot_ratio == 1e-14


def symmetric_case(kind: str, n: int, seed: int, density: float) -> np.ndarray:
    """A symmetric matrix with a random sparsity pattern: diagonally
    dominant ("spd"), with a random diagonal ("indefinite"), or B B^T with
    B of rank below n ("singular", so singular to working precision)."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    if kind == "singular":
        b[:, rng.integers(n)] = 0.0
        return b @ b.T
    a = b + b.T
    np.fill_diagonal(a, rng.standard_normal(n))
    if kind == "spd":
        np.fill_diagonal(a, np.abs(a).sum(axis=1) + 1.0)
    return a


@given(
    kind=st.sampled_from(["spd", "indefinite", "singular"]),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.02, 1.0),
)
@example(kind="spd", n=1, seed=0, density=1.0)
@example(kind="indefinite", n=1, seed=1, density=1.0)
@example(kind="singular", n=2, seed=0, density=1.0)
def test_pivots_are_the_diagonal_of_u_byte_for_byte(kind, n, seed, density):
    a = SparseSym.finalize(sp.csr_matrix(symmetric_case(kind, n, seed, density)))
    seen = []

    def spy(lu):
        pivots = _pivots(lu)
        seen.append((pivots.tobytes(), lu.U.diagonal()))
        return pivots

    with mock.patch.object(linalg, "_pivots", spy):
        try:
            factor = factorize(a)
        except NotSpdError:
            factor = None
    if not seen:  # exactly singular: SuperLU stopped before any pivot was read
        assert factor is None
        return
    (got, diagonal), = seen
    assert got == diagonal.tobytes()
    spd = np.all(np.isfinite(diagonal)) and np.all(diagonal > 0.0)
    assert (factor is not None) == spd
    if spd:
        assert factor.pivot_ratio == float(diagonal.min() / diagonal.max())


def layout(fields) -> type:
    return type("Layout", (ctypes.Structure,), {"_fields_": fields})


OBJECT = linalg._SuperLUObject._fields_
STORE = linalg._SCformat._fields_
# SuperLU built with a 64-bit int_t
WIDE = layout([
    (name, ctypes.c_int64 if name in ("nrow", "ncol") else kind)
    for name, kind in linalg._SuperMatrix._fields_
])


@pytest.mark.parametrize(
    "name, view, part",
    [
        # a factor object with one more field before m and n
        ("_SuperLUObject", layout([OBJECT[0], ("extra", ctypes.c_void_p), *OBJECT[1:]]), "shape"),
        (
            "_SuperLUObject",
            layout([(f, WIDE if f in ("lower", "upper") else kind) for f, kind in OBJECT]),
            "shape",
        ),
        # nnz and nsuper swapped in the store of L
        ("_SCformat", layout([STORE[1], STORE[0], *STORE[2:]]), "nnz"),
    ],
)
def test_pivot_reader_rejects_a_layout_it_does_not_match(monkeypatch, name, view, part):
    a = SparseSym.finalize(sp.csr_matrix(symmetric_case("spd", 30, 3, 0.2)))
    assert factorize(a).n == 30
    monkeypatch.setattr(linalg, name, view)
    with pytest.raises(SolverFailure, match=f"scipy {scipy.__version__}") as err:
        factorize(a)
    assert f"factor's {part} differs" in str(err.value)


def test_factor_retains_less_memory_than_its_input():
    # reading lu.U would cache CSC copies of L and U on the factor: 7 MB here
    m = 120
    t = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    a = SparseSym.finalize(sp.kronsum(t, t, format="csr"))
    size = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        factor = factorize(a)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert factor.n == 14400 and size > 900_000
    assert retained < size


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


@pytest.mark.parametrize("n, seed", [(3, 10), (5, 92), (5, 163), (6, 190), (7, 139)])
def test_condition_number_passes_a_lower_eigenvalue(n, seed):
    # on these the start vector of one side is nearly orthogonal to its top
    # eigenvector, and the residual first converges on a lower eigenvalue
    dense = spd_from(seed, n)
    a = SparseSym.finalize(sp.csr_matrix(dense))
    assert condition_number(a) == pytest.approx(np.linalg.cond(dense, 2), rel=1e-3)


def test_condition_number_edge_cases():
    one = SparseSym.finalize(sp.csr_matrix(np.array([[3.0]])))
    assert condition_number(one) == 1.0
    indefinite = SparseSym.finalize(sp.csr_matrix(np.diag([1.0, -1.0])))
    assert condition_number(indefinite) == np.inf
    # deterministic across calls
    a = SparseSym.finalize(sp.csr_matrix(spd_from(42, 15)))
    assert condition_number(a) == condition_number(a)
    # a 1x1 matrix is SPD only with a positive finite entry
    for entry in (-3.0, 0.0, np.nan):
        one = SparseSym.finalize(sp.csr_matrix(np.array([[entry]])))
        assert condition_number(one) == np.inf, entry
    for entry in (3.0, 5e-324):
        one = SparseSym.finalize(sp.csr_matrix(np.array([[entry]])))
        assert condition_number(one) == 1.0 == inverse_estimate(one).bound, entry


@given(n=st.integers(2, 40), seed=st.integers(0, 10**6), log_scale=st.floats(0.0, 3.0))
def test_condition_number_below_the_gershgorin_bound(n, seed, log_scale):
    # kappa = lambda_A * lambda_inv with lambda_A a Rayleigh quotient, so it
    # is at most G(A) * lambda_inv; the A and inverse sides run apart give
    # the same float as one call
    rng = np.random.default_rng(seed)
    d = np.exp(log_scale * rng.standard_normal(n))
    dense = d[:, None] * spd_from(seed, n) * d[None, :]
    a = SparseSym.finalize(sp.csr_matrix(dense))
    kappa = condition_number(a)
    inverse = inverse_estimate(a)
    gershgorin = np.abs(a.toarray()).sum(axis=1).max()
    assert inverse.bound == pytest.approx(
        gershgorin * inverse.value * (1 + BOUND_MARGIN), rel=1e-12
    )
    assert kappa <= inverse.bound
    assert condition_number(a, inverse=inverse).hex() == kappa.hex()


@given(case=csr_and_vector(), seed=st.integers(0, 1000))
def test_take_rows_matches_an_injection_applied_after(case, seed):
    # row r of the gathered operator is row rows[r] (or empty), so applying
    # it is bit for bit the 0/1 injection applied to the operator's result
    a, x = case
    rows = np.random.default_rng(seed).integers(-1, a.shape[0], 7)
    inject = sp.csr_matrix(
        (np.ones((rows >= 0).sum()), (np.flatnonzero(rows >= 0), rows[rows >= 0])),
        shape=(rows.size, a.shape[0]),
    )
    got = CsrOperator(a).take_rows(rows) @ x
    assert got.tobytes() == (inject @ (a @ x)).tobytes()
