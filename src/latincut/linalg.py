"""Symmetric sparse matrices, SPD factorization, condition number estimation.

Assembled operators are kept as `SparseSym`: CSR storage that is exactly
symmetric and canonical (sorted column indices, no duplicates, no stored
zeros).  Only `SparseSym.from_coo` and `SparseSym.finalize` establish that
invariant; sums and principal submatrices keep it without re-finalizing.
Factorization is a sparse direct solve with a fill-reducing
symmetric ordering and diagonal pivoting, so a non-positive pivot reliably
flags a non-SPD operator.  Condition numbers come from power iteration on
the operator (the A side) and inverse iteration through its factorization
(the inverse side).  Each stops when its residual certifies that the
Rayleigh quotient is close to *an* eigenvalue; that need not be the extreme
one.  A start vector nearly orthogonal to the top eigenvector settles on a
lower eigenvalue, so each side then checks `CONDITION_CHECK_ITER` steps of
power iteration orthogonal to its iterate and resumes from any vector whose
Rayleigh quotient is higher.  The check can miss a higher eigenvalue, and
since Rayleigh quotients never exceed the largest eigenvalue, the condition
number is a lower bound.

Both sides stop at the relative tolerance `CONDITION_TOL` or after
`CONDITION_MAX_ITER` iterations.  The two sides can run apart, bit for bit:
the A side starts from the first draw of `default_rng(CONDITION_SEED)` and
the inverse side from the second draw of its own such generator, and each
draws the start vectors of its checks after that.  The inverse side also
returns an upper bound on the whole estimate: the A side's Rayleigh
quotient is at most the Gershgorin bound G(A) = max_i sum_j |a_ij|, so no
estimate exceeds G(A) times the inverse side's, up to rounding that
`BOUND_MARGIN` covers.  A caller that wants only the largest of several
estimates can skip every A side whose bound is below an estimate already
made.  Any Ritz value of A is also at most lambda_max(A) <= G(A), so the
bound holds for any A-side method that returns one.

`CsrOperator` and `SparseSym.matvec` apply a CSR matrix through one call
of scipy's compiled kernel `_sparsetools.csr_matvec` (`_csr_product`), the
routine `csr_matrix @ vector` ends in after its dispatch and dtype checks.
The LaTIn loop applies a handful of small fixed operators thousands of
times, and on matrices of a few hundred rows those checks cost about as
much as the product; power iteration, on operators of a few thousand
rows, would repeat them for every product too.  The kernel is private to
scipy, but calling it directly keeps every sum in the same order, so the
results are bit-identical to the public product.

`factorize` reads the pivots, the diagonal of U, straight from SuperLU's
supernodal L store through a `ctypes` view of scipy's factor object.  The
public route, the diagonal of the factor's `U` attribute, makes scipy
build CSC copies of both L and U (12 bytes per stored entry) and cache
them on the factor for its whole life; those copies outweigh the
operator many times over.  The view checks itself on every call against
the factor's public attributes (shape, row and column permutations,
stored-entry count) and raises `SolverFailure`, naming the scipy
version, on any mismatch.  It was checked bit for bit against the public
route on scipy 1.17.1.  Because a scipy release may rename or drop the
kernel or change the factor's layout, and this module is imported by
every command, `pyproject.toml` caps scipy below 1.18.
"""

from __future__ import annotations

import ctypes
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu

from .errors import NotSpdError, SolverFailure

log = logging.getLogger(__name__)


@dataclass
class SparseSym:
    """CSR-stored symmetric matrix.

    Invariant: the storage is exactly symmetric and canonical (sorted column
    indices, no duplicates, no stored zeros of either sign).  Finalization
    establishes it: it symmetrizes exactly ((A + A^T)/2), sums duplicates,
    drops explicit zeros and sorts column indices, so equal assemblies
    produce bit-identical storage.  Sums and principal submatrices keep it
    without finalizing again, bit for bit as if they had been finalized:
    on an exactly symmetric matrix (A + A^T)/2 is A itself.  Only a matrix
    that already holds the invariant (an empty one, say) may be passed to
    the constructor directly.
    """

    csr: sp.csr_matrix

    def __post_init__(self):
        if self.csr.shape[0] != self.csr.shape[1]:
            raise ValueError("matrix must be square")

    @classmethod
    def from_coo(cls, rows, cols, vals, n: int) -> "SparseSym":
        a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        return cls.finalize(a)

    @classmethod
    def finalize(cls, a: sp.spmatrix) -> "SparseSym":
        a = a.tocsr()
        a = (a + a.T) * 0.5
        a = a.tocsr()
        a.sum_duplicates()
        a.eliminate_zeros()
        a.sort_indices()
        return cls(csr=a)

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def indptr(self) -> np.ndarray:
        return self.csr.indptr

    @property
    def indices(self) -> np.ndarray:
        return self.csr.indices

    @property
    def data(self) -> np.ndarray:
        return self.csr.data

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return _csr_product(self.csr, x)

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()

    def submatrix(self, keep: np.ndarray) -> "SparseSym":
        """Principal submatrix on a strictly increasing index set.

        Slicing keeps the order of each row's columns, and a principal
        submatrix of a symmetric matrix is symmetric, so the invariant holds
        without finalizing.
        """
        keep = np.asarray(keep)
        if keep.ndim != 1 or np.any(keep[1:] <= keep[:-1]):
            raise ValueError("submatrix needs a strictly increasing index set")
        return SparseSym(csr=self.csr[np.ix_(keep, keep)])

    def __add__(self, other: "SparseSym") -> "SparseSym":
        # scipy adds two canonical CSR matrices into a canonical one and drops
        # entries that cancel to zero; elementwise sums of exactly symmetric
        # matrices are exactly symmetric
        return SparseSym(csr=self.csr + other.csr)


def _csr_product(a, x: np.ndarray) -> np.ndarray:
    """a @ x for a float CSR matrix or `CsrOperator` ``a`` and a vector
    ``x``, through the compiled kernel, bit for bit like `csr_matrix @ x`."""
    n_row, n_col = a.shape
    if x.shape != (n_col,):
        raise ValueError(f"cannot apply a {a.shape} operator to shape {x.shape}")
    y = np.zeros(n_row)
    csr_matvec(n_row, n_col, a.indptr, a.indices, a.data, x, y)
    return y


class CsrOperator:
    """A fixed sparse matrix applied to float vectors by `op @ x`, bit for
    bit like `csr_matrix @ x`.  A float CSR matrix is held without copying
    its arrays; any other is converted once."""

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(self, a: sp.spmatrix):
        a = a.tocsr().astype(float, copy=False)
        self.shape = a.shape
        self.indptr, self.indices, self.data = a.indptr, a.indices, a.data

    __matmul__ = _csr_product

    def take_rows(self, rows: np.ndarray) -> CsrOperator:
        """The operator whose row r is row rows[r] of this one, or empty
        where rows[r] < 0.  Each row keeps its entries in order, so every
        output entry is summed exactly as here."""
        taken = rows >= 0
        counts = np.zeros(rows.size, dtype=self.indptr.dtype)
        counts[taken] = np.diff(self.indptr)[rows[taken]]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        # entry e of output row r is entry e - indptr[r] + self.indptr[rows[r]]
        shift = self.indptr[np.maximum(rows, 0)] - indptr[:-1]
        pick = np.arange(indptr[-1]) + np.repeat(shift, counts)
        out = (self.data[pick], self.indices[pick], indptr)
        return CsrOperator(sp.csr_matrix(out, shape=(rows.size, self.shape[1])))


@dataclass
class SpdFactor:
    """Cholesky-type factorization handle with a solve method.

    ``_lu`` is the scipy `SuperLU` factor, and it holds SuperLU's own
    storage of L and U only: the pivots were read in place (`_pivots`), so
    no CSC copy of L or U is cached on it.  ``pivot_ratio`` is min/max of
    the (positive) pivots: a factorization can succeed with positive pivots
    on a matrix that is singular to working precision, and a tiny ratio is
    what shows it.
    """

    n: int
    _lu: object
    pivot_ratio: float

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=float))


# A view of scipy's factor object (`SuperLUObject` in
# scipy/sparse/linalg/_dsolve/_superluobject.h) and of the SuperLU structs
# it holds, up to the last field `_pivots` reads.  SuperLU's int_t is a C
# int in scipy's build.
class _SuperMatrix(ctypes.Structure):
    _fields_ = [
        ("Stype", ctypes.c_int),
        ("Dtype", ctypes.c_int),
        ("Mtype", ctypes.c_int),
        ("nrow", ctypes.c_int),
        ("ncol", ctypes.c_int),
        ("Store", ctypes.c_void_p),
    ]


class _SCformat(ctypes.Structure):
    """The supernodal store of L.  Supernode s holds columns sup_to_col[s]
    to sup_to_col[s + 1] - 1 as one dense block whose first rows are those
    columns, so the diagonal of U, which the block holds too, is entry
    j - sup_to_col[col_to_sup[j]] of column j, which starts at
    nzval[nzval_colptr[j]].  nzval has nzval_colptr[n] entries, more than
    ``nnz``, which counts the lower triangle only."""

    _fields_ = [
        ("nnz", ctypes.c_int),
        ("nsuper", ctypes.c_int),
        ("nzval", ctypes.POINTER(ctypes.c_double)),
        ("nzval_colptr", ctypes.POINTER(ctypes.c_int)),
        ("rowind", ctypes.POINTER(ctypes.c_int)),
        ("rowind_colptr", ctypes.POINTER(ctypes.c_int)),
        ("col_to_sup", ctypes.POINTER(ctypes.c_int)),
        ("sup_to_col", ctypes.POINTER(ctypes.c_int)),
    ]


class _NCformat(ctypes.Structure):
    _fields_ = [("nnz", ctypes.c_int)]  # the first field of U's store


class _SuperLUObject(ctypes.Structure):
    _fields_ = [
        ("ob_base", ctypes.c_char * object.__basicsize__),
        ("m", ctypes.c_ssize_t),
        ("n", ctypes.c_ssize_t),
        ("lower", _SuperMatrix),  # L
        ("upper", _SuperMatrix),  # U
        ("perm_r", ctypes.POINTER(ctypes.c_int)),
        ("perm_c", ctypes.POINTER(ctypes.c_int)),
    ]


def _pivots(lu) -> np.ndarray:
    """The diagonal of U of a scipy `SuperLU` factor, bit for bit the
    diagonal of its `U` attribute, read in place from the supernodal L
    store, so that scipy builds no CSC copy of L or U.

    The view is checked against the factor's public attributes before its
    numbers are read: the shape (and the order of L and U), then the
    contents of ``perm_r`` and ``perm_c``, then nnz(L) + nnz(U) against
    ``lu.nnz``.  Each step follows pointers only the one before vouched
    for.  Any mismatch raises `SolverFailure` naming the scipy version.
    """
    n = lu.shape[1]
    obj = _SuperLUObject.from_address(id(lu))

    def check(ok: bool, what: str):
        if not ok:
            raise SolverFailure(
                f"scipy {scipy.__version__}: the SuperLU factor's {what} differs "
                "from the layout linalg reads its pivots from (checked on scipy "
                "1.17.1)"
            )

    def ints(ptr, size: int) -> np.ndarray:
        return np.ctypeslib.as_array(ptr, (size,))

    dims = (obj.m, obj.n, obj.lower.nrow, obj.lower.ncol, obj.upper.nrow, obj.upper.ncol)
    check(dims == lu.shape * 3, "shape")
    check(np.array_equal(ints(obj.perm_r, n), lu.perm_r), "perm_r")
    check(np.array_equal(ints(obj.perm_c, n), lu.perm_c), "perm_c")
    store = _SCformat.from_address(obj.lower.Store)
    check(store.nnz + _NCformat.from_address(obj.upper.Store).nnz == lu.nnz, "nnz")
    colptr = ints(store.nzval_colptr, n + 1)
    first = ints(store.sup_to_col, store.nsuper + 1)[ints(store.col_to_sup, n)]
    nzval = np.ctypeslib.as_array(store.nzval, (int(colptr[n]),))
    return nzval[colptr[:-1] + np.arange(n) - first]


def factorize(a: SparseSym) -> SpdFactor:
    """Factor an SPD matrix; raises NotSpdError on a non-positive pivot.

    The pivots come from `_pivots`, which reads them in place and checks
    its view of the factor first (`SolverFailure` if scipy's layout
    differs), so the factor keeps no CSC copy of L or U."""
    if a.n == 0:
        raise SolverFailure("cannot factor an empty matrix")
    try:
        # the CSR arrays of an exactly symmetric matrix with sorted indices
        # are its CSC arrays, so no transposed copy is needed
        lu = splu(
            sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.csr.shape),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # exactly singular
        raise NotSpdError(f"factorization failed: {exc}") from exc
    pivots = _pivots(lu)
    if not np.all(np.isfinite(pivots)) or np.any(pivots <= 0.0):
        raise NotSpdError("matrix has a non-positive pivot; it is not SPD")
    return SpdFactor(n=a.n, _lu=lu, pivot_ratio=float(pivots.min() / pivots.max()))


@dataclass
class DenseFactor:
    """Dense Cholesky handle, interchangeable with SpdFactor."""

    n: int
    _c: tuple

    def solve(self, b: np.ndarray) -> np.ndarray:
        # like SpdFactor, a non-finite b gives a non-finite result instead of
        # raising, so the LaTIn divergence check can say where it arose
        return scipy.linalg.cho_solve(
            self._c, np.asarray(b, dtype=float), check_finite=False
        )


def factorize_dense(a: np.ndarray) -> DenseFactor:
    """Dense Cholesky; raises NotSpdError if the matrix is not SPD."""
    a = np.asarray(a, dtype=float)
    try:
        c = scipy.linalg.cho_factor(a)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"dense factorization failed: {exc}") from exc
    return DenseFactor(n=a.shape[0], _c=c)


# the settings of both sides of every condition number estimate
CONDITION_TOL = 1e-3
CONDITION_MAX_ITER = 10000
CONDITION_SEED = 0
CONDITION_CHECK_ITER = 10


def _norm(x: np.ndarray) -> float:
    """2-norm of a float vector, bit for bit what np.linalg.norm computes."""
    return math.sqrt(x.dot(x))


def _extreme_eigenvalue(apply_op, n: int, rng):
    """Estimate of the largest eigenvalue of a symmetric positive operator by
    power iteration.

    Stops when the residual certifies, to `CONDITION_TOL` relative, that
    the Rayleigh quotient is close to some eigenvalue and `_higher_direction`
    finds no vector with a higher one; from such a vector it iterates on.
    It does not certify that this is the largest eigenvalue: the check can
    miss one, so the estimate is a lower bound.  Returns (estimate,
    converged).
    """
    v = rng.standard_normal(n)
    v /= _norm(v)
    theta = 0.0
    for _ in range(CONDITION_MAX_ITER):
        av = apply_op(v)
        theta = float(v @ av)
        resid = _norm(av - theta * v)
        if theta > 0.0 and resid <= CONDITION_TOL * theta:
            higher = _higher_direction(apply_op, v, theta, rng)
            if higher is None:
                return theta, True
            v = higher
            continue
        nrm = _norm(av)
        if nrm == 0.0:
            raise SolverFailure("power iteration hit a zero vector")
        v = av / nrm
    return theta, False


def _higher_direction(apply_op, v: np.ndarray, theta: float, rng):
    """A unit vector whose Rayleigh quotient exceeds ``theta`` by more than
    `CONDITION_TOL` relative, or None if `CONDITION_CHECK_ITER` steps of
    power iteration orthogonal to the unit vector ``v`` find none.

    Every Rayleigh quotient orthogonal to ``v`` is at most the largest
    eigenvalue, so a converged ``theta`` within `CONDITION_TOL` of it never
    yields a vector and the estimate keeps its value.
    """
    w = rng.standard_normal(v.size)
    for _ in range(CONDITION_CHECK_ITER):
        w -= (v @ w) * v
        nrm = _norm(w)
        if nrm == 0.0:
            return None
        w /= nrm
        aw = apply_op(w)
        if w @ aw > (1.0 + CONDITION_TOL) * theta:
            return w
        w = aw
    return None


# Relative margin on the bound of `InverseEstimate`.  The A side returns
# fl(v . fl(A v)) for a computed unit vector v.  Rounding in the product,
# the dot product and the normalization lifts it above the exact Rayleigh
# quotient, which is at most lambda_max(A) <= G(A), by at most about
# (2n + 2m + 10) u G(A), where n is the order, m the widest row and
# u = 2**-53; the row sums that give G(A) fall short by at most (m - 1) u
# G(A), and the final products add a few u.  That is below 1e-6 for any
# order under 4e9.
BOUND_MARGIN = 1e-6


class InverseEstimate(NamedTuple):
    """The inverse side of `condition_number` and the bound it implies.

    ``value`` estimates lambda_max(A^-1), inf when A is not SPD;
    ``converged`` says whether its iteration met the tolerance; ``bound`` is
    G(A) * value * (1 + BOUND_MARGIN), which no `condition_number` of A with
    the same settings exceeds (inf when A is not SPD, NaN if the arithmetic
    gave NaN).  A 1x1 SPD matrix runs no iteration: its kappa is 1.0, and so
    are its value and bound.
    """

    value: float
    converged: bool
    bound: float


def inverse_estimate(a: SparseSym) -> InverseEstimate:
    """Factorize A and run the inverse side of `condition_number`, bit for
    bit as that call runs it."""
    try:
        factor = factorize(a)
    except NotSpdError as exc:
        log.warning("condition number reported as inf: %s", exc)
        return InverseEstimate(np.inf, True, np.inf)
    if a.n == 1:
        return InverseEstimate(1.0, True, 1.0)
    rng = np.random.default_rng(CONDITION_SEED)
    rng.standard_normal(a.n)  # the A side's start vector: the first draw
    value, converged = _extreme_eigenvalue(factor.solve, a.n, rng)
    if value <= 0.0:
        raise SolverFailure("eigenvalue estimates must be positive for SPD input")
    gershgorin = float(abs(a.csr).sum(axis=1).max())
    return InverseEstimate(value, converged, gershgorin * value * (1.0 + BOUND_MARGIN))


def condition_number(a: SparseSym, inverse: InverseEstimate | None = None) -> float:
    """2-norm condition number estimate of an SPD matrix.

    The product of power-iteration estimates of the largest eigenvalues of
    the matrix and of its inverse.  Each is a Rayleigh quotient, so the
    result is a lower bound on the true condition number.  Convergence only
    certifies eigenvalues, not the extreme ones, so even a converged estimate
    can fall short by more than `CONDITION_TOL` when an iteration stops at a
    lower eigenvalue.

    ``inverse``, when given, is `inverse_estimate(a)` computed earlier; only
    the A side then runs, and the result is the same float.

    Deterministic.  Returns 1.0 for a 1x1 matrix with a positive finite
    entry and inf for any matrix that is not SPD.  If an iteration hits
    `CONDITION_MAX_ITER` the current estimate is returned and a diagnostic
    is logged.
    """
    if inverse is None:
        inverse = inverse_estimate(a)
    if inverse.value == np.inf:  # not SPD
        return np.inf
    if a.n == 1:
        return 1.0
    rng = np.random.default_rng(CONDITION_SEED)
    lam_max, ok_max = _extreme_eigenvalue(a.matvec, a.n, rng)
    if lam_max <= 0.0:
        raise SolverFailure("eigenvalue estimates must be positive for SPD input")
    if not (ok_max and inverse.converged):
        log.warning(
            "condition number estimate did not converge in %d iterations; "
            "returning a lower bound",
            CONDITION_MAX_ITER,
        )
    return float(lam_max * inverse.value)
