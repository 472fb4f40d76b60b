"""Symmetric sparse matrices, SPD factorization, condition number estimation.

Assembled operators are kept in CSR form, finalized to an exactly symmetric
pattern.  Factorization is a sparse direct solve with a fill-reducing
symmetric ordering and diagonal pivoting, so a non-positive pivot reliably
flags a non-SPD operator.  Condition numbers come from power iteration on
the operator and inverse iteration through its factorization.  Each stops
when its residual certifies that the Rayleigh quotient is close to *an*
eigenvalue; that need not be the extreme one, and since Rayleigh quotients
never exceed the largest eigenvalue, the condition number is a lower bound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NotSpdError, SolverFailure

log = logging.getLogger(__name__)


@dataclass
class SparseSym:
    """CSR-stored symmetric matrix.

    Finalization symmetrizes exactly ((A + A^T)/2), sums duplicates, drops
    explicit zeros and sorts column indices, so equal assemblies produce
    bit-identical storage.
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
        return self.csr @ x

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()

    def submatrix(self, keep: np.ndarray) -> "SparseSym":
        """Principal submatrix on the given index set."""
        return SparseSym.finalize(self.csr[np.ix_(keep, keep)])

    def __add__(self, other: "SparseSym") -> "SparseSym":
        return SparseSym.finalize(self.csr + other.csr)


@dataclass
class SpdFactor:
    """Cholesky-type factorization handle with a solve method."""

    n: int
    _lu: object

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=float))


def factorize(a: SparseSym) -> SpdFactor:
    """Factor an SPD matrix; raises NotSpdError on a non-positive pivot."""
    if a.n == 0:
        raise SolverFailure("cannot factor an empty matrix")
    try:
        lu = splu(
            a.csr.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # exactly singular
        raise NotSpdError(f"factorization failed: {exc}") from exc
    pivots = lu.U.diagonal()
    if not np.all(np.isfinite(pivots)) or np.any(pivots <= 0.0):
        raise NotSpdError("matrix has a non-positive pivot; it is not SPD")
    return SpdFactor(n=a.n, _lu=lu)


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


def _extreme_eigenvalue(apply_op, n: int, rng, tol: float, max_iter: int):
    """Estimate of the largest eigenvalue of a symmetric positive operator by
    power iteration.

    Stops when the residual certifies, to a relative tolerance, that the
    Rayleigh quotient is close to some eigenvalue.  It does not certify that
    this is the largest one: an iterate can settle on a lower eigenvalue, so
    the estimate is a lower bound.  Returns (estimate, converged).
    """
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    theta = 0.0
    for _ in range(max_iter):
        av = apply_op(v)
        theta = float(v @ av)
        resid = np.linalg.norm(av - theta * v)
        if theta > 0.0 and resid <= tol * theta:
            return theta, True
        nrm = np.linalg.norm(av)
        if nrm == 0.0:
            raise SolverFailure("power iteration hit a zero vector")
        v = av / nrm
    return theta, False


def condition_number(
    a: SparseSym,
    tol: float = 1e-3,
    max_iter: int = 10000,
    seed: int = 0,
) -> float:
    """2-norm condition number estimate of an SPD matrix.

    The product of power-iteration estimates of the largest eigenvalues of
    the matrix and of its inverse.  Each is a Rayleigh quotient, so the
    result is a lower bound on the true condition number.  Convergence only
    certifies eigenvalues, not the extreme ones, so even a converged estimate
    can fall short by more than ``tol`` when an iteration stops at a lower
    eigenvalue.

    Deterministic for a fixed seed.  Returns inf if the matrix is not SPD.
    If an iteration hits the cap the current estimate is returned and a
    diagnostic is logged.
    """
    if a.n == 1:
        return 1.0
    try:
        factor = factorize(a)
    except NotSpdError as exc:
        log.warning("condition number reported as inf: %s", exc)
        return np.inf
    rng = np.random.default_rng(seed)
    lam_max, ok_max = _extreme_eigenvalue(a.matvec, a.n, rng, tol, max_iter)
    inv_max, ok_min = _extreme_eigenvalue(factor.solve, a.n, rng, tol, max_iter)
    if lam_max <= 0.0 or inv_max <= 0.0:
        raise SolverFailure("eigenvalue estimates must be positive for SPD input")
    if not (ok_max and ok_min):
        log.warning(
            "condition number estimate did not converge in %d iterations; "
            "returning a lower bound",
            max_iter,
        )
    return float(lam_max * inv_max)
