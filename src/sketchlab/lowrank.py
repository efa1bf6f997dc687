"""Rank-k approximation from a sketch basis, approximate SVD and error metrics.

Given a basis ``V`` for the row space of a sketch, the rank-k approximation
is the best rank-k matrix inside that row space: truncate ``A @ V`` to rank
k and rotate back.  The top directions of ``A @ V`` come from the kernel of
the frequent-directions shrink rounds, `linalg._gram_eigh` (one ``eigh`` of
the smaller Gram matrix), with one SVD of ``A @ V`` when it declines or
``A @ V`` has too few nonzero directions.  The factors are kept separate
(`left @ right_basis.T`) so that the full ``n x d`` approximation is never
materialised.  The exact reference `best_rank_k` takes one SVD, of the
``d x d`` CholeskyQR2 R factor when ``A`` is tall.

Error ratios against the optimal truncated SVD take their denominators from
the singular values that `best_rank_k` keeps from its one SVD:
``sigma_{k+1}`` and ``sqrt(sum_{i>k} sigma_i^2)``.  The numerators are the
approximate residual's norms: the Frobenius norm summed over row chunks, the
spectral norm by a Lanczos solve (ARPACK through ``scipy.sparse.linalg.svds``)
on the implicitly represented residual.  No ``n x d`` residual is formed.
For a tall ``a = Q R`` whose reference keeps its ``d x d`` R factor, an
approximation in projection form (``left = a @ Z``, ``Z = right_basis``) has
the residual norms of ``R - (R Z) Z^T``, so both numerators are taken on R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, svds

from .linalg import (
    Matrix, NumericalError, SvdResult, _fix_svd_signs, _gram_eigh, _row_chunks,
    as_dense, check_finite, fro_norm, svd,
)

__all__ = [
    "LowRankFactors",
    "ErrorReport",
    "best_rank_k",
    "approx_from_basis",
    "approx_svd",
    "error_report",
    "residual_spectral_norm",
    "SpectralNorm",
]

_ORTHO_TOL = 1e-8
_LANCZOS_TOL = 1e-12
# CholeskyQR2 falls back to Householder when its first-pass Q deviates from
# orthonormal by more than this; the deviation grows like cond(x)^2 * eps.
_CHOLQR_TOL = 0.1


@dataclass(frozen=True)
class LowRankFactors:
    """Rank-k factors ``approx = left @ right_basis.T``.

    ``left`` is ``n x k`` (the scaled column factor), ``right_basis`` is
    ``d x k`` with orthonormal columns.  ``spectrum`` holds all
    ``min(n, d)`` singular values of the approximated matrix, descending,
    when they are known: `best_rank_k` keeps them, and `error_report`
    requires them of its exact reference.  ``r_factor`` is the ``d x d``
    upper-triangular R of a tall approximated matrix ``a = Q R``, which
    `best_rank_k` keeps (``None`` for square or wide input).
    ``projection`` marks factors in projection form, ``left = a @
    right_basis``, as `best_rank_k` and `approx_from_basis` build them;
    `error_report` takes such an approximation's residual norms on the
    reference's R factor.
    """

    left: np.ndarray
    right_basis: np.ndarray
    k: int
    spectrum: Optional[np.ndarray] = None
    r_factor: Optional[np.ndarray] = None
    projection: bool = False

    def __post_init__(self):
        if self.left.shape[1] != self.k or self.right_basis.shape[1] != self.k:
            raise ValueError("factor widths must equal k")


@dataclass(frozen=True)
class ErrorReport:
    """Error ratios of an approximation against the optimal one, plus the
    wall time spent constructing the approximation and ``spec_matvecs``,
    the residual products the spectral numerator's Lanczos solve took:
    ``d x d`` products with ``R - (R Z) Z^T`` on the R route of
    `error_report`, products with the ``n x d`` residual otherwise."""

    fro_ratio: float
    spec_ratio: float
    elapsed_seconds: float
    spec_matvecs: int = 0

    def __post_init__(self):
        for name in ("fro_ratio", "spec_ratio"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} is not finite")
            if value < 1.0 - 1e-8:
                raise ValueError(
                    f"{name}={value} is below 1: the optimal approximation "
                    "cannot be beaten, this indicates a numerical bug"
                )


def _r_factor(x: Matrix) -> np.ndarray:
    """A ``d x d`` upper-triangular R with ``x = Q R`` for some ``Q`` with
    orthonormal columns, for a tall dense or CSR ``x``.

    CholeskyQR2 (Fukaya, Nakatsukasa, Yanagisawa and Yamamoto, ScalA 2014):
    ``R1 = chol(x^T x)^T``, ``Q1 = x R1^-1``, ``R2 = chol(Q1^T Q1)^T`` and
    ``R = R2 R1``.  The Gram matrix of CSR input is the sparse product
    ``x^T x``, and ``Q1`` is formed and reduced one `linalg._row_chunks`
    slice of ``x`` at a time.  When either Cholesky factorisation fails,
    or ``Q1`` is more than ``_CHOLQR_TOL`` from orthonormal (condition
    numbers beyond about 1e7, rank deficiency), R comes from a Householder
    QR of the densified ``x`` instead.
    Non-finite entries raise ``ValueError``.
    """
    if sparse.issparse(x):
        check_finite(x)
        gram = (x.T @ x).toarray()
    else:
        x = as_dense(x)
        gram = x.T @ x
    d = x.shape[1]
    try:
        r1 = np.linalg.cholesky(gram).T
        r1_inv = np.linalg.inv(r1)
        gram = np.zeros((d, d))
        for rows in _row_chunks(x):
            q1 = x[rows] @ r1_inv
            gram += q1.T @ q1
        # written so that a NaN deviation also falls back
        if not np.abs(gram - np.eye(d)).max() <= _CHOLQR_TOL:
            raise np.linalg.LinAlgError("Q1 is not orthonormal")
        return np.linalg.cholesky(gram).T @ r1
    except np.linalg.LinAlgError:
        return np.linalg.qr(as_dense(x), mode="r")


def best_rank_k(a: Matrix, k: int) -> LowRankFactors:
    """Optimal rank-k factors via truncated SVD.

    ``right_basis`` holds the top-k right singular vectors ``W_k`` and
    ``left = a @ W_k``, with the sign rule of ``linalg.svd``: the
    largest-magnitude entry of every ``left`` column is positive.  A tall
    ``a`` is decomposed through the SVD of its ``d x d`` R factor, whose
    right singular vectors are those of ``a``, never forming the ``n x d``
    left singular vectors.  That R comes from CholeskyQR2 on the Gram
    matrix ``a^T a`` (a sparse product for CSR ``a``), or from a
    Householder QR of the densified ``a`` when the first pass leaves its Q
    more than 0.1 from orthonormal (``cond(a)`` beyond about 1e7, or rank
    deficiency).  ``spectrum`` keeps every singular value that SVD
    computed, and ``r_factor`` the R factor of a tall ``a``.
    """
    n, d = a.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k={k} outside 1..min{(n, d)}")
    r = _r_factor(a) if n > d else None
    res = svd(a if r is None else r)
    wt = res.vt[:k].copy()
    if r is None:
        left = res.u[:, :k] * res.sigma[:k]
    else:
        left = a @ wt.T
        _fix_svd_signs(left, wt)
    return LowRankFactors(
        left=left, right_basis=np.ascontiguousarray(wt.T), k=k,
        spectrum=res.sigma, r_factor=r, projection=True,
    )


def _top_triplets(a: Matrix, v: np.ndarray, count: int, scaled: bool):
    """``(u, sigma, vt)``: the top ``count`` singular triplets of the
    projection ``a @ v @ v.T``, those of ``b = a @ v`` with the right
    vectors rotated back by ``v``.  With ``scaled``, ``u`` is the left
    factor ``b @ W = u diag(sigma)`` in place of the left singular vectors.

    ``v`` is checked for orthonormal columns, and ``b`` for NaN and Inf
    before any decomposition: NaN or Inf in ``a`` reach every column of
    their rows of ``b``.  The triplets of ``b`` come from
    `linalg._gram_eigh`, one ``eigh`` of its smaller Gram matrix, which
    forms the left factor; the left singular vectors are that factor over
    ``sigma``.  When that route declines, or ``b`` has fewer than
    ``count`` nonzero singular values, they come from one ``svd(b)``
    instead, whose left singular vectors times ``sigma`` are the factor.
    """
    v = as_dense(v)
    if np.abs(v.T @ v - np.eye(v.shape[1])).max() > _ORTHO_TOL:
        raise ValueError("basis columns are not orthonormal")
    with np.errstate(invalid="ignore"):  # Inf * 0 in a rejected a
        b = a @ v
    check_finite(b)
    out = _gram_eigh(b, count)
    if out is not None and len(out[2]) == count:
        sq, u, wt = out
        sigma = np.sqrt(sq[:count])
        if not scaled:
            # row-major, as the u of `svd`; the Gram route's factor is not
            u = np.divide(u, sigma, order="C")
    else:
        res = svd(b)
        u, sigma, wt = res.u[:, :count], res.sigma[:count], res.vt[:count]
        if scaled:
            u = u * sigma
    return u, sigma, (v @ wt.T).T


def approx_from_basis(a: Matrix, v: np.ndarray, k: int) -> LowRankFactors:
    """Best rank-k approximation of ``a`` within the row space spanned by the
    orthonormal columns of ``v``.

    This is the rank-k truncation of ``b = a @ v`` rotated back with ``v``:
    with ``W_k`` the top-k right singular vectors of ``b``, taken as
    `approx_svd` takes its triplets, ``left = b @ W_k``, formed once, and
    ``right_basis = v @ W_k``.  Up to rounding, these are the factors of
    the first k triplets of ``approx_svd(a, v)``.  NaN or Inf in ``a``
    raise ``ValueError``.
    """
    if k > v.shape[1]:
        raise ValueError(f"k={k} exceeds the basis width {v.shape[1]}")
    if k < 1:
        raise ValueError("k must be >= 1")
    left, _, vt = _top_triplets(a, v, k, scaled=True)
    return LowRankFactors(left, vt.T, k, projection=True)


def approx_svd(a: Matrix, v: np.ndarray) -> SvdResult:
    """Approximate SVD of ``a`` through the projection ``a @ v @ v.T``.

    Decomposes ``b = a @ v`` into its ``min(n, ell)`` triplets, from one
    ``eigh`` of its smaller Gram matrix or, when that route declines or
    ``b`` is rank-deficient, from ``svd(b)``.  The small right factor is
    rotated back with ``v``, so that ``u @ diag(sigma) @ vt`` equals the
    projection; ``u`` has orthonormal columns.  NaN or Inf in ``a`` raise
    ``ValueError``.
    """
    return SvdResult(*_top_triplets(a, v, min(a.shape[0], v.shape[1]), scaled=False))


def _matvec_residual(a, left, right_basis, x):
    return a @ x - left @ (right_basis.T @ x)


def _rmatvec_residual(a, left, right_basis, y):
    return a.T @ y - right_basis @ (left.T @ y)


class SpectralNorm(float):
    """A spectral norm that also carries ``matvecs``, the residual products
    (with the residual or its transpose) taken to compute it."""

    def __new__(cls, value: float, matvecs: int):
        self = super().__new__(cls, value)
        self.matvecs = matvecs
        return self


def residual_spectral_norm(
    a: Matrix,
    factors: LowRankFactors,
    max_iter: int = 1000,
) -> SpectralNorm:
    """Spectral norm of ``a - left @ right_basis.T`` by a Lanczos solve.

    ``scipy.sparse.linalg.svds(k=1)`` (ARPACK) runs on a ``LinearOperator``
    of the residual, which is never materialised; each product costs one
    product with ``a`` (or ``a.T``) plus O((n+d)k) factor work.  The start
    vector is one step of the residual's normal operator applied to a fixed
    ``default_rng(0)`` draw, so results are deterministic; if that step
    vanishes the residual is zero.  ARPACK's relative tolerance is
    ``_LANCZOS_TOL`` (1e-12).  More than ``max_iter`` residual products, or
    an ARPACK failure, raise `NumericalError`.  A residual with one row or
    one column has rank one, and its Frobenius norm is returned.
    """
    n, d = a.shape
    if min(n, d) == 1:
        return SpectralNorm(_residual_fro(a, factors), 0)
    matvecs = 0

    def product(apply, x):
        nonlocal matvecs
        matvecs += 1
        if matvecs > max_iter:
            raise NumericalError(
                f"residual spectral norm took more than {max_iter} products"
            )
        return apply(a, factors.left, factors.right_basis, x)

    op = LinearOperator(
        (n, d),
        matvec=lambda x: product(_matvec_residual, x),
        rmatvec=lambda y: product(_rmatvec_residual, y),
        dtype=np.float64,
    )
    x = np.random.default_rng(0).standard_normal(min(n, d))
    start = op.rmatvec(op.matvec(x)) if n >= d else op.matvec(op.rmatvec(x))
    if not start.any():
        return SpectralNorm(0.0, matvecs)
    try:
        sigma = svds(op, k=1, tol=_LANCZOS_TOL, v0=start, return_singular_vectors=False)
    except ArpackError as exc:
        raise NumericalError(f"residual spectral norm: {exc}") from exc
    return SpectralNorm(sigma[0], matvecs)


def _residual_fro(a: Matrix, factors: LowRankFactors) -> float:
    # summed over row chunks of the residual itself, which does not cancel
    # near rank k and does not need right_basis to be orthonormal
    resid_sq = 0.0
    for rows in _row_chunks(a):
        block = a[rows]
        if sparse.issparse(block):
            block = block.toarray()
        block = block - factors.left[rows] @ factors.right_basis.T
        resid_sq += float(np.vdot(block, block))
    return float(np.sqrt(resid_sq))


def error_report(
    a: Matrix,
    approx: LowRankFactors,
    exact: LowRankFactors,
    elapsed_seconds: float,
) -> ErrorReport:
    """Frobenius and spectral error ratios of ``approx`` against ``exact``.

    ``exact`` must carry its ``spectrum`` (as `best_rank_k` factors do): the
    optimal residuals are ``sigma_{k+1}`` (0 when ``k = min(n, d)``) and
    ``sqrt(sum_{i>k} sigma_i^2)``, read from it without touching ``a``.
    The numerators are ``approx``'s residual norms, from `_residual_fro`
    and `residual_spectral_norm`.  When ``exact`` carries the R factor of a
    tall ``a`` and ``approx`` is marked as projection form (``left = a @
    Z``), they run on ``R`` and ``R @ Z`` in place of ``a`` and ``left``:
    ``a = Q R`` with orthonormal ``Q`` gives ``a - left Z^T = Q (R - R Z
    Z^T)``, so each Lanczos product costs ``d^2``, not ``n d``.

    When the exact residual vanishes (input of rank <= k) the ratio is
    defined as 1 provided the approximate residual also vanishes; otherwise
    beating an exactly-recoverable input is impossible and an error is
    raised.
    """
    if approx.k != exact.k:
        raise ValueError("approximate and exact factors target different ranks")
    if exact.spectrum is None:
        raise ValueError(
            "exact factors carry no spectrum; build them with best_rank_k"
        )
    r = exact.r_factor
    if r is not None:
        if r.shape != (a.shape[1],) * 2:
            raise ValueError(
                f"exact factors carry a {r.shape} R factor for {a.shape[1]} columns"
            )
        if approx.projection:
            z = approx.right_basis
            a, approx = r, LowRankFactors(left=r @ z, right_basis=z, k=approx.k)
    tail = exact.spectrum[exact.k :]
    fro_den = float(np.sqrt(np.sum(tail**2)))
    spec_den = float(tail[0]) if tail.size else 0.0
    norm_a = fro_norm(a)
    fro_num = _residual_fro(a, approx)
    spec_num = residual_spectral_norm(a, approx)

    def ratio(num: float, den: float) -> float:
        # Residuals below the float noise floor relative to ||a|| count as
        # zero; a zero exact residual means the input is exactly rank-k.
        if den <= 1e-7 * norm_a:
            if num <= 1e-6 * norm_a:
                return 1.0
            raise ValueError(
                "exact residual is zero but approximate residual is not; "
                "the input is exactly rank-k and was not recovered"
            )
        return num / den

    return ErrorReport(
        fro_ratio=ratio(fro_num, fro_den),
        spec_ratio=ratio(spec_num, spec_den),
        elapsed_seconds=float(elapsed_seconds),
        spec_matvecs=spec_num.matvecs,
    )
