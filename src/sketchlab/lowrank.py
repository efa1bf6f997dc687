"""Rank-k approximation from a sketch basis, approximate SVD and error metrics.

Given a basis ``V`` for the row space of a sketch, the rank-k approximation
is the best rank-k matrix inside that row space: truncate ``A @ V`` to rank
k and rotate back.  The factors are kept separate (`left @ right_basis.T`)
so that the full ``n x d`` approximation is never materialised; error
ratios against the optimal truncated SVD are likewise computed by factor
algebra and by power iteration on implicitly represented residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, _fix_svd_signs, as_dense, fro_norm, svd

__all__ = [
    "LowRankFactors",
    "ApproxSvd",
    "ErrorReport",
    "best_rank_k",
    "approx_from_basis",
    "approx_svd",
    "error_report",
    "residual_spectral_norm",
]

_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class LowRankFactors:
    """Rank-k factors ``approx = left @ right_basis.T``.

    ``left`` is ``n x k`` (the scaled column factor), ``right_basis`` is
    ``d x k`` with orthonormal columns.
    """

    left: np.ndarray
    right_basis: np.ndarray
    k: int

    def __post_init__(self):
        if self.left.shape[1] != self.k or self.right_basis.shape[1] != self.k:
            raise ValueError("factor widths must equal k")


@dataclass(frozen=True)
class ApproxSvd:
    """Approximate singular triplet ``a ~ u @ diag(sigma) @ v.T`` obtained by
    decomposing the projection of ``a`` onto a sketch basis."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class ErrorReport:
    """Error ratios of an approximation against the optimal one, plus the
    wall time spent constructing the approximation."""

    fro_ratio: float
    spec_ratio: float
    elapsed_seconds: float

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


def _check_orthonormal(v: np.ndarray, tol: float = _ORTHO_TOL) -> None:
    gram = v.T @ v
    if np.abs(gram - np.eye(v.shape[1])).max() > tol:
        raise ValueError("basis columns are not orthonormal")


def _top_k(x: Matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(left, w)`` with ``left = x @ w = U_k diag(sigma_k)`` and ``w`` the
    top-k right singular vectors of ``x``, from one ``svd`` call.

    A tall ``x`` (more rows than columns) is reduced to its ``d x d`` R
    factor first, whose right singular vectors are those of ``x``, so no
    ``n``-row singular vectors are formed.  The sign of each pair is fixed
    as ``linalg.svd`` fixes it: the largest-magnitude entry of every
    ``left`` column is positive.
    """
    n, d = x.shape
    if n <= d:
        res = svd(x)
        return res.u[:, :k] * res.sigma[:k], res.vt[:k].T
    wt = svd(np.linalg.qr(as_dense(x), mode="r")).vt[:k].copy()
    left = x @ wt.T
    _fix_svd_signs(left, wt)
    return left, wt.T


def best_rank_k(a: Matrix, k: int) -> LowRankFactors:
    """Optimal rank-k factors via truncated SVD.

    ``right_basis`` holds the top-k right singular vectors ``W_k`` and
    ``left = a @ W_k``; a tall ``a`` is decomposed through the SVD of its
    R factor (dense, or CSR densified once), never forming the ``n x d``
    left singular vectors.
    """
    n, d = a.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k={k} outside 1..min{(n, d)}")
    left, w = _top_k(a, k)
    return LowRankFactors(left=left, right_basis=np.ascontiguousarray(w), k=k)


def approx_from_basis(a: Matrix, v: np.ndarray, k: int) -> LowRankFactors:
    """Best rank-k approximation of ``a`` within the row space spanned by the
    orthonormal columns of ``v``.

    This is the rank-k truncation of ``b = a @ v`` rotated back with ``v``:
    with ``W_k`` the top-k right singular vectors of ``b`` (taken from its
    R factor when ``b`` is tall), ``left = b @ W_k`` and
    ``right_basis = v @ W_k``.  Up to rounding, these are the factors of
    the first k triplets of ``approx_svd(a, v)``.
    """
    if k > v.shape[1]:
        raise ValueError(f"k={k} exceeds the basis width {v.shape[1]}")
    if k < 1:
        raise ValueError("k must be >= 1")
    v = as_dense(v)
    _check_orthonormal(v)
    left, w = _top_k(a @ v, k)
    return LowRankFactors(left=left, right_basis=v @ w, k=k)


def approx_svd(a: Matrix, v: np.ndarray) -> ApproxSvd:
    """Approximate SVD of ``a`` through the projection ``a @ v @ v.T``.

    Decomposes ``b = a @ v``, then rotates the small right factor back with
    ``v`` so that ``u @ diag(sigma) @ v_out.T`` equals the projection.
    """
    v = as_dense(v)
    _check_orthonormal(v)
    b = a @ v
    res = svd(b)
    return ApproxSvd(u=res.u, sigma=res.sigma, v=v @ res.vt.T)


def _matvec_residual(a, left, right_basis, x):
    return a @ x - left @ (right_basis.T @ x)


def _rmatvec_residual(a, left, right_basis, y):
    return a.T @ y - right_basis @ (left.T @ y)


def residual_spectral_norm(
    a: Matrix,
    factors: LowRankFactors,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> float:
    """Spectral norm of ``a - left @ right_basis.T`` by power iteration.

    The residual is never materialised; each step costs two products with
    ``a`` plus O((n+d)k) factor work.  The start vector is fixed (seed 0) so
    results are deterministic.  Stops when the estimate changes by less than
    ``tol`` relatively, or after ``max_iter`` iterations.
    """
    d = a.shape[1]
    rng = np.random.default_rng(0)
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    estimate = 0.0
    for _ in range(max_iter):
        y = _matvec_residual(a, factors.left, factors.right_basis, x)
        sigma = np.linalg.norm(y)
        if sigma == 0.0:
            return 0.0
        z = _rmatvec_residual(a, factors.left, factors.right_basis, y)
        zn = np.linalg.norm(z)
        if zn == 0.0:
            return float(sigma)
        x = z / zn
        if abs(sigma - estimate) <= tol * sigma:
            return float(sigma)
        estimate = sigma
    return float(estimate)


def _residual_fro(a: Matrix, factors: LowRankFactors, norm_a_sq: float) -> float:
    # ||a - l r^T||_F^2 = ||a||^2 - 2 tr(r l^T a) + ||l||^2 with orthonormal
    # r; the trace term streams through a without forming n x d products.
    ar = a @ factors.right_basis
    overlap = float(np.vdot(factors.left, ar))
    norm_factors_sq = float(np.vdot(factors.left, factors.left))
    return float(np.sqrt(max(norm_a_sq - 2.0 * overlap + norm_factors_sq, 0.0)))


def error_report(
    a: Matrix,
    approx: LowRankFactors,
    exact: LowRankFactors,
    elapsed_seconds: float,
) -> ErrorReport:
    """Frobenius and spectral error ratios of ``approx`` against ``exact``.

    When the exact residual vanishes (input of rank <= k) the ratio is
    defined as 1 provided the approximate residual also vanishes; otherwise
    beating an exactly-recoverable input is impossible and an error is
    raised.
    """
    if approx.k != exact.k:
        raise ValueError("approximate and exact factors target different ranks")
    norm_a = fro_norm(a)
    norm_a_sq = norm_a**2
    fro_num = _residual_fro(a, approx, norm_a_sq)
    fro_den = _residual_fro(a, exact, norm_a_sq)
    spec_num = residual_spectral_norm(a, approx)
    spec_den = residual_spectral_norm(a, exact)

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
    )
