"""Rank-k approximation from a sketch basis, approximate SVD and error metrics.

Given a basis ``V`` for the row space of a sketch, the rank-k approximation
is the best rank-k matrix inside that row space: truncate ``A @ V`` to rank
k and rotate back.  The top directions of ``A @ V`` come from the kernel of
the frequent-directions shrink rounds, `linalg._gram_eigh` (one ``eigh`` of
the smaller Gram matrix), with one SVD of ``A @ V`` when it declines or
``A @ V`` has too few nonzero directions.  The factors are kept separate
(`left @ right_basis.T`) so that the full ``n x d`` approximation is never
materialised.  The exact reference `best_rank_k` has three routes: one
``eigh`` of the ``d x d`` Gram matrix when ``A`` is tall and a rounding
bound certifies it; the top k+1 singular triplets from one Lanczos solve
(ARPACK through ``scipy.sparse.linalg.svds``) on ``A`` as given when ``A``
is square or wide and a residual bound certifies them; and one SVD of
``A`` otherwise.

Error ratios against the optimal truncated SVD take their denominators from
what `best_rank_k` keeps: ``sigma_{k+1}`` from its ``spectrum`` and the
optimal Frobenius residual ``sqrt(sum_{i>k} sigma_i^2)`` as its
``tail_fro``.  The numerators are the approximate residual's norms: the
Frobenius norm summed over row chunks, the spectral norm by a Lanczos solve
on the implicitly represented residual.  No ``n x d`` residual is formed.
For a tall ``a`` whose reference keeps the ``d x d`` Gram root ``S =
diag(sigma) W^T`` (``S^T S = a^T a``), an approximation in projection form
(``left = a @ Z``, ``Z = right_basis``) has the residual norms of ``S - (S
Z) Z^T``, so both numerators are taken on S.

``scipy.sparse.linalg`` is imported by the functions that call it, so that
importing this module loads no more of scipy than ``scipy.sparse``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sparse

from .linalg import (
    Matrix, NumericalError, SvdResult, _fix_svd_signs, _gram_eigh, _row_chunks,
    as_csr, as_dense, check_finite, fro_norm, svd,
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
# The Gram and truncated routes of `best_rank_k` are taken when their
# bounds are at most this share of the squared tail and of sigma_d^2 (Gram)
# or sigma_{k+1}^2 (truncated): a relative error of about half of it, 1e-9,
# on each singular value they resolve and each norm `error_report` reads.
_GRAM_CERT = 2e-9


@dataclass(frozen=True)
class LowRankFactors:
    """Rank-k factors ``approx = left @ right_basis.T``.

    ``left`` is ``n x k`` (the scaled column factor), ``right_basis`` is
    ``d x k`` with orthonormal columns.  ``spectrum`` holds the singular
    values of the approximated matrix that were computed, descending, and
    ``tail_fro`` its optimal rank-k Frobenius residual ``sqrt(sum_{i>k}
    sigma_i^2)``.  `best_rank_k` sets both: ``spectrum`` holds all ``min(n,
    d)`` values on its Gram and SVD routes (each to about 1e-9 relative on
    the Gram route) and the top k+1 on its truncated route; `error_report`
    requires both of its exact reference.  ``gram_root`` is the ``d x d``
    matrix ``S = diag(sigma) W^T`` of a tall approximated matrix ``a =
    U S``, with ``S^T S = a^T a`` and ``W`` the right singular vectors,
    which `best_rank_k` keeps when its Gram route is certified (``None``
    on its other routes).  It is not triangular, but it is an R factor all
    the same: ``a X`` and ``S X`` have the same norms for every ``X``.
    ``projection`` marks factors in projection form, ``left = a @
    right_basis``, as `best_rank_k` and `approx_from_basis` build them;
    `error_report` takes such an approximation's residual norms on the
    reference's Gram root.
    """

    left: np.ndarray
    right_basis: np.ndarray
    k: int
    spectrum: Optional[np.ndarray] = None
    gram_root: Optional[np.ndarray] = None
    projection: bool = False
    tail_fro: Optional[float] = None

    def __post_init__(self):
        if self.left.shape[1] != self.k or self.right_basis.shape[1] != self.k:
            raise ValueError("factor widths must equal k")


@dataclass(frozen=True)
class ErrorReport:
    """Error ratios of an approximation against the optimal one, plus the
    wall time spent constructing the approximation and ``spec_matvecs``,
    the residual products the spectral numerator's Lanczos solve took:
    ``d x d`` products with ``S - (S Z) Z^T`` on the Gram-root route of
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


def _certified_gram(a: Matrix, k: int):
    """``(sigma, w)``: all ``d`` singular values of a tall ``a``, descending,
    and its right singular vectors as the columns of ``w``, from one
    ``eigh`` of the Gram matrix ``a^T a``, or ``None`` when the rounding
    bound below does not certify them.  The Gram matrix is summed in turn
    over the Gram matrices of `_row_chunks` blocks of ``a`` (sparse
    products for CSR ``a``).

    The bound is deterministic.  With ``u = eps / 2`` and ``m`` the most
    rounded terms behind an entry of the formed Gram (the rows of a block,
    or the most stored entries of a CSR column if fewer, plus one per
    further block), ``|fl(G) - G| <= gamma_m |a|^T |a|`` entrywise,
    ``gamma_m = m u / (1 - m u)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, sections 3.1 and 3.5).  So ``|x^T (fl(G)
    - G) x| <= e = gamma_m ||a||_F^2`` for every unit ``x``, and the trace
    moves by at most ``e``, with ``||a||_F^2 <= trace(fl(G)) / (1 -
    gamma_m)``.  This part is worst-case.  ``eigh``'s backward error,
    which LAPACK bounds by ``p(d) u ||G||_2`` for a modest ``p`` it leaves
    unspecified, is taken as ``delta = d u lambda_1``.  Every
    ``sigma_i^2``, and any squared spectral norm ``||a P||_2^2``, then
    moves by at most ``e + delta`` (Weyl); the squared tail ``sum_{i>k}
    sigma_i^2``, and any squared Frobenius norm ``||a P||_F^2`` with ``P =
    I - Z Z^T`` for ``k`` orthonormal columns ``Z``, by at most ``(k + 1)
    e + (d - k) delta``: the trace less the top ``k`` for the formed
    Gram's error, one Weyl shift per kept term for ``eigh``'s.  The route
    is certified for ``k < d`` when the first bound is at most
    ``_GRAM_CERT`` times ``sigma_d^2`` and the second at most that share
    of the squared tail: about 1e-9 relative on every singular value, the
    tail and each norm `error_report` reads.  A rank-deficient ``a`` is
    never certified, except the all-zero ``a``: its Gram is exactly 0, so
    both bounds are 0 and hold, and every singular value is certified as
    0.
    """
    d = a.shape[1]
    gram, rows, blocks = np.zeros((d, d)), 0, 0
    for chunk in _row_chunks(a):
        block = a[chunk]
        g = block.T @ block
        gram += g.toarray() if sparse.issparse(g) else g
        rows, blocks = max(rows, block.shape[0]), blocks + 1
    if sparse.issparse(a):
        rows = min(rows, a.getnnz(axis=0).max())
    lam, w = np.linalg.eigh(gram)
    sq, w = lam[::-1], w[:, ::-1]
    m, u = rows + blocks - 1, np.finfo(float).eps / 2
    # gamma_m / (1 - gamma_m) = m u / (1 - 2 m u)
    e, delta = m * u / (1 - 2 * m * u) * np.trace(gram), d * u * sq[0]
    if (e + delta <= _GRAM_CERT * sq[-1]
            and (k + 1) * e + (d - k) * delta <= _GRAM_CERT * np.sum(sq[k:])):
        return np.sqrt(sq), w
    return None


def _certified_top(a: Matrix, k: int):
    """``(sigma, left, vt, tail_fro)``: the top ``k + 1`` singular values of
    ``a``, descending, the left factor ``a @ W_k`` and the rows ``vt`` of
    the top ``k`` right singular vectors ``W_k``, and the optimal rank-k
    Frobenius residual, from one Lanczos solve on ``a`` as given, or
    ``None`` when ARPACK fails or the bound below does not certify them.

    ``scipy.sparse.linalg.svds(a, k + 1)`` (ARPACK, relative tolerance
    ``_LANCZOS_TOL``) starts from a fixed ``default_rng(0)`` draw, so
    results are deterministic; a CSR ``a`` is never densified.  That the
    ``k + 1`` values are the *largest* singular values rests on that
    start, as the ``sigma`` of `residual_spectral_norm` does.  Each
    triplet ``(u_i, sigma_i, v_i)`` is checked by two more products with
    ``a``: with ``e_i = max(||a v_i - sigma_i u_i||, ||a^T u_i - sigma_i
    v_i||)``, ``sigma_i`` lies within ``e_i`` of a singular value of ``a``
    (Parlett, *The Symmetric Eigenvalue Problem*, 1998), so its square
    moves by at most ``2 sigma_i e_i + e_i^2``.  The squared tail is
    ``||a||_F^2 - sum_{i<=k} sigma_i^2``, whose ``||a||_F^2``, a sum of the
    ``m`` stored squares, is off by at most ``gamma_m ||a||_F^2`` (as in
    `_certified_gram`).  The route is certified when the tail's bound
    ``sum_{i<=k} (2 sigma_i e_i + e_i^2) + gamma_m ||a||_F^2`` is at most
    ``_GRAM_CERT`` times the squared tail and ``2 sigma_{k+1} e_{k+1} +
    e_{k+1}^2`` at most that share of ``sigma_{k+1}^2``: about 1e-9
    relative on ``sigma_{k+1}`` and the tail, which are what `error_report`
    reads.
    """
    from scipy.sparse.linalg import ArpackError, svds

    v0 = np.random.default_rng(0).standard_normal(min(a.shape))
    try:
        u, sigma, vt = svds(a, k + 1, tol=_LANCZOS_TOL, v0=v0)
    except ArpackError:
        return None
    order = np.argsort(-sigma, kind="stable")
    u, sigma, vt = u[:, order], sigma[order], vt[order]
    av = a @ vt.T
    e = np.maximum(np.linalg.norm(av - u * sigma, axis=0),
                   np.linalg.norm(a.T @ u - vt.T * sigma, axis=0))
    x = a.data if sparse.issparse(a) else a
    fro_sq, m, eps = float(np.vdot(x, x)), x.size, np.finfo(float).eps / 2
    tail_sq = fro_sq - np.sum(sigma[:k] ** 2)
    moved = 2 * sigma * e + e**2
    if (np.sum(moved[:k]) + m * eps / (1 - m * eps) * fro_sq <= _GRAM_CERT * tail_sq
            and moved[k] <= _GRAM_CERT * sigma[k] ** 2):
        return sigma, av[:, :k].copy(), vt[:k], float(np.sqrt(tail_sq))
    return None


def best_rank_k(a: Matrix, k: int) -> LowRankFactors:
    """Optimal rank-k factors via truncated SVD, on one of three routes.

    ``right_basis`` holds the top-k right singular vectors ``W_k`` and
    ``left = a @ W_k``, with the sign rule of ``linalg.svd``: the
    largest-magnitude entry of every ``left`` column is positive.

    - **Gram route.**  A tall ``a`` (``n > d > k``) first tries
      `_certified_gram`, one ``eigh`` of its ``d x d`` Gram matrix under a
      rounding bound, and forms only the k left factors, never the
      ``n``-row singular vectors; ``gram_root`` then keeps ``diag(sigma)
      W^T`` and ``spectrum`` all ``d`` singular values.
    - **Truncated route.**  A square or wide ``a`` with ``k + 1 < n``
      first tries `_certified_top`, the top ``k + 1`` singular triplets
      from one Lanczos solve on ``a`` as given (a CSR ``a`` is never
      densified) under a residual bound; ``spectrum`` keeps those ``k +
      1`` values.
    - **SVD route.**  Every other input, and input whose route the bound
      does not certify (for a tall ``a``: a smallest singular value or a
      tail too small against the Gram's rounding, rank below d other than
      the all-zero ``a``, or ``k = d``), takes one ``svd(a)`` of the
      densified ``a``; ``spectrum`` keeps all ``min(n, d)`` values.

    ``tail_fro``, the optimal residual ``sqrt(sum_{i>k} sigma_i^2)``, is
    set on every route: from the kept ``sigma[k:]`` on the Gram and SVD
    routes, and as ``sqrt(||a||_F^2 - sum_{i<=k} sigma_i^2)`` on the
    truncated one.  A sparse ``a`` is read through `linalg.as_csr`: a
    canonical float64 ``csr_matrix`` in place, any other a canonical CSR
    copy.  Non-finite entries raise ``ValueError``.
    """
    n, d = a.shape
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k={k} outside 1..min{(n, d)}")
    # the routes slice rows and read column counts, and the truncated route
    # sums ||a||_F^2 over the stored entries, which would count a duplicated
    # entry's square twice
    a = as_csr(a) if sparse.issparse(a) else as_dense(a)
    root = tail_fro = None
    if n > d > k and (gram := _certified_gram(a, k)) is not None:
        sigma, w = gram
        wt, root = w[:, :k].T.copy(), sigma[:, None] * w.T
        left = a @ wt.T
        _fix_svd_signs(left, wt)
    elif k + 1 < n <= d and (top := _certified_top(a, k)) is not None:
        sigma, left, wt, tail_fro = top
        _fix_svd_signs(left, wt)
    else:
        res = svd(a)
        sigma, wt = res.sigma, res.vt[:k]
        left = res.u[:, :k] * sigma[:k]
    if tail_fro is None:
        tail_fro = float(np.sqrt(np.sum(sigma[k:] ** 2)))
    return LowRankFactors(
        left=left, right_basis=np.ascontiguousarray(wt.T), k=k,
        spectrum=sigma, gram_root=root, projection=True, tail_fro=tail_fro,
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
    one column has rank one, and its Frobenius norm is returned.  A sparse
    ``a`` of any format is read as CSR.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, svds

    n, d = a.shape
    a = a.tocsr() if sparse.issparse(a) else a  # rows are sliced, products taken
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

    ``exact`` must carry its ``spectrum`` and ``tail_fro`` (as `best_rank_k`
    factors do, on each of its routes): the optimal residuals are
    ``sigma_{k+1} = spectrum[k]`` (0 when ``k = min(n, d)``) and
    ``tail_fro``, read without touching ``a``.
    The numerators are ``approx``'s residual norms, from `_residual_fro`
    and `residual_spectral_norm`.  When ``exact`` carries the Gram root
    ``S`` of a tall ``a`` and ``approx`` is marked as projection form
    (``left = a @ Z``), they run on ``S`` and ``S @ Z`` in place of ``a``
    and ``left``: ``S^T S = a^T a`` gives ``a - left Z^T`` and ``S - S Z
    Z^T`` the same norms, so each Lanczos product costs ``d^2``, not
    ``n d``.

    A sparse ``a`` of any format is read as CSR.

    When the exact residual vanishes (input of rank <= k) the ratio is
    defined as 1 provided the approximate residual also vanishes; otherwise
    beating an exactly-recoverable input is impossible and an error is
    raised.
    """
    if approx.k != exact.k:
        raise ValueError("approximate and exact factors target different ranks")
    a = a.tocsr() if sparse.issparse(a) else a  # the Frobenius numerator slices rows
    if exact.spectrum is None or exact.tail_fro is None:
        raise ValueError(
            "exact factors carry no spectrum and tail_fro; build them with best_rank_k"
        )
    root = exact.gram_root
    if root is not None:
        if root.shape != (a.shape[1],) * 2:
            raise ValueError(
                f"exact factors carry a {root.shape} Gram root for {a.shape[1]} columns"
            )
        if approx.projection:
            z = approx.right_basis
            a, approx = root, LowRankFactors(left=root @ z, right_basis=z, k=approx.k)
    tail = exact.spectrum[exact.k :]
    fro_den = exact.tail_fro
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
