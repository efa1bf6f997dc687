"""Shared dense/sparse linear-algebra kernels.

Everything downstream (sketchers, low-rank pipeline, network ranking) goes
through the helpers here so that numerical conventions are fixed in exactly
one place: economy SVD with a deterministic sign convention and thin QR.

Matrices are plain ``numpy.ndarray`` (row-major float64) or
``scipy.sparse.csr_matrix``; ``as_dense`` / ``as_csr`` validate and
canonicalise inputs instead of wrapping them in custom classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

__all__ = [
    "Matrix",
    "NumericalError",
    "SvdResult",
    "as_dense",
    "as_csr",
    "check_finite",
    "fro_norm",
    "row_norms",
    "svd",
    "thin_qr",
]

Matrix = Union[np.ndarray, sparse.csr_matrix]


class NumericalError(RuntimeError):
    """A numerical kernel failed to converge (never silently ignored)."""


def check_finite(a: Matrix) -> None:
    """Raise ``ValueError`` if a dense array, or the stored entries of a
    sparse matrix, hold NaN or Inf."""
    if not np.isfinite(a.data if sparse.issparse(a) else a).all():
        raise ValueError("matrix contains NaN or Inf entries")


def as_dense(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-D row-major float64 array.

    Rejects non-2-D input, empty dimensions and non-finite entries.
    """
    if sparse.issparse(a):
        a = a.toarray()
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got {out.shape}")
    check_finite(out)
    return out


def as_csr(a) -> sparse.csr_matrix:
    """Validate and return ``a`` as canonical CSR.

    Canonical means sorted column indices per row, duplicates summed and no
    explicitly stored zeros.  Data must be finite float64.
    """
    out = sparse.csr_matrix(a, dtype=np.float64, copy=True)
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got {out.shape}")
    out.sum_duplicates()
    out.sort_indices()
    out.eliminate_zeros()
    check_finite(out)
    return out


def fro_norm(a: Matrix) -> float:
    if sparse.issparse(a):
        return float(np.sqrt(np.sum(a.data * a.data)))
    return float(np.linalg.norm(a, "fro"))


_CHUNK_ENTRIES = 1 << 20


def _row_chunks(a: Matrix, multiple: int = 1):
    """Slices of consecutive rows of ``a`` for loops that stream it: each
    spans about ``_CHUNK_ENTRIES`` entries and, but for the last, a whole
    ``multiple`` of rows."""
    n, d = a.shape
    step = multiple * max(1, _CHUNK_ENTRIES // (multiple * d))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def row_norms(a: Matrix) -> np.ndarray:
    """Euclidean norm of every row, for dense or CSR input."""
    if sparse.issparse(a):
        return np.sqrt(np.asarray(a.multiply(a).sum(axis=1)).ravel())
    return np.sqrt(np.einsum("ij,ij->i", a, a))


@dataclass(frozen=True)
class SvdResult:
    """Economy SVD ``a = u @ diag(sigma) @ vt``.

    ``sigma`` is non-increasing and non-negative; ``u`` and ``vt.T`` have
    orthonormal columns.  The sign of each singular-vector pair is fixed so
    that the largest-magnitude entry of every left singular vector is
    positive (ties resolved to the lowest row index), which makes repeated
    decompositions of identical inputs bit-reproducible.
    """

    u: np.ndarray
    sigma: np.ndarray
    vt: np.ndarray


def _fix_svd_signs(u: np.ndarray, vt: np.ndarray) -> None:
    peaks = np.argmax(np.abs(u), axis=0)
    flip = u[peaks, np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    vt[flip, :] *= -1.0


def svd(a: Matrix) -> SvdResult:
    """Deterministic economy SVD of a dense (or densified sparse) matrix.

    Raises ``NumericalError`` if the LAPACK kernels fail to converge; the
    divide-and-conquer driver is tried first and the slower but more robust
    Golub-Kahan driver is used as a fallback.
    """
    a = as_dense(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        try:
            u, s, vt = scipy.linalg.svd(
                a, full_matrices=False, lapack_driver="gesvd"
            )
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD failed to converge: {exc}") from exc
    u = np.ascontiguousarray(u)
    vt = np.ascontiguousarray(vt)
    _fix_svd_signs(u, vt)
    return SvdResult(u=u, sigma=s, vt=vt)


def thin_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economy QR of a tall (n >= k) dense matrix.

    Returns ``(q, r)`` with ``q`` having orthonormal columns and ``r`` upper
    triangular.  Rank deficiency is allowed (zero diagonal in ``r``).

    Runs on numpy's LAPACK, like ``svd``: scipy loads its own OpenBLAS copy,
    whose idle-spinning threads slow the numpy call that follows.
    """
    a = as_dense(a)
    n, k = a.shape
    if n < k:
        raise ValueError(f"thin_qr requires n_rows >= n_cols, got {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    return q, r
