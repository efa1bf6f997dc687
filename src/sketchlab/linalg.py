"""Shared dense/sparse linear-algebra kernels.

Everything downstream (sketchers, low-rank pipeline, network ranking) goes
through the helpers here so that numerical conventions are fixed in exactly
one place: economy SVD with a deterministic sign convention, thin QR, and
the Gram route that every frequent-directions shrink round and every
reconstruction from a basis (`lowrank.approx_from_basis`,
`lowrank.approx_svd`) tries before an SVD.  `_gram_top` takes one
``eigh`` of a Gram matrix and applies the route's zero cut, its
``_GRAM_FLOOR`` test and, for a wide matrix's Gram, the SVD sign rule;
`_gram_eigh` builds the top singular triplets of a matrix on it, and
every frequent-directions round (`sketch._shrink_round`), wide or tall,
the triplets of a buffer it never forms.

Matrices are plain ``numpy.ndarray`` (row-major float64) or
``scipy.sparse.csr_matrix``; ``as_dense`` / ``as_csr`` validate and
canonicalise inputs instead of wrapping them in custom classes.  `as_csr`
is the one place that decides what canonical CSR is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
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
    """Validate and return ``a`` as canonical CSR: ``a`` itself when it is
    one already, a canonical copy otherwise.

    Canonical means a float64 ``csr_matrix`` with sorted column indices per
    row, no duplicate entries and no explicitly stored zeros.  Any other
    input (another format, a ``csr_array``, another dtype, unsorted or
    duplicate indices, stored zeros) is copied, its duplicates summed and
    its zeros dropped; the input is never modified.  Empty dimensions and
    NaN or Inf entries raise ``ValueError``.
    """
    out = a
    if not (isinstance(a, sparse.csr_matrix) and a.dtype == np.float64
            and a.has_canonical_format and a.data.all()):
        out = sparse.csr_matrix(a, dtype=np.float64, copy=True)
        out.sum_duplicates()
        out.sort_indices()
        out.eliminate_zeros()
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got {out.shape}")
    check_finite(out)
    return out


def fro_norm(a: Matrix) -> float:
    """Frobenius norm.  Sparse input of any format is read through
    `as_csr`, a canonical CSR in place, so duplicate entries are summed
    first; NaN or Inf among its entries raise ``ValueError``."""
    if sparse.issparse(a):
        a = as_csr(a)
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


def _peak_signs(u: np.ndarray) -> np.ndarray:
    """``-1.0`` for each column of ``u`` whose largest-magnitude entry (the
    lowest row index on ties) is negative, ``1.0`` for the others.

    The peaks are searched along the contiguous rows of ``u.T``: free when
    ``u`` is column-major, one transposed copy otherwise, which beats a
    strided search down the columns of a tall ``u``.
    """
    ut = np.ascontiguousarray(u.T)
    peaks = np.argmax(np.abs(ut), axis=1)
    return np.where(ut[np.arange(len(ut)), peaks] < 0, -1.0, 1.0)


def _fix_svd_signs(u: np.ndarray, vt: np.ndarray) -> None:
    """Flip the pairs of columns of ``u`` and rows of ``vt``, in place, whose
    column of ``u`` has a negative largest-magnitude entry (the lowest row
    index on ties), by one multiply by a +-1 vector each."""
    signs = _peak_signs(u)
    u *= signs
    vt *= signs[:, None]


# A direction recovered from the Gram matrix loses accuracy as its
# eigenvalue falls relative to the largest one.  Formed as ``u.T @ x /
# sigma`` from ``x @ x.T``, it still agrees with the SVD of ``x`` to ~2e-11
# just above this ratio (the oracle tests ask for 1e-10).  Taken straight
# from the eigenvectors of ``x.T @ x``, its error grows with the ratio's
# reciprocal rather than its square root (4e-9 at 1e-8, 1e-12 at 1e-4 on
# graded spectra), so that route takes the floor's square root.  A caller
# needing a smaller eigenvalue decomposes ``x`` with `svd` instead.
_GRAM_FLOOR = 1e-9


def _gram_top(gram: np.ndarray, terms: int, count: int, wide: bool):
    """``(lam, vecs, sigma)`` from one ``eigh`` of the Gram matrix ``gram``
    of a matrix with ``terms`` columns (wide) or rows (tall): all its
    eigenvalues ``lam``, descending, and the eigenvectors ``vecs`` and
    square roots ``sigma`` of its nonzero top-``count`` ones; or ``None``
    when the Gram route declines.

    Eigenvalues below the rounding level of the Gram entries (``terms *
    eps`` times the largest, as each entry is an inner product of that many
    terms) are exact zeros, so a rank-deficient matrix gives fewer than
    ``count`` eigenvectors.  The route declines when a formed eigenvalue is
    below the floor (``_GRAM_FLOOR`` when wide, its square root otherwise)
    times the largest, or when ``eigh`` raises ``LinAlgError``.  A wide
    Gram's eigenvectors are the left singular vectors, and take `svd`'s
    sign rule here: the largest-magnitude entry of each is positive.
    """
    try:
        lam, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:
        return None
    lam, vecs = lam[::-1], vecs[:, ::-1]
    lam = np.where(lam > terms * np.finfo(float).eps * lam[0], lam, 0.0)
    rank = int(np.count_nonzero(lam[:count]))
    floor = _GRAM_FLOOR if wide else np.sqrt(_GRAM_FLOOR)
    if rank and lam[rank - 1] < floor * lam[0]:
        return None
    vecs = vecs[:, :rank]
    if wide:
        vecs = vecs * _peak_signs(vecs)
    return lam, vecs, np.sqrt(lam[:rank])


def _gram_eigh(x: np.ndarray, count: int):
    """``(sq, left, vt)`` from one ``eigh`` of the smaller Gram matrix of a
    dense ``x`` (`_gram_top`): all ``min(x.shape)`` squared singular values
    ``sq``, descending, the top right singular vectors ``vt`` (at most
    ``count``, only those of nonzero values) and their left factor ``left =
    x @ vt.T``, the left singular vectors scaled by their singular values,
    or ``None`` when the Gram route declines.

    A wide ``x`` (fewer rows than columns) takes ``x @ x.T``, whose
    eigenvectors ``u`` give ``vt`` as ``u.T @ x / sigma`` and ``left`` as
    ``u * sigma``; a tall or square one takes ``x.T @ x``, whose
    eigenvectors are ``vt.T``, and forms ``left`` as the transpose of
    ``vt @ x.T``, column-major, so that the sign rule searches contiguous
    rows.  Signs follow `svd`: the largest-magnitude entry of each left
    singular vector is positive.
    """
    wide = x.shape[0] < x.shape[1]
    out = _gram_top(x @ x.T if wide else x.T @ x, max(x.shape), count, wide)
    if out is None:
        return None
    lam, vecs, sigma = out
    if wide:
        return lam, vecs * sigma, (vecs / sigma).T @ x
    vt = vecs.T
    left = (vt @ x.T).T
    _fix_svd_signs(left, vt)
    return lam, left, vt


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
        import scipy.linalg  # imported on use, as the package docstring says

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
