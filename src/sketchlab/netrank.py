"""Hub and authority ranking for directed graphs.

Three routes to the scores of each node:

* ``hits`` - alternating power iteration for the dominant eigenvectors of
  ``A^T A`` (authorities) and ``A A^T`` (hubs);
* ``expm_scores_exact`` - diagonal entries of the exponential of the
  symmetric bipartite embedding ``[[0, A], [A^T, 0]]``.  Its diagonal
  blocks are ``cosh(sqrt(A A^T))`` and ``cosh(sqrt(A^T A))``.  Only the
  nonzero spectrum of ``A A^T`` enters them, and identical ("twin") columns
  of ``A`` give the same ``A A^T`` as one column scaled by the square root
  of their count, so one symmetric eigendecomposition of the Gram matrix of
  the twin-merged columns, ``C^T C = Y diag(lam) Y^T``, gives both score
  vectors;
* ``expm_scores_sketched`` - the same expansion truncated to the
  ``ell = k + p`` singular triplets of an approximate SVD obtained through
  any of the sketchers, so no other triplet is ever formed.

Both expm routes score through one formula (`_expm_scores`), with ``u``
and ``v`` the left and right singular vectors of ``A`` (of its projection
``A V V^T`` on the sketched route)::

    hub_i  = 1 + sum_j u_ij^2 (cosh(sigma_j) - 1)
    auth_c = 1 + sum_j v_cj^2 (cosh(sigma_j) - 1)

so on both routes empty rows and columns score 1, a zero singular value
adds nothing, and twin rows score bit-equal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .linalg import NumericalError, as_csr
from .linalg import svd  # noqa: F401 - unused; perfbench/layers.py wraps netrank.svd
from .lowrank import approx_svd
from .sketch import (
    RngLike,
    SpfdConfig,
    dct_sketch,
    fd_sketch,
    norm_sampling_sketch,
    parse_sketcher_id,
    spemb_sketch,
    spfd_sketch,
)

__all__ = [
    "RankingResult",
    "hits",
    "expm_scores_exact",
    "expm_scores_sketched",
    "ranking_overlap",
]

_EXACT_SIZE_GUARD = 4000
_COSH_OVERFLOW = 700.0


@dataclass(frozen=True)
class RankingResult:
    """Hub/authority scores with the top-k node lists (descending score,
    ties broken by ascending node id)."""

    hub_scores: np.ndarray
    authority_scores: np.ndarray
    top_hubs: list[int]
    top_authorities: list[int]
    method_tag: str
    elapsed_seconds: float
    status: str = "ok"


def _top_nodes(scores: np.ndarray, k: int) -> list[int]:
    order = np.lexsort((np.arange(scores.size), -scores))
    return [int(i) for i in order[:k]]


def _result(hub, auth, tag, elapsed, top_k, status="ok") -> RankingResult:
    return RankingResult(
        hub_scores=hub,
        authority_scores=auth,
        top_hubs=_top_nodes(hub, top_k),
        top_authorities=_top_nodes(auth, top_k),
        method_tag=tag,
        elapsed_seconds=float(elapsed),
        status=status,
    )


def _check_square(adj) -> sparse.csr_matrix:
    adj = as_csr(adj)
    if adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got {adj.shape}")
    return adj


def _unit(x: np.ndarray):
    """``x`` scaled to unit 2-norm, or ``None`` for a zero vector."""
    norm = np.linalg.norm(x)
    return None if norm == 0.0 else x / norm


def _peak_positive(x: np.ndarray) -> np.ndarray:
    """``x`` with the sign that makes its largest-magnitude entry positive."""
    return -x if x[np.argmax(np.abs(x))] < 0 else x


def _check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless the `hits` tolerance ``tol`` is finite
    and positive: with NaN no step ever stops, with Inf the first does."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def hits(
    adj,
    tol: float = 1e-3,
    max_iter: int = 1000,
    rng: RngLike = 0,
    top_k: int = 10,
) -> RankingResult:
    """Alternating power iteration for hub and authority scores.

    Starts from i.i.d. standard normal vectors, renormalises after every
    half-step and stops once both score vectors move by at most ``tol`` in
    2-norm; ``tol`` must be finite and positive.  Signs are fixed so the
    dominant entry is positive.  An all-zero iterate flags the result as
    degenerate; hitting ``max_iter`` flags it as unconverged (neither is
    fatal).
    """
    _check_tol(tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    adj = _check_square(adj)
    n = adj.shape[0]
    rng = np.random.default_rng(rng)
    t0 = time.perf_counter()
    auth = _unit(rng.standard_normal(n))
    hub = _unit(rng.standard_normal(n))
    status = "unconverged"
    for _ in range(max_iter):
        auth_new = _unit(adj.T @ hub)
        hub_new = None if auth_new is None else _unit(adj @ auth_new)
        if hub_new is None:
            return _result(
                np.zeros(n), np.zeros(n), "hits",
                time.perf_counter() - t0, top_k, status="degenerate",
            )
        moved = max(
            np.linalg.norm(auth_new - auth), np.linalg.norm(hub_new - hub)
        )
        auth, hub = auth_new, hub_new
        if moved <= tol:
            status = "ok"
            break
    return _result(
        _peak_positive(hub), _peak_positive(auth), "hits",
        time.perf_counter() - t0, top_k, status,
    )


def _expm_scores(left, right, lam, group):
    """Hub and authority scores, as `expm_scores_exact` defines them, from
    the squared spectrum ``lam`` of ``A``::

        hub    = 1 + (left * left) @ g(lam)
        auth_j = 1 + ((right * right) @ (cosh(sqrt(lam)) - 1))_c   (column j in group c)

    ``left`` has one row per row of ``A``, ``right`` one per group of twin
    columns, and ``group`` maps each column to its group (-1 for an empty
    column, which scores 1).  Both are squared in place."""
    lam = np.maximum(lam, 0.0)
    sigma = np.sqrt(lam)
    if sigma.size and sigma.max() > _COSH_OVERFLOW:
        raise NumericalError(
            f"largest singular value {sigma.max():.3g} overflows cosh in "
            "float64"
        )
    cosh_m1 = 2.0 * np.sinh(sigma / 2.0) ** 2
    g = np.divide(cosh_m1, lam, out=np.full(lam.size, 0.5), where=lam > 0.0)
    np.square(left, out=left)
    np.square(right, out=right)
    # an empty column (group -1) picks the appended 1
    col_scores = np.append(1.0 + right @ cosh_m1, 1.0)
    # einsum takes every row through the same loop, which a BLAS product
    # does not: twin rows, equal rows of ``left``, score bit-equal
    return 1.0 + np.einsum("ij,j->i", left, g), col_scores[group]


def _row_hashes(csr: sparse.csr_matrix) -> np.ndarray:
    """A 64-bit hash of each row's index and value bytes (0 for an empty
    row): one mixed word per stored entry, summed with wrapping."""
    mixed = csr.indices.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    mixed ^= csr.data.view(np.uint64)
    mixed ^= mixed >> np.uint64(29)
    rows = np.flatnonzero(np.diff(csr.indptr))
    hashes = np.zeros(csr.shape[0], dtype=np.uint64)
    if rows.size:
        hashes[rows] = np.add.reduceat(mixed, csr.indptr[rows])
    return hashes


def _twins(csr: sparse.csr_matrix):
    """Groups of identical nonempty rows of a canonical CSR matrix.

    Returns ``(first, group, count)``: the first row of each group in
    ascending order, the group of every row (-1 for an empty row) and the
    size of each group.  Canonical CSR stores equal rows as equal index
    and value bytes.  Rows of equal hash (`_row_hashes`) are proposed as one
    group, and each is confirmed entry by entry against the group's lowest
    row; the rows that differ from it are regrouped among themselves the
    same way, so a hash collision never merges two rows."""
    lengths = np.diff(csr.indptr)
    hashes = _row_hashes(csr)
    bits = csr.data.view(np.uint64)
    rows = np.flatnonzero(lengths)
    owner = np.empty(csr.shape[0], dtype=np.intp)
    todo = rows
    while todo.size:
        todo = todo[np.argsort(hashes[todo])]
        new = np.ones(todo.size, dtype=bool)
        new[1:] = hashes[todo[1:]] != hashes[todo[:-1]]
        lowest = np.minimum.reduceat(todo, np.flatnonzero(new))[np.cumsum(new) - 1]
        size = lengths[todo]
        same = size == lengths[lowest]
        starts = np.cumsum(size) - size
        within = np.arange(size.sum()) - np.repeat(starts, size)
        mine = np.repeat(csr.indptr[todo], size) + within
        # a row of another length is compared with itself, and differs
        theirs = np.repeat(np.where(same, csr.indptr[lowest], csr.indptr[todo]), size) + within
        differs = ~same | np.logical_or.reduceat(
            (csr.indices[mine] != csr.indices[theirs]) | (bits[mine] != bits[theirs]),
            starts)
        owner[todo[~differs]] = lowest[~differs]
        todo = todo[differs]
    first = rows[owner[rows] == rows]
    group = np.full(csr.shape[0], -1, dtype=np.intp)
    group[first] = np.arange(len(first))
    group[rows] = group[owner[rows]]
    return first, group, np.bincount(group[rows], minlength=len(first))


def _merged_scores(adj_t: sparse.csr_matrix):
    """Hub and authority scores of the ``A`` whose transpose is the CSR
    ``adj_t``, from one ``eigh`` of the Gram matrix of ``A``'s twin-merged
    columns."""
    first, group, count = _twins(adj_t)
    c_t = adj_t[first]  # the distinct nonempty columns of A, as rows
    c_t.data *= np.repeat(np.sqrt(count), np.diff(c_t.indptr))
    try:
        lam, y = np.linalg.eigh((c_t @ c_t.T).toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigh of the merged Gram failed to converge: {exc}") from exc
    left = c_t.T @ y  # one row per row of A, zero for an empty one
    y /= np.sqrt(count)[:, None]
    return _expm_scores(left, y, lam, group)


def expm_scores_exact(adj, top_k: int = 10) -> RankingResult:
    """Exponential-based scores from one ``eigh`` of a twin-merged Gram matrix.

    hub_i and authority_i are the i-th diagonal entries of the two diagonal
    blocks of the exponential of ``[[0, A], [A^T, 0]]``, ``cosh(sqrt(A A^T))``
    and ``cosh(sqrt(A^T A))``.  The nonempty columns of ``A`` fall into
    groups of identical ("twin") columns; ``C`` holds one column per group,
    scaled by the square root of the group's size ``m_c``, so that
    ``C C^T = A A^T``.  With ``C^T C = Y diag(lam) Y^T`` (``lam`` clamped at
    0)::

        hub    = 1 + ((C Y) * (C Y)) @ g(lam),  g(lam) = (cosh(sqrt(lam)) - 1) / lam
        auth_j = 1 + ((Y * Y) @ (cosh(sqrt(lam)) - 1))_c / m_c   (column j in group c)

    with ``g(0) = 1/2``, so nothing is divided by a small singular value,
    ``hub_i = 1`` for an empty row and ``auth_j = 1`` for an empty column.
    ``cosh(s) - 1`` is evaluated as ``2 sinh(s/2)^2``, which does not
    cancel for small ``s``.  Both functions are analytic in ``lam``, so
    working with the squared spectrum costs no accuracy.  The Gram matrix
    is ``m x m``, ``m`` the number of distinct nonempty columns of ``A``,
    so never larger than ``n x n``.

    Only columns are grouped: authority scores are computed once per group
    of twin columns and copied to its members.  Row ``i`` of ``C Y``
    depends only on row ``i`` of ``A``, and every row's hub score is
    summed by the same loop, so twin rows get bit-equal hub scores by
    construction.  The top lists order twins by ascending node id.
    """
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    adj = _check_square(adj)
    n = adj.shape[0]
    if n > _EXACT_SIZE_GUARD:
        raise ValueError(
            f"exact scores take a dense eigendecomposition of up to n x n "
            f"(the twin-merged Gram of A); n={n} exceeds the guard "
            f"{_EXACT_SIZE_GUARD}"
        )
    t0 = time.perf_counter()
    hub, auth = _merged_scores(adj.T.tocsr())
    return _result(hub, auth, "expm", time.perf_counter() - t0, top_k)


def _sketch_basis(adj, method: str, ell: int, rng: np.random.Generator):
    kind, q = parse_sketcher_id(method)
    if kind == "fd":
        return fd_sketch(adj, ell).basis
    if kind == "spemb":
        return spemb_sketch(adj, ell, rng).basis
    if kind == "normsamp":
        return norm_sampling_sketch(adj, ell, rng).basis
    if kind == "dct":
        return dct_sketch(adj, ell, rng).basis
    seed = int(rng.integers(0, 2**63 - 1))
    return spfd_sketch(adj, SpfdConfig(ell=ell, q=q, seed=seed)).basis


def expm_scores_sketched(
    adj,
    method: str,
    k: int = 10,
    p: int = 5,
    rng: RngLike = 0,
    basis: np.ndarray | None = None,
) -> RankingResult:
    """Exponential-based scores through a sketched rank-(k+p) SVD.

    ``method`` picks the sketcher (``normsamp``, ``dct``, ``spemb``, ``fd``
    or ``spfd<q>``); ``basis`` overrides it with a precomputed orthonormal
    basis ``V``.  With ``A V`` decomposed as ``U diag(sigma) W^T``, the
    scores are `expm_scores_exact`'s expansion truncated to the ``ell``
    retained triplets::

        hub_i  = 1 + sum_j u_ij^2 (cosh(sigma_j) - 1),   u_ij sigma_j = (A V W)_ij
        auth_c = 1 + sum_j (V W)_cj^2 (cosh(sigma_j) - 1)

    i.e. the rank-(n-ell) tail of the exponential is truncated away, which
    preserves rankings when the retained spectrum dominates.  A basis that
    contains the row space of ``A`` gives the exact scores, and a zero
    singular value, such as a rank-deficient sketch's completing
    direction, adds nothing.  Empty rows and columns score 1, as on the
    exact route.

    Twin rows get bit-equal hub scores: ``A (V W)`` is a sparse product,
    whose row ``i`` depends only on row ``i`` of ``A``, and every row is
    summed by the same einsum loop.  The basis rows of twin columns can
    differ, so each group of twin columns (`_twins`, as the exact route
    forms them) takes the authority score of its lowest-id member, and the
    top lists order twins by ascending node id.
    """
    if k < 1 or p < 0:
        raise ValueError(f"need k >= 1 and p >= 0, got k={k}, p={p}")
    adj = _check_square(adj)
    n = adj.shape[0]
    rng = np.random.default_rng(rng)
    t0 = time.perf_counter()
    if basis is None:
        ell = k + p
        if ell > n:
            raise ValueError(f"sketch size k+p={ell} exceeds n={n}")
        basis = _sketch_basis(adj, method, ell, rng)
    approx = approx_svd(adj, basis)
    v = approx.vt.T
    first, group, _ = _twins(adj.T.tocsr())
    hub, auth = _expm_scores(adj @ v, v[first], approx.sigma**2, group)
    return _result(hub, auth, method, time.perf_counter() - t0, k)


def ranking_overlap(a: RankingResult, b: RankingResult, k: int, kind: str = "hubs") -> int:
    """Number of shared nodes among the two top-k lists (order-insensitive)."""
    if k < 0:
        # a negative slice end would compare all listed nodes but the last
        raise ValueError(f"k must be >= 0, got {k}")
    if kind == "hubs":
        la, lb = a.top_hubs, b.top_hubs
    elif kind == "authorities":
        la, lb = a.top_authorities, b.top_authorities
    else:
        raise ValueError("kind must be 'hubs' or 'authorities'")
    if k > len(la) or k > len(lb):
        raise ValueError(f"k={k} exceeds the stored top-list length")
    return len(set(la[:k]) & set(lb[:k]))
