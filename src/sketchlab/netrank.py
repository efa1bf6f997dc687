"""Hub and authority ranking for directed graphs.

Three routes to the scores of each node:

* ``hits`` - alternating power iteration for the dominant eigenvectors of
  ``A^T A`` (authorities) and ``A A^T`` (hubs);
* ``expm_scores_exact`` - diagonal entries of the exponential of the
  symmetric bipartite embedding ``[[0, A], [A^T, 0]]``.  Its diagonal
  blocks are ``cosh(sqrt(A A^T))`` and ``I + A^T g(A A^T) A`` with
  ``g(lam) = (cosh(sqrt(lam)) - 1) / lam``, so one dense symmetric
  eigendecomposition ``A A^T = U diag(lam) U^T`` gives both score vectors;
* ``expm_scores_sketched`` - the same quantities from an approximate SVD
  obtained through any of the sketchers, so only ``ell = k + p`` singular
  triplets are ever formed.
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
    as_generator,
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
    2-norm.  Signs are fixed so the dominant entry is positive.  An all-zero
    iterate flags the result as degenerate; hitting ``max_iter`` flags it as
    unconverged (neither is fatal).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    adj = _check_square(adj)
    n = adj.shape[0]
    rng = as_generator(rng)
    t0 = time.perf_counter()
    auth = rng.standard_normal(n)
    hub = rng.standard_normal(n)
    auth /= np.linalg.norm(auth)
    hub /= np.linalg.norm(hub)
    status = "unconverged"
    for _ in range(max_iter):
        auth_new = adj.T @ hub
        norm = np.linalg.norm(auth_new)
        if norm == 0.0:
            return _result(
                np.zeros(n), np.zeros(n), "hits",
                time.perf_counter() - t0, top_k, status="degenerate",
            )
        auth_new /= norm
        hub_new = adj @ auth_new
        norm = np.linalg.norm(hub_new)
        if norm == 0.0:
            return _result(
                np.zeros(n), np.zeros(n), "hits",
                time.perf_counter() - t0, top_k, status="degenerate",
            )
        hub_new /= norm
        moved = max(
            np.linalg.norm(auth_new - auth), np.linalg.norm(hub_new - hub)
        )
        auth, hub = auth_new, hub_new
        if moved <= tol:
            status = "ok"
            break
    if auth[np.argmax(np.abs(auth))] < 0:
        auth = -auth
    if hub[np.argmax(np.abs(hub))] < 0:
        hub = -hub
    return _result(hub, auth, "hits", time.perf_counter() - t0, top_k, status)


def _check_cosh(sigma: np.ndarray) -> None:
    if sigma.size and sigma.max() > _COSH_OVERFLOW:
        raise NumericalError(
            f"largest singular value {sigma.max():.3g} overflows cosh in "
            "float64"
        )


def _cosh_scores(u: np.ndarray, v: np.ndarray, sigma: np.ndarray):
    _check_cosh(sigma)
    weights = np.cosh(sigma)
    return (u**2) @ weights, (v**2) @ weights


def expm_scores_exact(adj, top_k: int = 10) -> RankingResult:
    """Exponential-based scores from one dense eigendecomposition of A A^T.

    hub_i and authority_i are the i-th diagonal entries of the two diagonal
    blocks of the exponential of ``[[0, A], [A^T, 0]]``.  With
    ``A A^T = U diag(lam) U^T`` (``lam`` clamped at 0) and ``W = A^T U``::

        hub  = 1 + (U * U) @ (cosh(sqrt(lam)) - 1)
        auth = 1 + (W * W) @ g(lam),  g(lam) = (cosh(sqrt(lam)) - 1) / lam

    with ``g(0) = 1/2``.  ``cosh(s) - 1`` is evaluated as ``2 sinh(s/2)^2``,
    which does not cancel for small ``s``.  Both functions are analytic in
    ``lam``, so working with the squared spectrum costs no accuracy.
    """
    adj = _check_square(adj)
    n = adj.shape[0]
    if n > _EXACT_SIZE_GUARD:
        raise ValueError(
            f"exact scores need a dense n x n eigendecomposition of A A^T; "
            f"n={n} exceeds the guard {_EXACT_SIZE_GUARD}"
        )
    t0 = time.perf_counter()
    try:
        lam, u = np.linalg.eigh((adj @ adj.T).toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigh of A A^T failed to converge: {exc}") from exc
    lam = np.maximum(lam, 0.0)
    sigma = np.sqrt(lam)
    _check_cosh(sigma)
    cosh_m1 = 2.0 * np.sinh(sigma / 2.0) ** 2
    g = np.divide(cosh_m1, lam, out=np.full(n, 0.5), where=lam > 0.0)
    w = adj.T @ u
    hub = 1.0 + (u**2) @ cosh_m1
    auth = 1.0 + (w**2) @ g
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
    basis.  Scores use only the retained singular triplets, i.e. the
    rank-(n-ell) tail of the exponential is truncated away, which preserves
    rankings when the retained spectrum dominates.
    """
    adj = _check_square(adj)
    n = adj.shape[0]
    rng = as_generator(rng)
    t0 = time.perf_counter()
    if basis is None:
        ell = k + p
        if ell > n:
            raise ValueError(f"sketch size k+p={ell} exceeds n={n}")
        basis = _sketch_basis(adj, method, ell, rng)
    approx = approx_svd(adj, basis)
    hub, auth = _cosh_scores(approx.u, approx.v, approx.sigma)
    return _result(hub, auth, method, time.perf_counter() - t0, k)


def ranking_overlap(a: RankingResult, b: RankingResult, k: int, kind: str = "hubs") -> int:
    """Number of shared nodes among the two top-k lists (order-insensitive)."""
    if kind == "hubs":
        la, lb = a.top_hubs, b.top_hubs
    elif kind == "authorities":
        la, lb = a.top_authorities, b.top_authorities
    else:
        raise ValueError("kind must be 'hubs' or 'authorities'")
    if k > len(la) or k > len(lb):
        raise ValueError(f"k={k} exceeds the stored top-list length")
    return len(set(la[:k]) & set(lb[:k]))
