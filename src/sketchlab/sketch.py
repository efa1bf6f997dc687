"""The five sketching algorithms.

Each sketcher maps an ``n x d`` matrix to a small ``ell x d`` sketch ``B``
and a ``d x ell`` matrix ``V`` with orthonormal columns whose span holds
the sketch's row space.  The two are equal when ``B`` has rank ``ell``.
A rank-deficient sketch (an empty spemb bucket, a repeated sampled row, a
rank-deficient FD round) has ``V`` completed by QR with orthonormal
directions outside its row space, which the input does not determine:
two identical columns of the input can get different rows of ``V``.

The sketchers:

``spemb_sketch``
    sparse subspace embedding (CountSketch): one random +-1 per input row,
    rows accumulated into ``ell`` buckets in O(nnz) time.
``fd_sketch``
    frequent directions: deterministic streaming pass that keeps at most
    ``ell`` shrunk values ``s`` and their orthonormal directions ``vt``
    (the sketch rows ``s*vt``), and in each round decomposes those rows
    with the next block's nonzero rows, at most ``2*ell`` in all, and
    shrinks all squared singular values by the (ell+1)-th one.  Every
    round, wide or tall, takes one ``eigh`` of the Gram matrix assembled
    from ``diag(s**2)`` and the block's products with ``vt`` and with
    itself; only a round whose Gram route declines forms the buffer, for
    its SVD.
``spfd_sketch``
    block sparse embedding feeding frequent directions: the shuffled input
    rows are compressed in ``q`` blocks by independent sparse embeddings,
    and the resulting ``q*ell`` rows are run through the
    frequent-directions loop (q-1 shrink iterations).  A block of
    ``ceil(n/q)`` rows leaves buckets empty when ``ell`` exceeds that
    count, and its rounds skip those zero rows.  The blocks' draws
    make one bucket map over the input rows, which the spemb kernel
    applies in input order.
``norm_sampling_sketch``
    i.i.d. row sampling proportional to squared row norms, rescaled to be
    unbiased.
``dct_sketch``
    signed, subsampled orthonormal type-II discrete cosine transform: the
    ``ell`` sampled rows of the transform, formed directly, times the
    input, for dense and sparse input alike.

All sketchers are pure functions of ``(matrix, parameters, seed)`` and are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse as sparse

from .linalg import (
    Matrix, _gram_top, _row_chunks, check_finite, row_norms, svd, thin_qr,
)

__all__ = [
    "SpEmbSpec",
    "SketchOutput",
    "SpfdConfig",
    "spemb_apply",
    "spemb_sketch",
    "fd_sketch",
    "spfd_intermediate",
    "spfd_sketch",
    "norm_sampling_sketch",
    "dct_sketch",
    "parse_sketcher_id",
]

RngLike = Union[int, np.random.Generator]


def parse_sketcher_id(method: str) -> tuple[str, Optional[int]]:
    """Split a sketcher id like ``spfd50`` into ``("spfd", 50)``; plain ids
    come back with ``None``.  The block count is an ASCII-digit suffix of
    at least 1."""
    method = method.strip().lower()
    if method in ("normsamp", "dct", "spemb", "fd"):
        return method, None
    if method.startswith("spfd"):
        suffix = method[4:]
        if not (suffix.isascii() and suffix.isdigit()) or int(suffix) < 1:
            raise ValueError(
                f"bad sketcher id '{method}': spfd needs a block count >= 1, "
                "e.g. 'spfd10'"
            )
        return "spfd", int(suffix)
    raise ValueError(f"unknown sketcher id '{method}'")


def _draw_buckets(n_in: int, n_out: int, rng: np.random.Generator):
    """Uniform buckets, then +-1 signs, for ``n_in`` rows (a fixed order)."""
    h = rng.integers(0, n_out, size=n_in)
    signs = np.where(rng.random(n_in) < 0.5, 1.0, -1.0)
    return h, signs


@dataclass(frozen=True)
class SpEmbSpec:
    """One sparse-embedding draw: a bucket map and a sign per input row.

    The implied ``n_out x n_in`` operator has exactly one nonzero (+-1) per
    column; applying it sums signed input rows into buckets.
    """

    n_in: int
    n_out: int
    h: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        if self.h.shape != (self.n_in,) or self.signs.shape != (self.n_in,):
            raise ValueError("bucket map and signs must have one entry per input row")
        if not np.issubdtype(self.h.dtype, np.integer):
            raise ValueError(
                f"h must hold integer bucket indices, got dtype {self.h.dtype}"
            )
        if self.h.size and (self.h.min() < 0 or self.h.max() >= self.n_out):
            raise ValueError("bucket indices out of range")
        if not np.isin(self.signs, (-1.0, 1.0)).all():
            raise ValueError("signs must be +-1")

    @classmethod
    def draw(cls, n_in: int, n_out: int, rng: np.random.Generator) -> "SpEmbSpec":
        """Draw a spec from ``rng``: the bucket map first, then the signs."""
        return cls(n_in, n_out, *_draw_buckets(n_in, n_out, rng))


@dataclass(frozen=True)
class SketchOutput:
    """Sketch ``B`` (ell x d), orthonormal basis ``V`` (d x ell) whose span
    holds ``B``'s row space (equal to it only when ``B`` has rank ell; see
    the module docstring), the shrinkage amount of every frequent-directions
    round, and ``gram_fallbacks``, the rounds that fell back to the
    buffer's SVD."""

    sketch: np.ndarray
    basis: np.ndarray
    deltas: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gram_fallbacks: int = 0

    @property
    def delta_total(self) -> float:
        return float(self.deltas.sum())


@dataclass(frozen=True)
class SpfdConfig:
    """Parameters of the block-embedded frequent-directions sketcher."""

    ell: int
    q: int
    seed: int = 0

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _embed(a: Matrix, buckets: np.ndarray, signs: np.ndarray, n_out: int) -> np.ndarray:
    """Add row ``i`` of ``a``, times ``signs[i]``, into row ``buckets[i]`` of
    an ``n_out x d`` array; each bucket sums its rows in input order.

    Sparse input takes one ``np.bincount`` that adds every stored entry into
    its ``bucket*d + column`` cell in storage order.  Dense input is
    multiplied by the ``n_out x n`` CSR embedding operator, whose rows keep
    their entries in input order.  Both take O(nnz) work.
    """
    if sparse.issparse(a):
        a = a.tocsr()
        d = a.shape[1]
        counts = np.diff(a.indptr)
        cells = np.repeat(buckets.astype(np.intp, copy=False) * d, counts) + a.indices
        weights = np.repeat(signs, counts) * a.data
        return np.bincount(cells, weights, minlength=n_out * d).reshape(n_out, d)
    order = np.argsort(buckets, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(buckets, minlength=n_out))))
    op = sparse.csr_matrix((signs[order], order, indptr), shape=(n_out, len(buckets)))
    return op @ a


def spemb_apply(a: Matrix, spec: SpEmbSpec) -> np.ndarray:
    """Accumulate signed rows of ``a`` into the spec's buckets.

    This is the one embedding kernel (`_embed`) under the spec's map: each
    bucket sums its rows in input order, sparse input by one scatter of its
    stored entries, dense input by one CSR operator product.
    """
    if spec.n_in != a.shape[0]:
        raise ValueError(
            f"spec expects {spec.n_in} input rows, matrix has {a.shape[0]}"
        )
    return _embed(a, spec.h, spec.signs, spec.n_out)


def _basis_from_sketch(b: np.ndarray) -> np.ndarray:
    q, _ = thin_qr(b.T)
    return q


def spemb_sketch(a: Matrix, ell: int, rng: RngLike) -> SketchOutput:
    """Sparse-embedding sketch with a freshly drawn spec; basis via QR."""
    _check_ell(a, ell)
    rng = np.random.default_rng(rng)
    spec = SpEmbSpec.draw(a.shape[0], ell, rng)
    b = spemb_apply(a, spec)
    return SketchOutput(sketch=b, basis=_basis_from_sketch(b))


def _check_rows(a: Matrix) -> None:
    if a.shape[0] < 1:
        raise ValueError(f"cannot sketch a matrix with no rows, got shape {a.shape}")


def _check_ell(a: Matrix, ell: int) -> None:
    _check_rows(a)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > a.shape[1]:
        raise ValueError(
            f"ell={ell} exceeds the column count {a.shape[1]}; no orthonormal "
            "d x ell basis exists"
        )


def _row_blocks(a: Matrix, ell: int):
    """Each block of ``ell`` consecutive rows of ``a`` (the last block
    possibly shorter), a dense view of its chunk; CSR input is densified a
    whole chunk at a time."""
    for rows in _row_chunks(a, ell):
        chunk = a[rows]
        if sparse.issparse(chunk):
            chunk = chunk.toarray()
        for start in range(0, len(chunk), ell):
            yield chunk[start : start + ell]


def _shrink_round(s: np.ndarray, vt: np.ndarray, x: np.ndarray, ell: int):
    """One frequent-directions decomposition of the buffer ``[s*vt; x]``,
    the kept directions ``vt`` (orthonormal rows) scaled by their shrunk
    values ``s`` and the incoming block ``x``: its squared singular values
    ``sq`` (at most ``d`` of them), its top right singular directions (at
    most ``ell`` rows, only those of nonzero values) and whether the round
    fell back to the buffer's SVD.

    One ``x != 0`` mask finds the block's zero rows, which add only zero
    singular values and are dropped, and its nonzero columns, over which
    the products with ``x`` are taken when those are at most half of them.
    The buffer is not formed, wide or tall: as ``vt`` has orthonormal rows,
    its Gram matrix is ``diag(s**2)`` beside the cross block ``s * (x @
    vt.T)`` and ``x @ x.T``.  The Gram's eigenvectors ``u``
    (`linalg._gram_top`, with `svd`'s sign rule) give the directions as
    ``u.T @ [s*vt; x] / sigma``, one product with ``vt`` and one with
    ``x``.  Only a round the Gram route declines forms the buffer, for its
    SVD.  An empty buffer gives no value and no direction.
    """
    d = x.shape[1]
    mask = x != 0
    rows = mask.any(axis=1)
    if not rows.all():
        x = x[rows]
    k, r = len(s), len(x)
    if not k + r:
        return np.zeros(0), vt, False
    cols = np.flatnonzero(mask.any(axis=0))
    if 2 * len(cols) > d:
        cols = slice(None)
    xc = x[:, cols]
    gram = np.empty((k + r, k + r))
    gram[:k, :k] = np.diag(s * s)
    gram[k:, :k] = (xc @ vt[:, cols].T) * s
    gram[:k, k:] = gram[k:, :k].T
    gram[k:, k:] = xc @ xc.T
    out = _gram_top(gram, d, ell, wide=True)
    if out is not None:
        lam, u, sigma = out
        coef = u / sigma
        directions = (coef[:k] * s[:, None]).T @ vt
        directions[:, cols] += coef[k:].T @ xc
        # a tall Gram's eigenvalues past the d-th are zeros of d columns
        return lam[:d], directions, False
    res = svd(np.concatenate([s[:, None] * vt, x]))
    return res.sigma**2, res.vt[:ell], True


def _fd_rounds(a: Matrix, ell: int) -> SketchOutput:
    """Frequent-directions loop shared by ``fd_sketch`` and the
    block-embedded variant (which feeds it the intermediate sketch).

    The loop keeps the shrunk values ``s`` and their directions ``vt``, not
    a ``2*ell x d`` buffer: the kept rows are ``s*vt``, and only the
    directions that shrink to a nonzero row are kept.  Each round
    decomposes those rows and the incoming block of ``ell`` rows
    (`_shrink_round`, which drops the block's zero rows); the first round
    takes the first two blocks.  Zero rows would add only zero singular
    values, so the shrinkage, the directions and the round count are those
    of the whole ``2*ell``-row buffer, while the round is sized by the rows
    that hold data: an spfd block leaves buckets empty when ``ell`` exceeds
    its ``ceil(n/q)`` rows.  The matrix is checked for NaN and Inf once,
    here; the rounds do not check again.
    """
    check_finite(a)
    d = a.shape[1]
    blocks = _row_blocks(a, ell)
    # an input of at most ell rows takes its single round on an empty block
    first = np.concatenate([next(blocks), next(blocks, np.zeros((0, d)))])
    s, vt = np.zeros(0), np.zeros((0, d))
    deltas: list[float] = []
    fallbacks = 0
    for x in itertools.chain([first], blocks):
        sq, directions, fell_back = _shrink_round(s, vt, x, ell)
        fallbacks += fell_back
        delta = float(sq[ell]) if sq.size > ell else 0.0
        shrunk = np.sqrt(np.maximum(sq[: len(directions)] - delta, 0.0))
        top = int(np.count_nonzero(shrunk))  # a descending prefix
        s, vt = shrunk[:top], directions[:top]
        deltas.append(delta)
    # Orthonormalise the last round's directions; the zero columns of a
    # rank-deficient round become an orthonormal completion.
    v = np.zeros((d, ell))
    v[:, : len(directions)] = directions.T
    basis, r = thin_qr(v)
    basis[:, np.diag(r) < 0] *= -1.0
    sketch = np.zeros((ell, d))
    sketch[:top] = s[:, None] * vt
    return SketchOutput(
        sketch=sketch,
        basis=basis,
        deltas=np.asarray(deltas),
        gram_fallbacks=fallbacks,
    )


def fd_sketch(a: Matrix, ell: int) -> SketchOutput:
    """Deterministic frequent-directions sketch (no randomness involved).

    Runs ``max(ceil(n/ell) - 1, 1)`` shrink rounds, each on the kept rows
    and one block, at most ``2*ell`` rows of length ``d``, and records one
    entry of ``deltas`` per round; an input with ``n <= 2*ell`` rows takes
    a single round.  NaN or Inf input raises
    ``ValueError`` before the first round.  The basis is the thin QR of the
    last round's directions, with ``diag(R) >= 0``.  Sparse input of any
    format is read as CSR.
    """
    _check_ell(a, ell)
    return _fd_rounds(a.tocsr() if sparse.issparse(a) else a, ell)


def spfd_intermediate(a: Matrix, cfg: SpfdConfig) -> np.ndarray:
    """The ``q*ell x d`` stack of per-block sparse embeddings of the
    row-permuted input, padded with zero rows to ``q`` equal blocks.

    The draws become one bucket and one sign per input row: permuted
    position ``p`` of block ``j`` sends input row ``perm[p]`` to bucket
    ``j*ell + h_j``, and the positions past the ``n`` input rows, the zero
    padding, are dropped.  The rows are then embedded by the same kernel as
    ``spemb_apply``, with no row gather: each bucket sums its rows in input
    order.

    This is the intermediate sketch that the frequent-directions stage of
    ``spfd_sketch`` consumes; it is exposed separately because several
    statistical guarantees (norm preservation in expectation, subspace
    embedding) are statements about this operator alone.

    The seed discipline is fixed: the row permutation is drawn first, then
    each block's bucket map and signs, in block order.  A matrix with no
    rows raises ``ValueError``; ``ell`` may exceed the column count.
    """
    _check_rows(a)
    rng = np.random.default_rng(cfg.seed)
    n = a.shape[0]
    per_block = -(-n // cfg.q)
    perm = rng.permutation(per_block * cfg.q)
    blocks = [_draw_buckets(per_block, cfg.ell, rng) for _ in range(cfg.q)]
    buckets = np.empty(perm.size, dtype=np.intp)
    signs = np.empty(perm.size)
    buckets[perm] = np.concatenate([j * cfg.ell + h for j, (h, _) in enumerate(blocks)])
    signs[perm] = np.concatenate([s for _, s in blocks])
    return _embed(a, buckets[:n], signs[:n], cfg.q * cfg.ell)


def spfd_sketch(a: Matrix, cfg: SpfdConfig) -> SketchOutput:
    """Block sparse embedding followed by frequent directions.

    The block embedding is `spfd_intermediate`, one embedding kernel
    shared with ``spemb_apply``.  With ``q == 1`` no shrink iterations
    happen and the basis is built directly from the single-block sketch via
    QR: the sketcher is then spemb with the permuted map, whose input row
    ``i`` goes to bucket ``h[inv[i]]`` with sign ``signs[inv[i]]``, ``inv``
    the inverse of the row permutation.
    """
    _check_ell(a, cfg.ell)
    inter = spfd_intermediate(a, cfg)
    if cfg.q == 1:
        return SketchOutput(sketch=inter, basis=_basis_from_sketch(inter))
    return _fd_rounds(inter, cfg.ell)


def norm_sampling_sketch(a: Matrix, ell: int, rng: RngLike) -> SketchOutput:
    """Sample ``ell`` rows i.i.d. with probability proportional to their
    squared norm, each rescaled by ``1/sqrt(ell * p_i)`` for unbiasedness.
    Sparse input of any format is read as CSR."""
    _check_ell(a, ell)
    a = a.tocsr() if sparse.issparse(a) else a  # rows are gathered by index
    check_finite(a)
    rng = np.random.default_rng(rng)
    norms_sq = row_norms(a) ** 2
    total = norms_sq.sum()
    if total <= 0.0:
        raise ValueError("norm sampling is undefined for an all-zero matrix")
    p = norms_sq / total
    idx = rng.choice(a.shape[0], size=ell, replace=True, p=p)
    picked = a[idx].toarray() if sparse.issparse(a) else a[idx]
    b = picked / np.sqrt(ell * p[idx])[:, None]
    return SketchOutput(sketch=b, basis=_basis_from_sketch(b))


def _dct_rows(row_idx: np.ndarray, n: int) -> np.ndarray:
    """Selected rows of the n x n orthonormal type-II DCT matrix.

    ``row_idx`` holds int64 row indices.  Entry ``(i, j)`` is ``sqrt(2/n)
    cos(pi p / 2n)`` with the integer phase ``p = (2j + 1) i mod 4n`` (row
    0 then scaled by ``1/sqrt(2)``).  The phase is exact in int64 for ``n <
    2**31``, so every entry is read from a table of the ``4n`` values
    ``sqrt(2/n) cos(pi p / 2n)``: no angle past ``2 pi`` is rounded before
    its cosine, and only ``4n`` cosines are taken.
    """
    table = np.sqrt(2.0 / n) * np.cos(np.pi / (2 * n) * np.arange(4 * n))
    phase = np.outer(row_idx, np.arange(1, 2 * n, 2, dtype=np.int64))
    phase %= 4 * n
    f = table[phase]
    f[row_idx == 0] /= np.sqrt(2.0)
    return f


def dct_sketch(a: Matrix, ell: int, rng: RngLike) -> SketchOutput:
    """Subsampled randomized discrete cosine transform sketch.

    The sketch is ``sqrt(n/ell)`` times ``ell`` uniformly-without-replacement
    selected rows of the orthonormal DCT-II of the sign-flipped input: the
    signs are drawn first, then the rows.  Dense and sparse input take the
    same product: the ``ell x n`` selected transform rows (`_dct_rows`),
    their columns signed, times the matrix.  That costs ``O(ell * nnz)``
    and holds at most two ``ell x n`` arrays beside the input, the rows'
    phases and then the rows.
    """
    _check_ell(a, ell)
    n = a.shape[0]
    if ell > n:
        raise ValueError(f"ell={ell} exceeds the row count {n}")
    rng = np.random.default_rng(rng)
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    rows = rng.choice(n, size=ell, replace=False)
    m = _dct_rows(rows, n)
    m *= signs
    b = np.sqrt(n / ell) * (m @ a)
    return SketchOutput(sketch=b, basis=_basis_from_sketch(b))
