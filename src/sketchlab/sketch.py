"""The five sketching algorithms.

Each sketcher maps an ``n x d`` matrix to a small ``ell x d`` sketch ``B``
and (where the algorithm defines one) a ``d x ell`` orthonormal basis ``V``
for the sketch's row space:

``spemb_sketch``
    sparse subspace embedding (CountSketch): one random +-1 per input row,
    rows accumulated into ``ell`` buckets in O(nnz) time.
``fd_sketch``
    frequent directions: deterministic streaming pass that repeatedly
    decomposes a ``2*ell``-row buffer and shrinks all squared singular
    values by the (ell+1)-th one.  A buffer wider than it is tall is
    decomposed through its ``2*ell x 2*ell`` Gram matrix, one SVD per round.
``spfd_sketch``
    block sparse embedding feeding frequent directions: the input is
    zero-padded, row-permuted, compressed block-by-block with independent
    sparse embeddings, and the resulting ``q*ell`` rows are run through the
    frequent-directions loop (q-1 shrink iterations).
``norm_sampling_sketch``
    i.i.d. row sampling proportional to squared row norms, rescaled to be
    unbiased.
``dct_sketch``
    signed, subsampled orthonormal type-II discrete cosine transform.

All sketchers are pure functions of ``(matrix, parameters, seed)`` and are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.fft
import scipy.sparse as sparse

from .linalg import (
    Matrix,
    is_sparse,
    random_permutation,
    row_norms,
    svd,
    thin_qr,
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


def as_generator(rng: RngLike) -> np.random.Generator:
    """Accept either a seed or an existing ``numpy.random.Generator``."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


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
        """Draw a spec; the stream order (buckets, then signs) is fixed so
        that seeded runs are reproducible across callers.

        A drawn spec is valid by construction, so it skips the checks that
        ``__post_init__`` runs on specs built by callers: in loops over
        small inputs they cost more than the draw itself.
        """
        h = rng.integers(0, n_out, size=n_in)
        signs = np.where(rng.random(n_in) < 0.5, 1.0, -1.0)
        spec = object.__new__(cls)
        spec.__dict__.update(n_in=n_in, n_out=n_out, h=h, signs=signs)
        return spec


@dataclass(frozen=True)
class SketchOutput:
    """Sketch ``B`` (ell x d), optional row-space basis ``V`` (d x ell) and
    the per-iteration shrinkage amounts of the frequent-directions pass."""

    sketch: np.ndarray
    basis: Optional[np.ndarray]
    deltas: np.ndarray = field(default_factory=lambda: np.zeros(0))

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


def _embedding(rows, cols, signs, shape) -> sparse.csr_matrix:
    """Sparse embedding operator with entry ``signs[i]`` at
    ``(rows[i], cols[i])``.

    A row keeps its entries in input order, which is the order in which
    ``@`` sums the input rows into that bucket.
    """
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return sparse.csr_matrix((signs[order], cols[order], indptr), shape=shape)


def _embed(op: sparse.csr_matrix, a: Matrix) -> np.ndarray:
    out = op @ a
    return out.toarray() if is_sparse(out) else out


def spemb_apply(a: Matrix, spec: SpEmbSpec) -> np.ndarray:
    """Accumulate signed rows of ``a`` into the spec's buckets.

    Dense and CSR input alike are multiplied by the ``n_out x n_in`` CSR
    embedding operator, in O(nnz) work.  Within one bucket rows are
    accumulated in input order.
    """
    if spec.n_in != a.shape[0]:
        raise ValueError(
            f"spec expects {spec.n_in} input rows, matrix has {a.shape[0]}"
        )
    op = _embedding(spec.h, np.arange(spec.n_in), spec.signs, (spec.n_out, spec.n_in))
    return _embed(op, a)


def _basis_from_sketch(b: np.ndarray) -> np.ndarray:
    q, _ = thin_qr(b.T)
    return q


def spemb_sketch(a: Matrix, ell: int, rng: RngLike) -> SketchOutput:
    """Sparse-embedding sketch with a freshly drawn spec; basis via QR."""
    _check_ell(a, ell)
    rng = as_generator(rng)
    spec = SpEmbSpec.draw(a.shape[0], ell, rng)
    b = spemb_apply(a, spec)
    return SketchOutput(sketch=b, basis=_basis_from_sketch(b))


def _check_ell(a: Matrix, ell: int) -> None:
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > a.shape[1]:
        raise ValueError(
            f"ell={ell} exceeds the column count {a.shape[1]}; no orthonormal "
            "d x ell basis exists"
        )


# CSR input to the frequent-directions loop is densified about this many
# entries at a time, in whole ell-row blocks, instead of block by block.
_CHUNK_ENTRIES = 1 << 20


def _row_blocks(a: Matrix, ell: int):
    """The rows of ``a`` as consecutive dense blocks of ``ell`` rows, the
    last one possibly shorter."""
    n, d = a.shape
    step = ell * max(1, _CHUNK_ENTRIES // (ell * d)) if is_sparse(a) else n
    for lo in range(0, n, step):
        chunk = a[lo : lo + step]
        if is_sparse(chunk):
            chunk = chunk.toarray()
        for start in range(0, len(chunk), ell):
            yield chunk[start : start + ell]


# A direction recovered from the Gram matrix as ``buf.T @ u / sigma`` loses
# accuracy as its eigenvalue falls relative to the largest one.  Just above
# this ratio the directions still agree with the buffer's SVD to ~2e-11
# (the oracle tests ask for 1e-10); a round needing a smaller eigenvalue is
# redone with the buffer's SVD.
_GRAM_FLOOR = 1e-9


def _gram_round(buf: np.ndarray, ell: int):
    """Squared singular values of ``buf`` and its top right singular
    directions, from one SVD of the ``2*ell x 2*ell`` matrix ``buf @ buf.T``.

    Eigenvalues below the rounding level of the Gram entries (``d`` term
    inner products: ``d * eps`` times the largest eigenvalue) are exact
    zeros, so a rank-deficient buffer shrinks by 0 and only the directions
    of nonzero top-``ell`` eigenvalues are formed.  Returns ``None`` when a
    formed direction's eigenvalue is below ``_GRAM_FLOOR`` times the
    largest.
    """
    res = svd(buf @ buf.T)
    noise = res.sigma[0] * buf.shape[1] * np.finfo(float).eps
    lam = np.where(res.sigma > noise, res.sigma, 0.0)
    rank = int(np.count_nonzero(lam[:ell]))
    if rank and lam[rank - 1] < _GRAM_FLOOR * lam[0]:
        return None
    vt = (res.u[:, :rank].T @ buf) / np.sqrt(lam[:rank])[:, None]
    return lam, vt


def _fd_rounds(a: Matrix, ell: int) -> SketchOutput:
    """Frequent-directions buffer loop shared by ``fd_sketch`` and the
    block-embedded variant (which feeds it the intermediate sketch)."""
    d = a.shape[1]
    blocks = _row_blocks(a, ell)
    first = next(blocks)
    buf = np.zeros((2 * ell, d))
    buf[: len(first)] = first
    deltas: list[float] = []
    wide = 2 * ell < d

    def shrink_round() -> np.ndarray:
        found = _gram_round(buf, ell) if wide else None
        if found is None:
            res = svd(buf)
            found = res.sigma**2, res.vt[:ell]
        sq, vt = found
        delta = float(sq[ell]) if sq.size > ell else 0.0
        shrunk = np.sqrt(np.maximum(sq[: len(vt)] - delta, 0.0))
        buf[:] = 0.0
        buf[: len(vt)] = shrunk[:, None] * vt
        deltas.append(delta)
        return vt

    vt = None
    for block in blocks:
        # rows past a short last block stay zero: each round clears buf[ell:]
        buf[ell : ell + len(block)] = block
        vt = shrink_round()
    if vt is None:
        # Fewer rows than ell: the loop never runs, so perform the single
        # decomposition round here to define the basis (the shrink is a
        # no-op up to roundoff because the buffer rank is at most ell).
        vt = shrink_round()
    # Orthonormalise the last round's directions; the zero columns of a
    # rank-deficient round become an orthonormal completion.
    v = np.zeros((d, ell))
    v[:, : len(vt)] = vt.T
    basis, r = thin_qr(v)
    basis[:, np.diag(r) < 0] *= -1.0
    return SketchOutput(
        sketch=buf[:ell].copy(),
        basis=basis,
        deltas=np.asarray(deltas),
    )


def fd_sketch(a: Matrix, ell: int) -> SketchOutput:
    """Deterministic frequent-directions sketch (no randomness involved).

    Runs ``max(ceil(n/ell) - 1, 1)`` shrink rounds and records one entry of
    ``deltas`` per round; an input with ``n <= 2*ell`` rows takes a single
    round.  Each round needs the squared singular values and the top
    ``ell`` right singular directions of the ``2*ell x d`` buffer.  A wide
    buffer (``2*ell < d``) gets them from one SVD of the ``2*ell x 2*ell``
    Gram matrix ``buf @ buf.T``, with the directions formed as
    ``diag(1/sigma) U^T buf``; eigenvalues at the Gram rounding level count
    as zeros, and a round that keeps an eigenvalue below 1e-9 times the
    largest is redone with an SVD of the buffer.  Other buffers are
    decomposed directly.  The basis is the thin QR of the last round's
    directions, with ``diag(R) >= 0``.
    """
    _check_ell(a, ell)
    return _fd_rounds(a, ell)


def spfd_intermediate(a: Matrix, cfg: SpfdConfig) -> np.ndarray:
    """The ``q*ell x d`` stack of per-block sparse embeddings of the padded,
    row-permuted input.

    All q block embeddings and the row permutation form one
    ``q*ell x n`` CSR operator, applied to dense or CSR input as one
    sparse product; the zero padding rows are left out of it.

    This is the intermediate sketch that the frequent-directions stage of
    ``spfd_sketch`` consumes; it is exposed separately because several
    statistical guarantees (norm preservation in expectation, subspace
    embedding) are statements about this operator alone.

    The seed discipline is fixed: the row permutation is drawn first, then
    the q block specs in block order.
    """
    rng = np.random.default_rng(cfg.seed)
    n = a.shape[0]
    per_block = -(-n // cfg.q)
    perm = random_permutation(per_block * cfg.q, rng)
    specs = [SpEmbSpec.draw(per_block, cfg.ell, rng) for _ in range(cfg.q)]
    rows = np.concatenate([j * cfg.ell + spec.h for j, spec in enumerate(specs)])
    signs = np.concatenate([spec.signs for spec in specs])
    # Permuted position p feeds row rows[p] from input row perm[p].
    real = perm < n
    op = _embedding(rows[real], perm[real], signs[real], (cfg.q * cfg.ell, n))
    return _embed(op, a)


def spfd_sketch(a: Matrix, cfg: SpfdConfig) -> SketchOutput:
    """Block sparse embedding followed by frequent directions.

    With ``q == 1`` no shrink iterations happen and the basis is built
    directly from the (single-block) embedded sketch via QR, making the
    sketcher coincide with ``spemb_sketch`` of the permuted input.
    """
    _check_ell(a, cfg.ell)
    inter = spfd_intermediate(a, cfg)
    if cfg.q == 1:
        return SketchOutput(sketch=inter, basis=_basis_from_sketch(inter))
    return _fd_rounds(inter, cfg.ell)


def norm_sampling_sketch(a: Matrix, ell: int, rng: RngLike) -> SketchOutput:
    """Sample ``ell`` rows i.i.d. with probability proportional to their
    squared norm, each rescaled by ``1/sqrt(ell * p_i)`` for unbiasedness."""
    _check_ell(a, ell)
    rng = as_generator(rng)
    norms_sq = row_norms(a) ** 2
    total = norms_sq.sum()
    if total <= 0.0:
        raise ValueError("norm sampling is undefined for an all-zero matrix")
    p = norms_sq / total
    idx = rng.choice(a.shape[0], size=ell, replace=True, p=p)
    picked = a[idx].toarray() if is_sparse(a) else a[idx]
    b = picked / np.sqrt(ell * p[idx])[:, None]
    return SketchOutput(sketch=b, basis=_basis_from_sketch(b))


def _dct_rows(row_idx: np.ndarray, n: int) -> np.ndarray:
    """Selected rows of the n x n orthonormal type-II DCT matrix."""
    j = np.arange(n)
    f = np.sqrt(2.0 / n) * np.cos(
        np.pi * (2.0 * j[None, :] + 1.0) * row_idx[:, None] / (2.0 * n)
    )
    f[row_idx == 0] /= np.sqrt(2.0)
    return f


def dct_sketch(a: Matrix, ell: int, rng: RngLike) -> SketchOutput:
    """Subsampled randomized discrete cosine transform sketch.

    The sketch is ``sqrt(n/ell)`` times ``ell`` uniformly-without-replacement
    selected rows of the orthonormal DCT-II of the sign-flipped input.  Dense
    inputs go through the O(n log n) fast transform; sparse inputs multiply
    the selected transform rows against the matrix to respect sparsity.
    """
    _check_ell(a, ell)
    n = a.shape[0]
    if ell > n:
        raise ValueError(f"ell={ell} exceeds the row count {n}")
    rng = as_generator(rng)
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    rows = rng.choice(n, size=ell, replace=False)
    scale = np.sqrt(n / ell)
    if is_sparse(a):
        m = _dct_rows(rows, n) * signs[None, :]
        b = scale * (m @ a)
        b = np.asarray(b)
    else:
        y = scipy.fft.dct(signs[:, None] * a, type=2, axis=0, norm="ortho")
        b = scale * y[rows]
    return SketchOutput(sketch=b, basis=_basis_from_sketch(b))
