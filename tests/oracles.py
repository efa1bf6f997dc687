"""Independent reference implementations used only by the test suite.

The sketcher oracles restate the buffer/shrink recursions line by line,
materialising every operator (embedding blocks, permutation matrix)
explicitly instead of sharing the vectorised production paths.  They share only two contracts with the
production code: the deterministic SVD kernel (so both sides resolve sign
and null-space ambiguities identically) and the documented random-draw
order (permutation first, then per-block bucket maps and signs), without
which seeded comparisons would be meaningless.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from sketchlab.linalg import as_csr, svd


def spemb_matrix(h: np.ndarray, signs: np.ndarray, n_out: int) -> np.ndarray:
    """Explicit dense embedding operator: one +-1 per column."""
    n_in = h.size
    phi = np.zeros((n_out, n_in))
    phi[h, np.arange(n_in)] = 1.0
    return phi @ np.diag(signs)


def draw_spemb(n_in: int, n_out: int, rng: np.random.Generator):
    """The documented draw order: bucket map, then signs."""
    h = rng.integers(0, n_out, size=n_in)
    signs = np.where(rng.random(n_in) < 0.5, 1.0, -1.0)
    return h, signs


def _shrink_round(buf: np.ndarray, ell: int):
    res = svd(buf)
    sigma = res.sigma
    delta = float(sigma[ell] ** 2) if sigma.size > ell else 0.0
    shrunk = np.sqrt(np.maximum(sigma**2 - delta, 0.0))
    new_buf = np.zeros_like(buf)
    new_buf[: sigma.size] = np.diag(shrunk) @ res.vt
    return new_buf, delta, res.vt


def fd_oracle(a: np.ndarray, ell: int):
    """Literal frequent-directions pass: 2*ell buffer, one shrink per block.

    Returns ``(B, V, deltas)``.
    """
    a = np.asarray(a, dtype=float)
    n, d = a.shape
    blocks = -(-n // ell)  # ceil
    padded = np.zeros((blocks * ell, d))
    padded[:n] = a
    buf = np.zeros((2 * ell, d))
    buf[:ell] = padded[:ell]
    deltas = []
    vt = None
    for i in range(1, blocks):
        buf[ell:] = padded[i * ell : (i + 1) * ell]
        buf, delta, vt = _shrink_round(buf, ell)
        deltas.append(delta)
    if vt is None:
        buf, delta, vt = _shrink_round(buf, ell)
        deltas.append(delta)
    return buf[:ell].copy(), vt[:ell].T.copy(), deltas


def spfd_oracle(a: np.ndarray, ell: int, q: int, seed: int):
    """Literal block-embedding + frequent-directions pass.

    Pads to a multiple of q, applies an explicit permutation matrix, embeds
    every block with an explicit operator, then runs the q-1 shrink
    iterations.  Returns ``(B, V, deltas)``.
    """
    a = np.asarray(a, dtype=float)
    n, d = a.shape
    n_pad = -(-n // q) * q
    padded = np.zeros((n_pad, d))
    padded[:n] = a
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_pad)
    p_mat = np.zeros((n_pad, n_pad))
    p_mat[np.arange(n_pad), perm] = 1.0
    pa = p_mat @ padded
    per_block = n_pad // q
    s_blocks = []
    for _ in range(q):
        h, signs = draw_spemb(per_block, ell, rng)
        s_blocks.append(spemb_matrix(h, signs, ell))
    buf = np.zeros((2 * ell, d))
    buf[:ell] = s_blocks[0] @ pa[:per_block]
    deltas = []
    vt = None
    for i in range(1, q):
        buf[ell:] = s_blocks[i] @ pa[i * per_block : (i + 1) * per_block]
        buf, delta, vt = _shrink_round(buf, ell)
        deltas.append(delta)
    b = buf[:ell].copy()
    if q == 1:
        v, _ = scipy.linalg.qr(b.T, mode="economic")
    else:
        v = vt[:ell].T.copy()
    return b, v, deltas


def dct_matrix_oracle(n: int) -> np.ndarray:
    """Direct materialisation of the orthonormal type-II DCT matrix."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    f = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    f[0] /= np.sqrt(2.0)
    return f


def best_in_rowspace_oracle(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """Brute-force best rank-k approximation of ``a`` inside rowspace(b):
    project onto the row space, then truncate the projection by SVD."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _, sb, vbt = np.linalg.svd(b, full_matrices=False)
    rank_b = int(np.sum(sb > max(b.shape) * np.finfo(float).eps * (sb[0] if sb.size else 0)))
    q = vbt[:rank_b].T
    proj = a @ q @ q.T
    u, s, vt = np.linalg.svd(proj, full_matrices=False)
    return (u[:, :k] * s[:k]) @ vt[:k]


def expm_diag_oracle(adj: np.ndarray):
    """Hub/authority scores from a dense matrix exponential of the 2n x 2n
    symmetric bipartite embedding."""
    adj = np.asarray(adj, dtype=float)
    n = adj.shape[0]
    big = np.zeros((2 * n, 2 * n))
    big[:n, n:] = adj
    big[n:, :n] = adj.T
    e = scipy.linalg.expm(big)
    return np.diag(e)[:n].copy(), np.diag(e)[n:].copy()


def load_svmlight_oracle(path, n_cols=None) -> sparse.csr_matrix:
    """The per-token svmlight loader that ``dataio.load_svmlight``'s bulk
    parse replaced, kept as the reference for its arrays and errors.

    Load the feature matrix of an svmlight/libsvm file as CSR.

    Lines look like ``label idx:val idx:val ...`` with 1-indexed, strictly
    increasing feature ids.  Labels are discarded.  The column count is the
    largest feature id seen unless ``n_cols`` overrides it.  Index 0 or
    non-increasing ids raise with the line number.
    """
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    max_col = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                raise ValueError(f"{path}:{lineno}: malformed line '{line}'")
            parts = line.split()
            prev = 0
            for token in parts[1:]:
                try:
                    idx_str, val_str = token.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: malformed feature '{token}'"
                    ) from exc
                if idx == 0:
                    raise ValueError(
                        f"{path}:{lineno}: feature ids are 1-indexed, got 0"
                    )
                if idx < 0:
                    raise ValueError(f"{path}:{lineno}: negative feature id {idx}")
                if idx <= prev:
                    raise ValueError(
                        f"{path}:{lineno}: feature ids must be strictly "
                        f"increasing, got {idx} after {prev}"
                    )
                prev = idx
                indices.append(idx - 1)
                data.append(val)
                max_col = max(max_col, idx)
            indptr.append(len(data))
    n_rows = len(indptr) - 1
    if n_rows == 0:
        raise ValueError(f"{path}: empty file")
    if n_cols is None:
        n_cols = max_col
    elif n_cols < max_col:
        raise ValueError(
            f"{path}: n_cols={n_cols} is smaller than the largest feature id "
            f"{max_col}"
        )
    if n_cols == 0:
        raise ValueError(f"{path}: no features found and no n_cols override")
    return as_csr(
        sparse.csr_matrix(
            (np.asarray(data), np.asarray(indices, dtype=np.int64), indptr),
            shape=(n_rows, n_cols),
        )
    )


def twins_oracle(csr: sparse.csr_matrix):
    """Groups of identical nonempty rows of a canonical CSR matrix, by a
    dict keyed on each row's index and value bytes, scanned in row order.
    Returns ``(first, group, count)`` as ``netrank._twins`` does."""
    group = np.full(csr.shape[0], -1, dtype=np.intp)
    first = []
    seen = {}
    ptr = csr.indptr.tolist()
    idx, val = csr.indices.tobytes(), csr.data.tobytes()
    wi, wv = csr.indices.itemsize, csr.data.itemsize
    for i in np.flatnonzero(np.diff(csr.indptr)).tolist():
        lo, hi = ptr[i], ptr[i + 1]
        key = (idx[wi * lo : wi * hi], val[wv * lo : wv * hi])
        g = group[i] = seen.setdefault(key, len(first))
        if g == len(first):
            first.append(i)
    count = np.bincount(group[group >= 0], minlength=len(first))
    return np.array(first, dtype=np.intp), group, count
