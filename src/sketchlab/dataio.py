"""File formats: svmlight sparse rows, MatrixMarket, edge lists.

Loaders never drop data silently: malformed content raises with the
offending line number, and duplicate handling (summing coordinate entries,
collapsing repeated edges) is explicit.  Each loader opens its file once.
The text loaders read undecodable bytes as lone surrogates
(``surrogateescape``) and report them in line order like any other fault:
a line that is not utf-8 raises its own ``UnicodeDecodeError``, with
``path:line`` in its reason, only when no earlier line is malformed.
"""

from __future__ import annotations

import logging
from itertools import filterfalse, islice
from pathlib import Path
from typing import NoReturn, Optional, Union

import numpy as np
import scipy.sparse as sparse

from .linalg import Matrix, as_csr, as_dense

log = logging.getLogger(__name__)

__all__ = [
    "load_svmlight",
    "save_svmlight",
    "load_matrix_market",
    "save_matrix_market",
    "load_edge_list",
]

PathLike = Union[str, Path]


# lines parsed per bulk step of ``load_svmlight``: its Python token lists
# never hold more than one chunk, whatever the file size
_SVMLIGHT_CHUNK_LINES = 4096
_INT64_MAX = np.iinfo(np.int64).max
_COLON, _SPACE = ord(":"), ord(" ")


def load_svmlight(path: PathLike, n_cols: Optional[int] = None) -> sparse.csr_matrix:
    """Load the feature matrix of an svmlight/libsvm file as CSR.

    Lines look like ``label idx:val idx:val ...`` with 1-indexed, strictly
    increasing feature ids.  Labels are discarded.  The column count is the
    largest feature id seen unless ``n_cols`` overrides it.  Index 0,
    non-increasing ids or ids beyond int64 raise with the line number.

    The file is parsed in bulk, ``_SVMLIGHT_CHUNK_LINES`` lines at a time:
    each chunk's tokens are converted by numpy (Python's ``int``/``float``
    grammar) and checked with vectorised comparisons, and only its numpy
    arrays are kept, so the parser's memory beyond the result is bounded by
    one chunk.  When a chunk fails a check, its lines are walked one by one
    to report the first fault with its line number.
    """
    chunks = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        first = 1
        while lines := list(islice(fh, _SVMLIGHT_CHUNK_LINES)):
            try:
                chunks.append(_parse_svmlight_chunk(lines))
            except (ValueError, OverflowError) as exc:
                _raise_svmlight_fault(path, lines, first, exc)
            first += len(lines)
    n_rows = sum(counts.size for _, _, counts in chunks)
    if n_rows == 0:
        raise ValueError(f"{path}: empty file")
    data, indices, counts = map(np.concatenate, zip(*chunks))
    del chunks
    indptr = np.concatenate(([0], np.cumsum(counts)))
    max_col = int(indices.max()) + 1 if indices.size else 0
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
        sparse.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))
    )


def _parse_svmlight_chunk(lines: list[str]):
    """``(values, indices, counts)`` of the rows in ``lines``: 0-based
    column indices and each row's feature count.  Raises ``ValueError`` or
    ``OverflowError`` on any fault, without saying where."""
    # undecodable bytes, read as lone surrogates, do not encode back
    for line in filterfalse(str.isascii, lines):
        line.encode("utf-8")
    rows = list(filter(None, map(str.split, lines)))
    if any(row[0].startswith("#") for row in rows):
        raise ValueError("comment line")
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) - 1
    joined = " ".join([token for row in rows for token in row[1:]])
    # every feature holds exactly one ':' iff the separators of the joined
    # features alternate ':' and ' ' (both ASCII, so utf-8 bytes serve)
    raw = np.frombuffer(joined.encode(), dtype=np.uint8)
    seps = raw[(raw == _COLON) | (raw == _SPACE)]
    if (
        seps.size != max(2 * int(counts.sum()) - 1, 0)
        or (seps[0::2] != _COLON).any()
        or (seps[1::2] != _SPACE).any()
    ):
        raise ValueError("feature without exactly one ':'")
    fields = joined.replace(":", " ").split(" ") if joined else []
    idx = np.array(fields[0::2], dtype=np.int64)
    val = np.array(fields[1::2], dtype=np.float64)
    # ids >= 1 and strictly increasing within each row: the steps that
    # cross a row boundary are set aside
    steps = np.diff(idx)
    ends = np.cumsum(counts)[:-1]
    steps[ends[(ends > 0) & (ends < idx.size)] - 1] = 1
    if idx.size and (idx.min() < 1 or steps.min(initial=1) < 1):
        raise ValueError("feature ids not positive and increasing")
    idx -= 1
    return val, idx, counts


def _check_decodes(path: PathLike, lineno: int, line: str) -> None:
    """Raise the ``UnicodeDecodeError`` of line ``lineno`` if it holds bytes
    that are not utf-8, with ``path:lineno`` added to its reason."""
    if not line.isascii():
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            exc.reason = f"{path}:{lineno}: {exc.reason}"
            raise


def _raise_svmlight_fault(
    path: PathLike, lines: list[str], first: int, cause: Exception
) -> NoReturn:
    """Raise the line-numbered error for the first fault in ``lines``, whose
    first line is line ``first`` of the file."""
    for lineno, line in enumerate(lines, start=first):
        _check_decodes(path, lineno, line)
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            raise ValueError(f"{path}:{lineno}: malformed line '{line}'")
        prev = 0
        for token in line.split()[1:]:
            try:
                idx_str, val_str = token.split(":", 1)
                idx = int(idx_str)
                float(val_str)
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
            if idx > _INT64_MAX:
                raise ValueError(
                    f"{path}:{lineno}: feature id {idx} does not fit in int64"
                )
            prev = idx
    raise RuntimeError(
        f"{path}:{first}-{first + len(lines) - 1}: the bulk parse rejected "
        "lines that the line-by-line check accepts"
    ) from cause


def save_svmlight(path: PathLike, a: Matrix) -> None:
    """Write a matrix in svmlight format with all labels set to 0."""
    a = as_csr(a)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(a.shape[0]):
            row = a.indices[a.indptr[i] : a.indptr[i + 1]]
            vals = a.data[a.indptr[i] : a.indptr[i + 1]]
            feats = " ".join(f"{j + 1}:{v:.17g}" for j, v in zip(row, vals))
            fh.write(f"0 {feats}".rstrip() + "\n")


def load_matrix_market(path: PathLike) -> Matrix:
    """Read a real general MatrixMarket file.

    Coordinate files come back as canonical CSR with duplicate entries
    summed; array files come back dense.  Complex or pattern qualifiers are
    rejected explicitly.
    """
    with open(path, "rb") as fh:
        fields = fh.readline().decode("latin1").strip().lower().split()
        if len(fields) < 5 or not fields[0].startswith("%%matrixmarket"):
            raise ValueError(f"{path}: not a MatrixMarket file")
        _, obj, fmt, field, symmetry = fields[:5]
        if obj != "matrix":
            raise ValueError(f"{path}: unsupported object '{obj}'")
        if field not in ("real", "integer"):
            raise ValueError(f"{path}: unsupported field '{field}' (real only)")
        if symmetry != "general":
            raise ValueError(f"{path}: unsupported symmetry '{symmetry}'")
        fh.seek(0)
        import scipy.io  # imported on use, as the package docstring says

        loaded = scipy.io.mmread(fh)
    if sparse.issparse(loaded):
        parsed = loaded.nnz
        out = as_csr(loaded)
        if parsed != out.nnz:
            log.info(
                "%s: %d coordinate entries collapsed (duplicates summed, "
                "explicit zeros dropped); %d stored",
                path, parsed - out.nnz, out.nnz,
            )
        return out
    return as_dense(loaded)


def save_matrix_market(path: PathLike, a: Matrix) -> None:
    """Write a matrix in MatrixMarket format (coordinate for sparse input,
    array for dense), at full float64 round-trip precision."""
    import scipy.io  # imported on use, as the package docstring says

    a = as_csr(a) if sparse.issparse(a) else as_dense(a)
    scipy.io.mmwrite(str(path), a, precision=17)


def load_edge_list(path: PathLike, one_indexed: bool = True) -> sparse.csr_matrix:
    """Read a directed edge list into a square 0/1 adjacency matrix.

    One ``src dst`` pair per line, ``#`` comment lines skipped, duplicate
    edges collapsed to a single 1, self loops kept.  Node count is the
    largest id (plus one when zero-indexed).
    """
    srcs: list[int] = []
    dsts: list[int] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            _check_decodes(path, lineno, line)
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'src dst', got {len(parts)} tokens"
                )
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: non-integer node id in '{line}'"
                ) from exc
            if i < 0 or j < 0:
                raise ValueError(f"{path}:{lineno}: negative node id")
            if one_indexed and (i == 0 or j == 0):
                raise ValueError(
                    f"{path}:{lineno}: node id 0 in a one-indexed edge list"
                )
            for node in (i, j):
                if node > _INT64_MAX:
                    raise ValueError(
                        f"{path}:{lineno}: node id {node} does not fit in int64"
                    )
            srcs.append(i)
            dsts.append(j)
    if not srcs:
        raise ValueError(f"{path}: no edges found")
    offset = 1 if one_indexed else 0
    row = np.asarray(srcs, dtype=np.int64) - offset
    col = np.asarray(dsts, dtype=np.int64) - offset
    n = int(max(row.max(), col.max())) + 1
    adj = sparse.csr_matrix(
        (np.ones(len(row)), (row, col)), shape=(n, n)
    )
    # repeated edges sum up during conversion; clip back to 0/1
    adj.data[:] = 1.0
    if adj.nnz != len(row):
        log.info(
            "%s: %d duplicate edges collapsed; %d unique edges kept",
            path, len(row) - adj.nnz, adj.nnz,
        )
    return as_csr(adj)
