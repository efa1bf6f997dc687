"""Round-trip the three supported on-disk formats.

svmlight sparse rows (1-indexed ``idx:val`` features, labels ignored),
MatrixMarket (coordinate for sparse, array for dense) and directed edge
lists (``src dst`` per line, ``#`` comments).  Loaders validate eagerly and
report offending line numbers instead of silently dropping data; bytes that
are not utf-8 are one more line fault.
"""

import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sparse

from sketchlab import (
    load_edge_list,
    load_matrix_market,
    load_svmlight,
    save_matrix_market,
    save_svmlight,
)

print(__doc__)
rng = np.random.default_rng(0)
dense = rng.standard_normal((6, 4))
csr = sparse.csr_matrix(np.where(rng.random((8, 5)) < 0.3, 1.0, 0.0) * dense.sum())

with tempfile.TemporaryDirectory(prefix="sketchlab_demo_") as tmp:
    workdir = Path(tmp)

    # MatrixMarket: dense -> array format, sparse -> coordinate format
    mtx = workdir / "dense.mtx"
    save_matrix_market(mtx, dense)
    back = load_matrix_market(mtx)
    print(f"matrixmarket dense round-trip bit-exact: {(back == dense).all()}")

    # svmlight keeps sparse structure and exact float values
    svm = workdir / "rows.svm"
    save_svmlight(svm, csr)
    back = load_svmlight(svm, n_cols=csr.shape[1])
    print(f"svmlight round-trip bit-exact: {(csr != back).nnz == 0}")
    sample = next(l for l in svm.read_text().splitlines() if ":" in l)
    print("a line of the file:", sample[:60], "...")

    # edge lists collapse duplicates and keep self loops
    edges = workdir / "graph.txt"
    edges.write_text("# tiny graph\n1 2\n1 2\n3 2\n2 2\n")
    adj = load_edge_list(edges)
    print(f"edge list -> {adj.shape[0]} nodes, {adj.nnz} unique edges "
          f"(duplicate collapsed, self loop kept)")

    # malformed input fails loudly, with the line number
    bad = workdir / "bad.svm"
    bad.write_text("1 1:0.5\n1 0:2.0\n")
    try:
        load_svmlight(bad)
    except ValueError as exc:
        print(f"rejected bad file: {exc}")

    # bytes that are not utf-8 are rejected with their line, like any fault
    garbled = workdir / "garbled.txt"
    garbled.write_bytes(b"1 2\n2 3\n3 \xff\n")
    try:
        load_edge_list(garbled)
    except UnicodeDecodeError as exc:
        print(f"rejected undecodable edge list: {exc}")
