"""sketchlab: matrix sketching, low-rank approximation and ranking tools.

Importing the package loads numpy and ``scipy.sparse`` only:
``scipy.linalg``, ``scipy.io`` and ``scipy.sparse.linalg`` are imported by
the functions that call them (`svd`'s fallback driver, the MatrixMarket
reader and writer, and the Lanczos solves of `lowrank`), so that a process
pays for those modules only when it calls them.
"""

from .bench import BenchConfig, ResultRow, emit_results, load_config, run_benchmark
from .datagen import SyntheticSpec, generate_synthetic
from .dataio import (
    load_edge_list,
    load_matrix_market,
    load_svmlight,
    save_matrix_market,
    save_svmlight,
)
from .linalg import (
    Matrix,
    NumericalError,
    SvdResult,
    as_csr,
    as_dense,
    fro_norm,
    row_norms,
    svd,
    thin_qr,
)
from .lowrank import (
    ErrorReport,
    LowRankFactors,
    approx_from_basis,
    approx_svd,
    best_rank_k,
    error_report,
    residual_spectral_norm,
)
from .netrank import (
    RankingResult,
    expm_scores_exact,
    expm_scores_sketched,
    hits,
    ranking_overlap,
)
from .sketch import (
    SketchOutput,
    SpEmbSpec,
    SpfdConfig,
    dct_sketch,
    fd_sketch,
    norm_sampling_sketch,
    spemb_apply,
    spemb_sketch,
    spfd_intermediate,
    spfd_sketch,
)

__version__ = "0.1.0"
