import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

import sketchlab.lowrank
from sketchlab.datagen import SyntheticSpec, generate_synthetic
from sketchlab.linalg import NumericalError, as_csr, fro_norm, row_norms, svd, thin_qr
from sketchlab.lowrank import (
    ErrorReport,
    LowRankFactors,
    approx_from_basis,
    approx_svd,
    best_rank_k,
    error_report,
    residual_spectral_norm,
)
from sketchlab.netrank import expm_scores_exact, expm_scores_sketched, hits
from sketchlab.sketch import (
    SpfdConfig, dct_sketch, fd_sketch, norm_sampling_sketch, spemb_sketch, spfd_sketch,
)

from oracles import best_in_rowspace_oracle


def random_dense(n, d, seed):
    return np.random.default_rng(seed).standard_normal((n, d))


def materialise(f: LowRankFactors) -> np.ndarray:
    return f.left @ f.right_basis.T


class TestBestRankK:
    def test_diagonal(self):
        f = best_rank_k(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(materialise(f), np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_exact_rank_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((9, 4)) @ rng.standard_normal((4, 7))
        f = best_rank_k(a, 4)
        assert fro_norm(a - materialise(f)) <= 1e-8 * fro_norm(a)

    def test_residual_matches_tail_spectrum(self):
        a = random_dense(10, 6, seed=1)
        f = best_rank_k(a, 3)
        resid = fro_norm(a - materialise(f)) ** 2
        tail = np.sum(svd(a).sigma[3:] ** 2)
        assert np.isclose(resid, tail, rtol=1e-8)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            best_rank_k(random_dense(4, 3, seed=2), 0)
        with pytest.raises(ValueError):
            best_rank_k(random_dense(4, 3, seed=2), 4)

    def test_orthonormal_right_basis(self):
        f = best_rank_k(random_dense(8, 5, seed=3), 2)
        assert np.abs(f.right_basis.T @ f.right_basis - np.eye(2)).max() <= 1e-10


class TestApproxFromBasis:
    def test_k_below_one_rejected(self):
        v, _ = thin_qr(random_dense(5, 3, seed=4))
        with pytest.raises(ValueError, match="k must be >= 1"):
            approx_from_basis(random_dense(9, 5, seed=4), v, 0)

    def test_factor_widths_must_equal_k(self):
        with pytest.raises(ValueError, match="factor widths must equal k"):
            LowRankFactors(np.zeros((9, 2)), np.zeros((5, 2)), 3)
        with pytest.raises(ValueError, match="factor widths must equal k"):
            LowRankFactors(np.zeros((9, 3)), np.zeros((5, 2)), 3)

    def test_exact_singular_basis_gives_best(self):
        a = random_dense(9, 5, seed=4)
        k = 2
        v = svd(a).vt[:k].T
        f = approx_from_basis(a, v, k)
        best = best_rank_k(a, k)
        assert fro_norm(materialise(f) - materialise(best)) <= 1e-8 * fro_norm(a)

    def test_full_rowspace_recovers_exactly(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
        v = svd(a).vt[:3].T
        f = approx_from_basis(a, v, 3)
        assert fro_norm(a - materialise(f)) <= 1e-8 * fro_norm(a)

    def test_matches_brute_force_projection(self):
        # best rank-k within the row space of a (full-rank) sketch
        for seed in range(5):
            a = random_dense(8, 5, seed=seed + 10)
            b = random_dense(3, 5, seed=seed + 40)
            v, _ = thin_qr(b.T)
            f = approx_from_basis(a, v, 2)
            ref = best_in_rowspace_oracle(a, b, 2)
            assert np.isclose(
                fro_norm(a - materialise(f)) ** 2,
                fro_norm(a - ref) ** 2,
                rtol=1e-8,
                atol=1e-10,
            )

    def test_rotation_invariance(self):
        a = random_dense(10, 6, seed=16)
        out = spemb_sketch(a, 4, rng=17)
        rot, _ = thin_qr(random_dense(4, 4, seed=18))
        f1 = approx_from_basis(a, out.basis, 2)
        f2 = approx_from_basis(a, out.basis @ rot, 2)
        assert fro_norm(materialise(f1) - materialise(f2)) <= 1e-8 * fro_norm(a)

    def test_sparse_input(self):
        rng = np.random.default_rng(19)
        a = sparse.csr_matrix(np.where(rng.random((12, 6)) < 0.4,
                                       rng.standard_normal((12, 6)), 0.0))
        out = fd_sketch(a, 3)
        f = approx_from_basis(a, out.basis, 2)
        assert f.left.shape == (12, 2)

    def test_rejections(self):
        a = random_dense(6, 4, seed=20)
        v = svd(a).vt[:2].T
        with pytest.raises(ValueError):
            approx_from_basis(a, v, 3)  # k > ell
        with pytest.raises(ValueError):
            approx_from_basis(a, v * 1.5, 2)  # not orthonormal


def rank_r(n, d, r, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, r)) @ rng.standard_normal((r, d))


def random_csr(n, d, seed, density=0.3):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, d)) < density
    return sparse.csr_matrix(np.where(mask, rng.standard_normal((n, d)), 0.0))


def count_svd_calls(monkeypatch) -> list:
    """Route ``sketchlab.lowrank.svd`` through a recorder; returns the list
    that collects the shape of every decomposed matrix."""
    calls = []
    real = sketchlab.lowrank.svd

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(sketchlab.lowrank, "svd", counted)
    return calls


def count_eigh_calls(monkeypatch) -> list:
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def conditioned(n, d, kappa, seed):
    """Dense ``n x d`` input with singular values spaced geometrically from
    1 to ``1/kappa``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (u * np.logspace(0, -np.log10(kappa), d)) @ v.T


# name -> (matrix, k, rank, basis width for approx_from_basis, whether the
# Gram route declines on ``b = a @ v``, for k directions as for all
# min(n, ell)); the basis widths make ``b`` tall, tall, square, wide, tall
# of rank 3 < k, and tall with condition number 1e4 (a kept eigenvalue of
# the Gram matrix below the floor) or 1e12 (below its rounding level)
TOP_K_INPUTS = {
    "tall-dense": (random_dense(200, 30, seed=50), 5, 30, 10, False),
    "tall-csr": (random_csr(300, 40, seed=51), 5, 40, 10, False),
    "square": (random_dense(40, 40, seed=52), 5, 40, 40, False),
    "wide": (random_dense(20, 50, seed=53), 5, 20, 30, False),
    "rank-deficient": (rank_r(100, 20, 3, seed=54), 6, 3, 8, True),
    "kappa-1e4": (conditioned(300, 25, 1e4, seed=73), 25, 25, 25, True),
    "kappa-1e12": (conditioned(300, 25, 1e12, seed=73), 25, 25, 25, True),
}


def check_top_k(x, k, rank, left, w):
    """``left`` and ``w`` against ``np.linalg.svd`` of ``x``: the projector
    onto the top directions and the left factors up to the sign rule, both
    to 1e-12, for the ``min(k, rank)`` directions the SVD determines."""
    dense = x.toarray() if sparse.issparse(x) else x
    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    m = min(k, rank)
    w_ref = vt[:m].T
    proj = w[:, :m] @ w[:, :m].T - w_ref @ w_ref.T
    assert np.abs(proj).max() <= 1e-12
    peaks = np.argmax(np.abs(u[:, :m]), axis=0)
    flip = np.where(u[peaks, np.arange(m)] < 0, -1.0, 1.0)
    left_ref = u[:, :m] * (s[:m] * flip)
    assert np.abs(left[:, :m] - left_ref).max() <= 1e-12 * s[0]
    # directions beyond the rank carry nothing
    assert np.abs(left[:, m:]).max(initial=0.0) <= 1e-12 * s[0]
    assert np.abs(w.T @ w - np.eye(k)).max() <= 1e-12
    peaks = np.argmax(np.abs(left), axis=0)
    assert (left[peaks, np.arange(k)] > 0).all()


class TestRFactorRoute:
    """``best_rank_k`` takes the top-k right singular vectors ``W_k`` of
    ``a`` from one ``eigh`` of its ``d x d`` Gram matrix when ``a`` is tall,
    ``k < d`` and the rounding bound certifies it, from one Lanczos solve
    for the top k+1 triplets when ``a`` is square or wide, ``k + 1 <
    min(n, d)`` and the residual bound certifies them, else from one
    ``svd(a)``; the Gram route keeps the Gram root, a non-triangular R
    factor.
    ``approx_from_basis`` takes those of ``b = a @ v`` from one ``eigh`` of
    its smaller Gram matrix, and calls ``svd`` on ``b`` exactly when that
    route declines or ``rank(b) < k``.  Both give ``left = x @ W_k`` with
    the largest-|u| sign rule."""

    @pytest.mark.parametrize("name", list(TOP_K_INPUTS))
    def test_best_rank_k(self, monkeypatch, name):
        a, k, rank, _, _ = TOP_K_INPUTS[name]
        calls = count_svd_calls(monkeypatch)
        eighs = count_eigh_calls(monkeypatch)
        f = best_rank_k(a, k)
        n, d = a.shape
        # rank 3 < k + 1 trips the certificate, and k = d skips it
        certified = name in ("tall-dense", "tall-csr")
        truncated = name in ("square", "wide")
        assert eighs == ([(d, d)] if n > d > k else [])
        assert calls == ([] if certified or truncated else [a.shape])
        assert (f.gram_root is not None) == certified
        assert len(f.spectrum) == (k + 1 if truncated else min(n, d))
        check_top_k(a, k, rank, f.left, f.right_basis)

    @pytest.mark.parametrize("name", list(TOP_K_INPUTS))
    def test_approx_from_basis(self, monkeypatch, name):
        a, k, rank, ell, falls_back = TOP_K_INPUTS[name]
        n, d = a.shape
        v, _ = thin_qr(random_dense(d, ell, seed=55))
        calls = count_svd_calls(monkeypatch)
        eighs = count_eigh_calls(monkeypatch)
        f = approx_from_basis(a, v, k)
        assert calls == ([(n, ell)] if falls_back else [])
        assert len(eighs) == 1
        b = a @ v
        w = v.T @ f.right_basis
        check_top_k(b, k, min(rank, ell), f.left, w)
        assert np.abs(f.right_basis - v @ w).max() <= 1e-12


def repeated_rows_csr(n, d, rank, seed):
    """CSR whose ``n`` rows are copies of ``rank`` sparse rows."""
    rows = random_csr(rank, d, seed=seed)
    return sparse.csr_matrix(rows[np.random.default_rng(seed).integers(rank, size=n)])


# name -> (matrix, basis width, k, whether b = a @ v takes svd(b)): the
# fallback inputs have rank 3 < k
LEFT_FACTOR_INPUTS = {
    "gram-dense": (random_dense(200, 30, seed=80), 10, 5, False),
    "gram-csr": (random_csr(300, 40, seed=81), 10, 5, False),
    "svd-dense": (rank_r(100, 20, 3, seed=82), 8, 6, True),
    "svd-csr": (repeated_rows_csr(100, 20, 3, seed=83), 8, 6, True),
}


class TestLeftFactor:
    """``approx_from_basis`` forms ``left = b @ W_k`` once, with the
    largest-|entry| of every column positive, on the Gram route and on the
    ``svd(b)`` fallback; ``approx_svd`` keeps orthonormal ``u``."""

    @pytest.mark.parametrize("name", list(LEFT_FACTOR_INPUTS))
    def test_left_is_b_times_w(self, monkeypatch, name):
        a, ell, k, falls_back = LEFT_FACTOR_INPUTS[name]
        v, _ = thin_qr(random_dense(a.shape[1], ell, seed=84))
        calls = count_svd_calls(monkeypatch)
        f = approx_from_basis(a, v, k)
        assert len(calls) == falls_back
        ref = (a @ v) @ (v.T @ f.right_basis)
        assert np.abs(f.left - ref).max() <= 1e-14 * np.abs(f.left).max()
        peaks = np.argmax(np.abs(f.left), axis=0)
        assert (f.left[peaks, np.arange(k)] > 0).all()

    @pytest.mark.parametrize("name", list(LEFT_FACTOR_INPUTS))
    def test_approx_svd_u_orthonormal(self, name):
        a, ell, _, _ = LEFT_FACTOR_INPUTS[name]
        v, _ = thin_qr(random_dense(a.shape[1], ell, seed=84))
        u = approx_svd(a, v).u
        assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-12


def conditioned_csr(n, d, kappa, seed, groups=5):
    """CSR ``U diag(sigma) V^T`` with ``sigma`` as in `conditioned`.  ``U``
    puts each row on one column, so its columns are orthonormal; ``V`` is
    orthogonal on ``groups`` column sets that each span the whole spectrum,
    so no column scaling hides the conditioning and every row keeps
    ``d / groups`` entries."""
    rng = np.random.default_rng(seed)
    cols = np.arange(n) % d
    vals = rng.standard_normal(n)
    vals /= np.sqrt(np.bincount(cols, weights=vals**2))[cols]
    u = sparse.csr_matrix((vals, (np.arange(n), cols)), shape=(n, d))
    v = np.zeros((d, d))
    for group in np.arange(d).reshape(-1, groups).T:
        v[np.ix_(group, group)], _ = np.linalg.qr(
            rng.standard_normal((group.size, group.size))
        )
    sigma = sparse.diags(np.logspace(0, -np.log10(kappa), d))
    return sparse.csr_matrix(u @ sigma @ v.T)


# name -> (tall matrix, whether best_rank_k(x, 4) takes the certified Gram
# route): the certificate must resolve every singular value, so
# kappa = 1e2 does, kappa >= 1e6 does not, and neither does rank below d
R_FACTOR_INPUTS = {
    **{
        f"{kind}-{kappa:g}": (make(300, 25, kappa, seed=60), kappa == 1e2)
        for kind, make in (("dense", conditioned), ("csr", conditioned_csr))
        for kappa in (1e2, 1e6, 1e8, 1e12)
    },
    "dense-rank-deficient": (rank_r(200, 20, 4, seed=62), False),
    "csr-rank-deficient": (
        sparse.csr_matrix(sparse.hstack([random_csr(200, 10, seed=63)] * 2)), False
    ),
}


def count_qr_calls(monkeypatch) -> list:
    calls = []
    real = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def record_dense_calls(monkeypatch) -> list:
    """Record the shape of every matrix densified through ``as_dense``, in
    ``lowrank`` or inside ``linalg.svd``."""
    calls = []
    for module in (sketchlab.lowrank, sketchlab.linalg):
        real = module.as_dense

        def recorded(a, real=real):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(module, "as_dense", recorded)
    return calls


class TestCholeskyQR2:
    """The tall exact reference against the singular values of a Householder
    QR's R factor (the class keeps the name of the CholeskyQR2 route these
    tests were written for).  ``best_rank_k`` calls neither QR nor
    Cholesky: it takes one ``eigh`` of the Gram matrix (a sparse product
    for CSR input, summed over row blocks) under its rounding bound, or
    one ``svd`` of the input."""

    @pytest.mark.parametrize("name", list(R_FACTOR_INPUTS))
    def test_matches_householder(self, monkeypatch, name):
        x, certified = R_FACTOR_INPUTS[name]
        dense = x.toarray() if sparse.issparse(x) else x
        ref = np.linalg.svd(np.linalg.qr(dense, mode="r"), compute_uv=False)
        # the Gram in row blocks: 40 rows for d = 25 (the last one short), 50 for d = 20
        monkeypatch.setattr(sketchlab.linalg, "_CHUNK_ENTRIES", 1000)
        calls = count_svd_calls(monkeypatch)
        qrs = count_qr_calls(monkeypatch)
        f = best_rank_k(x, 4)
        assert qrs == []
        assert calls == ([] if certified else [x.shape])
        assert (f.gram_root is not None) == certified
        assert np.abs(f.spectrum - ref).max() <= 1e-13 * ref[0]
        if certified:
            root = f.gram_root
            assert np.abs(root.T @ root - dense.T @ dense).max() <= 1e-13 * ref[0] ** 2

    @pytest.mark.parametrize("kind", ["dense", "csr"])
    def test_well_conditioned_takes_no_householder(self, monkeypatch, kind):
        x = R_FACTOR_INPUTS[f"{kind}-100"][0]
        v, _ = thin_qr(random_dense(x.shape[1], 10, seed=64))
        calls = count_qr_calls(monkeypatch)
        k = 4
        f = best_rank_k(x, k)
        approx_from_basis(x, v, k)
        assert calls == []
        check_top_k(x, k, x.shape[1], f.left, f.right_basis)

    def test_csr_never_densified(self, monkeypatch):
        calls = record_dense_calls(monkeypatch)
        svds = count_svd_calls(monkeypatch)
        x = R_FACTOR_INPUTS["csr-100"][0]
        f = best_rank_k(x, 4)
        assert f.gram_root is not None
        assert calls == [] and svds == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_csr_rejected(self, bad):
        x = random_csr(60, 8, seed=65).tolil()
        x[3, 2] = bad
        x = x.tocsr()
        v, _ = thin_qr(random_dense(8, 4, seed=66))
        with pytest.raises(ValueError, match="NaN or Inf"):
            best_rank_k(x, 2)
        with pytest.raises(ValueError, match="NaN or Inf"):
            approx_from_basis(x, v, 2)

    def test_no_scipy_linalg(self, monkeypatch):
        # numpy and scipy each load their own OpenBLAS; both routes of the
        # exact reference stay on numpy's
        import scipy.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg called")

        for name in scipy.linalg.__all__:
            if callable(getattr(scipy.linalg, name)):
                monkeypatch.setattr(scipy.linalg, name, refuse)
        for name in ("dense-1e+12", "csr-100", "dense-rank-deficient", "dense-100"):
            x = R_FACTOR_INPUTS[name][0]
            best_rank_k(x, 4)
            v, _ = thin_qr(random_dense(x.shape[1], 8, seed=67))
            approx_from_basis(x, v, 3)


def tiny_tail(n, d, k, seed, scale=1e-6):
    """Dense ``n x d`` with k singular values from 1 to 0.5 and a tail from
    ``scale`` to ``scale / 2``: a squared tail far below the rounding of
    the Gram matrix, which the certificate cannot resolve."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.concatenate([np.linspace(1.0, 0.5, k), scale * np.linspace(1.0, 0.5, d - k)])
    return (u * s) @ v.T


class TestGramCertificate:
    """A tall ``best_rank_k`` that the rounding bound does not certify takes
    one ``svd(a)``: its spectrum is the SVD's, and there is no Gram root
    (``k = d`` skips the bound: ``TestRFactorRoute``'s kappa inputs).  The
    Gram matrix is summed over row blocks, so the bound grows with the rows
    of a block and the count of blocks, not with ``n``."""

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_tiny_tail_takes_svd(self, monkeypatch, fmt):
        a = tiny_tail(200, 20, 4, seed=90)
        x = sparse.csr_matrix(a) if fmt == "csr" else a
        calls = count_svd_calls(monkeypatch)
        eighs = count_eigh_calls(monkeypatch)
        f = best_rank_k(x, 4)
        assert eighs == [(20, 20)] and calls == [a.shape]
        assert f.gram_root is None
        s = np.linalg.svd(a, compute_uv=False)
        assert np.abs(f.spectrum - s).max() <= 1e-13 * s[0]
        check_top_k(a, 4, 20, f.left, f.right_basis)

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_zero_matrix_is_certified(self, monkeypatch, fmt):
        # rank below d, yet certified: the Gram is exactly 0, so both
        # bounds are 0 and hold with equality
        a = np.zeros((50, 6))
        x = sparse.csr_matrix(a) if fmt == "csr" else a
        calls = count_svd_calls(monkeypatch)
        f = best_rank_k(x, 2)
        assert calls == [] and f.gram_root is not None
        assert (f.spectrum == 0.0).all() and (f.left == 0.0).all()
        rep = error_report(x, f, f, 0.0)
        assert (rep.fro_ratio, rep.spec_ratio) == (1.0, 1.0)

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_tall_input_stays_certified(self, monkeypatch, fmt):
        # 20000 rows, singular values 1 to 0.03: a bound that grew with n
        # would decline; 1000-entry blocks of 100 rows, 200 of them, give
        # m = 299 and certify with room to spare
        rng = np.random.default_rng(95)
        u, _ = np.linalg.qr(rng.standard_normal((20000, 10)))
        v, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        s = np.linspace(1.0, 0.03, 10)
        a = (u * s) @ v.T
        eps = np.finfo(float).eps / 2
        unblocked = 20000 * eps / (1 - 20000 * eps) * np.sum(s**2)
        assert unblocked > 2e-9 * s[-1] ** 2
        monkeypatch.setattr(sketchlab.linalg, "_CHUNK_ENTRIES", 1000)
        calls = count_svd_calls(monkeypatch)
        f = best_rank_k(sparse.csr_matrix(a) if fmt == "csr" else a, 2)
        assert calls == [] and f.gram_root is not None
        assert np.abs(f.spectrum - s).max() <= 1e-13
        check_top_k(a, 2, 10, f.left, f.right_basis)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_dense_rejected_before_eigh(self, monkeypatch, bad):
        a = random_dense(60, 8, seed=92)
        a[3, 2] = bad
        eighs = count_eigh_calls(monkeypatch)
        with pytest.raises(ValueError, match="NaN or Inf"):
            best_rank_k(a, 2)
        assert eighs == []


# name -> square or wide input that the truncated route certifies at k = 5
TRUNCATED_INPUTS = {
    "square-dense": random_dense(40, 40, seed=110),
    "wide-dense": random_dense(30, 70, seed=111),
    "square-csr": random_csr(60, 60, seed=112),
    "wide-csr": random_csr(40, 90, seed=113),
}


def record_svds_calls(monkeypatch) -> list:
    """Route ``scipy.sparse.linalg.svds`` through a recorder; returns the
    list that collects ``k`` of every solve that returned."""
    calls = []
    real = scipy.sparse.linalg.svds

    def recorded(a, k, **kwargs):
        out = real(a, k, **kwargs)
        calls.append(k)
        return out

    monkeypatch.setattr(scipy.sparse.linalg, "svds", recorded)
    return calls


class TestTruncatedRoute:
    """Square and wide ``best_rank_k`` with ``k + 1 < min(n, d)`` takes the
    top k+1 singular triplets from one ``svds`` on ``a`` as given, under a
    residual bound, and keeps those k+1 values and ``tail_fro``; it takes
    one ``svd(a)`` when ``k + 1 >= min(n, d)``, the bound fails or ARPACK
    raises."""

    K = 5

    @pytest.mark.parametrize("name", list(TRUNCATED_INPUTS))
    def test_one_solve_no_densify_no_svd(self, monkeypatch, name):
        a = TRUNCATED_INPUTS[name]
        dense_calls = record_dense_calls(monkeypatch)
        svd_calls = count_svd_calls(monkeypatch)
        solves = record_svds_calls(monkeypatch)
        f = best_rank_k(a, self.K)
        assert solves == [self.K + 1] and svd_calls == []
        assert dense_calls == ([] if sparse.issparse(a) else [a.shape])
        assert f.gram_root is None and f.projection
        dense = a.toarray() if sparse.issparse(a) else a
        s = np.linalg.svd(dense, compute_uv=False)
        assert np.abs(f.spectrum - s[: self.K + 1]).max() <= 1e-12 * s[0]
        assert f.tail_fro == pytest.approx(np.sqrt(np.sum(s[self.K :] ** 2)), rel=1e-12)
        check_top_k(a, self.K, min(a.shape), f.left, f.right_basis)

    @pytest.mark.parametrize("shape", [(40, 40), (40, 90)])
    def test_duplicate_entries_counted_once(self, shape):
        # every entry stored twice: scipy sums duplicates in products, so
        # the matrix is twice the canonical one, and so is its tail
        c = random_csr(*shape, seed=117)
        counts = 2 * np.diff(c.indptr)
        rows = np.repeat(np.arange(shape[0]), np.diff(c.indptr))
        twice = np.argsort(np.concatenate([rows, rows]), kind="stable")
        dup = sparse.csr_matrix(
            (np.concatenate([c.data, c.data])[twice],
             np.concatenate([c.indices, c.indices])[twice],
             np.concatenate([[0], np.cumsum(counts)])), shape=shape)
        assert not dup.has_canonical_format
        f = best_rank_k(dup, self.K)
        s = np.linalg.svd(2 * c.toarray(), compute_uv=False)
        assert len(f.spectrum) == self.K + 1
        assert np.abs(f.spectrum - s[: self.K + 1]).max() <= 1e-12 * s[0]
        assert f.tail_fro == pytest.approx(np.sqrt(np.sum(s[self.K :] ** 2)), rel=1e-12)

    @pytest.mark.parametrize("name", list(TRUNCATED_INPUTS))
    def test_bit_identical_repeats(self, name):
        a = TRUNCATED_INPUTS[name]
        f, g = best_rank_k(a, self.K), best_rank_k(a, self.K)
        for field in ("left", "right_basis", "spectrum"):
            assert np.array_equal(getattr(f, field), getattr(g, field))
        assert f.tail_fro == g.tail_fro

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    @pytest.mark.parametrize("shape", [(12, 12), (12, 30)])
    def test_k_plus_one_at_min_takes_svd(self, monkeypatch, fmt, shape):
        a = random_dense(*shape, seed=114)
        x = sparse.csr_matrix(a) if fmt == "csr" else a
        k = min(shape) - 1
        svd_calls = count_svd_calls(monkeypatch)
        solves = record_svds_calls(monkeypatch)
        f = best_rank_k(x, k)
        assert svd_calls == [shape] and solves == []
        s = np.linalg.svd(a, compute_uv=False)
        assert len(f.spectrum) == min(shape)
        assert f.tail_fro == np.sqrt(np.sum(f.spectrum[k:] ** 2))
        assert f.tail_fro == pytest.approx(s[k], rel=1e-12)

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    @pytest.mark.parametrize("shape", [(40, 40), (30, 60)])
    def test_failed_certificate_takes_svd(self, monkeypatch, fmt, shape):
        # rank 5 plus 1e-9 noise: a squared tail far below the rounding of
        # ||a||_F^2, which the bound cannot resolve
        a = rank_r(*shape, 5, seed=115) + 1e-9 * random_dense(*shape, seed=116)
        x = sparse.csr_matrix(a) if fmt == "csr" else a
        svd_calls = count_svd_calls(monkeypatch)
        solves = record_svds_calls(monkeypatch)
        f = best_rank_k(x, 5)
        assert solves == [6] and svd_calls == [shape]
        s = np.linalg.svd(a, compute_uv=False)
        assert len(f.spectrum) == min(shape)
        assert np.abs(f.spectrum - s).max() <= 1e-12 * s[0]

    @pytest.mark.parametrize("name", list(TRUNCATED_INPUTS))
    def test_arpack_failure_takes_svd(self, monkeypatch, name):
        a = TRUNCATED_INPUTS[name]

        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "svds", stalled)
        svd_calls = count_svd_calls(monkeypatch)
        f = best_rank_k(a, self.K)
        assert svd_calls == [a.shape] and len(f.spectrum) == min(a.shape)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", list(TRUNCATED_INPUTS))
    def test_nonfinite_rejected(self, monkeypatch, name, bad):
        a = TRUNCATED_INPUTS[name].copy()
        if sparse.issparse(a):
            a.data[3] = bad
        else:
            a[3, 2] = bad
        solves = record_svds_calls(monkeypatch)
        with pytest.raises(ValueError, match="NaN or Inf"):
            best_rank_k(a, self.K)
        assert solves == []

    @pytest.mark.parametrize("name", list(TRUNCATED_INPUTS))
    def test_ratios_match_dense_svd_reference(self, name):
        a = TRUNCATED_INPUTS[name]
        k = self.K
        dense = a.toarray() if sparse.issparse(a) else a
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        ref = LowRankFactors(
            left=u[:, :k] * s[:k], right_basis=vt[:k].T, k=k, spectrum=s,
            projection=True, tail_fro=float(np.sqrt(np.sum(s[k:] ** 2))),
        )
        approx = approx_from_basis(a, fd_sketch(a, 12).basis, k)
        got = error_report(a, approx, best_rank_k(a, k), 0.0)
        want = error_report(a, approx, ref, 0.0)
        assert got.fro_ratio == pytest.approx(want.fro_ratio, rel=1e-12)
        assert got.spec_ratio == pytest.approx(want.spec_ratio, rel=1e-12)


class TestGramKernel:
    """``approx_svd`` takes its triplets of ``b = a @ v`` from one ``eigh``
    of the smaller Gram matrix of ``b``, and makes one ``svd(b)`` exactly
    when that route declines or ``rank(b)`` is below ``min(n, ell)``.  It
    agrees with ``np.linalg.svd`` of ``b`` to 1e-12 either way."""

    @pytest.mark.parametrize("name", list(TOP_K_INPUTS))
    def test_approx_svd_matches_svd(self, monkeypatch, name):
        a, _, _, ell, falls_back = TOP_K_INPUTS[name]
        v, _ = thin_qr(random_dense(a.shape[1], ell, seed=75))
        b = a @ v
        svds = count_svd_calls(monkeypatch)
        eighs = count_eigh_calls(monkeypatch)
        res = approx_svd(a, v)
        assert svds == ([b.shape] if falls_back else [])
        assert len(eighs) == 1
        count = min(b.shape)
        assert res.u.shape == (b.shape[0], count) and res.vt.shape == (count, a.shape[1])
        ref = np.linalg.svd(b.toarray() if sparse.issparse(b) else b, compute_uv=False)
        assert np.abs(res.sigma - ref).max() <= 1e-12 * ref[0]
        rank = np.linalg.matrix_rank(b)
        check_top_k(b, count, rank, res.u * res.sigma, v.T @ res.vt.T)
        m = min(count, rank)
        assert np.abs(res.u[:, :m].T @ res.u[:, :m] - np.eye(m)).max() <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_dense_rejected_before_eigh(self, monkeypatch, bad):
        a = random_dense(40, 8, seed=76)
        a[5, 3] = bad
        v, _ = thin_qr(random_dense(8, 4, seed=77))
        eighs = count_eigh_calls(monkeypatch)
        with pytest.raises(ValueError, match="NaN or Inf"):
            approx_from_basis(a, v, 2)
        with pytest.raises(ValueError, match="NaN or Inf"):
            approx_svd(a, v)
        assert eighs == []


class TestApproxSvd:
    def test_full_basis_reconstructs(self):
        a = random_dense(7, 5, seed=21)
        v = svd(a).vt.T
        res = approx_svd(a, v)
        recon = (res.u * res.sigma) @ res.vt
        assert fro_norm(recon - a) <= 1e-8 * fro_norm(a)

    def test_orthonormal_outputs(self):
        a = random_dense(12, 6, seed=22)
        out = fd_sketch(a, 3)
        res = approx_svd(a, out.basis)
        assert np.abs(res.u.T @ res.u - np.eye(3)).max() <= 1e-10
        assert np.abs(res.vt @ res.vt.T - np.eye(3)).max() <= 1e-10

    def test_matches_dense_projection_oracle(self):
        a = random_dense(12, 12, seed=23)
        out = fd_sketch(a, 6)
        res = approx_svd(a, out.basis)
        proj = a @ out.basis @ out.basis.T
        ref_sigma = np.linalg.svd(proj, compute_uv=False)
        assert np.abs(res.sigma - ref_sigma[:6]).max() <= 1e-8 * ref_sigma[0]
        recon = (res.u * res.sigma) @ res.vt
        assert fro_norm(recon - proj) <= 1e-8 * fro_norm(a)

    def test_interlacing_under_projection(self):
        a = random_dense(15, 8, seed=24)
        out = spemb_sketch(a, 4, rng=25)
        res = approx_svd(a, out.basis)
        full = svd(a).sigma
        assert (res.sigma <= full[:4] + 1e-8 * full[0]).all()


class TestResidualSpectralNorm:
    def test_against_dense_norm(self):
        a = random_dense(30, 12, seed=26)
        f = best_rank_k(a, 3)
        est = residual_spectral_norm(a, f)
        ref = np.linalg.norm(a - materialise(f), 2)
        assert abs(est - ref) <= 1e-4 * ref

    def test_zero_residual(self):
        rng = np.random.default_rng(27)
        a = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 5))
        f = best_rank_k(a, 3)
        est = residual_spectral_norm(a, f)
        assert est <= 1e-10 * fro_norm(a)


def clustered(n, d, k, seed):
    """``n x d`` with k leading singular values 10..6 and a tail 1, 0.999,
    ... spaced 1e-3 apart: a residual whose top singular values cluster."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.concatenate([10.0 - np.arange(k), 1.0 - 1e-3 * np.arange(d - k)])
    return (u * s) @ v.T


def count_residual_products(monkeypatch) -> list:
    """Count calls of the module-level residual products, as a tracer
    wrapping them would."""
    calls = []
    for name in ("_matvec_residual", "_rmatvec_residual"):
        real = getattr(sketchlab.lowrank, name)

        def counted(*args, real=real):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(sketchlab.lowrank, name, counted)
    return calls


class TestLanczosResidualNorm:
    """``residual_spectral_norm`` is a Lanczos solve (``svds(k=1)``) on the
    implicit residual, accurate to ~1e-15 also where a power iteration
    stopped on stagnation falls 1e-6 to 1e-4 short."""

    def test_sketched_residual_2000x200(self):
        a = generate_synthetic(SyntheticSpec(n=2000, d=200, k=10, zeta=10.0, seed=61))
        f = approx_from_basis(a, fd_sketch(a, 40).basis, 10)
        ref = np.linalg.norm(a - materialise(f), 2)
        assert abs(residual_spectral_norm(a, f) - ref) <= 1e-10 * ref

    def test_clustered_spectrum(self):
        # a power iteration stopped on 1e-6 stagnation is 1.4e-4 low here
        a = clustered(400, 120, 5, seed=60)
        f = best_rank_k(a, 5)
        ref = np.linalg.norm(a - materialise(f), 2)
        assert abs(residual_spectral_norm(a, f) - ref) <= 1e-10 * ref

    def test_csr_input(self):
        a = random_csr(300, 40, seed=62)
        f = approx_from_basis(a, fd_sketch(a, 10).basis, 4)
        ref = np.linalg.norm(a.toarray() - materialise(f), 2)
        assert abs(residual_spectral_norm(a, f) - ref) <= 1e-10 * ref

    def test_products_counted_through_module_bindings(self, monkeypatch):
        a = random_dense(60, 25, seed=63)
        f = best_rank_k(a, 3)
        calls = count_residual_products(monkeypatch)
        est = residual_spectral_norm(a, f)
        assert est.matvecs == len(calls) > 0
        rep = error_report(a, f, f, 0.0)
        assert rep.spec_matvecs == est.matvecs
        assert len(calls) == 2 * est.matvecs

    def test_max_iter_bounds_products(self, monkeypatch):
        a = clustered(400, 120, 5, seed=60)
        f = best_rank_k(a, 5)
        calls = count_residual_products(monkeypatch)
        with pytest.raises(NumericalError, match="more than 10 products"):
            residual_spectral_norm(a, f, max_iter=10)
        assert len(calls) == 10

    def test_no_convergence_is_numerical_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "svds", stalled)
        a = random_dense(30, 12, seed=64)
        f = best_rank_k(a, 3)
        with pytest.raises(NumericalError, match="no convergence"):
            residual_spectral_norm(a, f)
        with pytest.raises(NumericalError):
            error_report(a, f, f, 0.0)

    def test_exactly_zero_residual(self):
        a = np.zeros((6, 4))
        a[0, 0] = 1.0
        f = best_rank_k(a, 1)
        assert residual_spectral_norm(a, f) == 0.0
        rep = error_report(a, f, f, 0.0)
        assert (rep.fro_ratio, rep.spec_ratio) == (1.0, 1.0)

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (2, 2)])
    def test_thin_and_tiny_shapes(self, shape):
        a = random_dense(*shape, seed=65)
        zero = LowRankFactors(
            left=np.zeros((shape[0], 1)), right_basis=np.eye(shape[1])[:, :1], k=1
        )
        ref = np.linalg.norm(a - materialise(zero), 2)
        assert abs(residual_spectral_norm(a, zero) - ref) <= 1e-12 * ref
        exact = best_rank_k(a, 1)
        rep = error_report(a, exact, exact, 0.0)
        assert rep.fro_ratio == pytest.approx(1.0, abs=1e-8)
        assert rep.spec_ratio == pytest.approx(1.0, abs=1e-8)


class TestSpectrumDenominators:
    """``error_report`` reads the optimal residuals from ``best_rank_k``'s
    factors: ``sigma_{k+1}`` from its spectrum and ``sqrt(sum_{i>k}
    sigma_i^2)`` as its ``tail_fro``.  The spectrum holds every singular
    value on the Gram and SVD routes and the top k+1 on the truncated
    route of square and wide input."""

    @pytest.mark.parametrize("name", ["tall-dense", "tall-csr", "square", "wide"])
    def test_denominators_match_svd(self, monkeypatch, name):
        a, k, *_ = TOP_K_INPUTS[name]
        dense = a.toarray() if sparse.issparse(a) else a
        s = np.linalg.svd(dense, compute_uv=False)
        exact = best_rank_k(a, k)
        kept = len(exact.spectrum)
        assert kept == (k + 1 if name in ("square", "wide") else len(s))
        assert np.abs(exact.spectrum - s[:kept]).max() <= 1e-12 * s[0]
        assert exact.tail_fro == pytest.approx(np.sqrt(np.sum(s[k:] ** 2)), rel=1e-12)
        # numerators fixed at 1e3 * sigma_1: the ratios expose the denominators
        num = 1e3 * s[0]
        monkeypatch.setattr(sketchlab.lowrank, "_residual_fro", lambda *args: num)
        monkeypatch.setattr(
            sketchlab.lowrank,
            "residual_spectral_norm",
            lambda *args: sketchlab.lowrank.SpectralNorm(num, 0),
        )
        rep = error_report(a, exact, exact, 0.0)
        assert num / rep.spec_ratio == pytest.approx(s[k], rel=1e-12)
        assert num / rep.fro_ratio == pytest.approx(
            np.sqrt(np.sum(s[k:] ** 2)), rel=1e-12
        )

    def test_exact_without_spectrum_rejected(self):
        a = random_dense(20, 8, seed=66)
        f = best_rank_k(a, 3)
        bare = LowRankFactors(left=f.left, right_basis=f.right_basis, k=3)
        with pytest.raises(ValueError, match="spectrum"):
            error_report(a, f, bare, 0.0)
        with pytest.raises(ValueError, match="tail_fro"):
            error_report(a, f, dataclasses.replace(f, tail_fro=None), 0.0)
        sketched = approx_from_basis(a, fd_sketch(a, 5).basis, 3)
        assert sketched.spectrum is None
        with pytest.raises(ValueError, match="spectrum"):
            error_report(a, f, sketched, 0.0)


def residual_first_args(monkeypatch) -> list:
    """Record the shape of the matrix each residual product gets."""
    shapes = []
    for name in ("_matvec_residual", "_rmatvec_residual"):
        real = getattr(sketchlab.lowrank, name)

        def recorded(a, *args, real=real):
            shapes.append(a.shape)
            return real(a, *args)

        monkeypatch.setattr(sketchlab.lowrank, name, recorded)
    return shapes


def denominators(exact: LowRankFactors) -> tuple[float, float]:
    """``(fro_den, spec_den)`` as `error_report` reads them."""
    return exact.tail_fro, float(exact.spectrum[exact.k])


# name -> (tall matrix, k, sketch width, whether best_rank_k certifies its
# Gram route): the ill-conditioned and the rank-deficient input take svd(a)
R_ROUTE_INPUTS = {
    "dense": (random_dense(200, 30, seed=70), 5, 10, True),
    "csr": (random_csr(300, 40, seed=71), 5, 10, True),
    "kappa-1e12": (R_FACTOR_INPUTS["dense-1e+12"][0], 3, 8, False),
    "rank-deficient": (rank_r(200, 20, 4, seed=72), 2, 6, False),
}


class TestRFactorNumerators:
    """With a tall reference that keeps its Gram root ``S`` (``S^T S = a^T
    a``, an R factor of ``a`` that is not triangular) and an approximation
    in projection form, ``error_report`` takes both numerators on ``S - (S
    Z) Z^T``; every other case keeps the residual on ``a``."""

    @pytest.mark.parametrize("name", list(R_ROUTE_INPUTS))
    def test_numerators_match_explicit_residual(self, monkeypatch, name):
        a, k, ell, certified = R_ROUTE_INPUTS[name]
        d = a.shape[1]
        qr_calls = count_qr_calls(monkeypatch)
        svd_calls = count_svd_calls(monkeypatch)
        exact = best_rank_k(a, k)
        assert qr_calls == [] and svd_calls == ([] if certified else [a.shape])
        assert exact.projection
        if certified:
            assert exact.gram_root.shape == (d, d)
        else:
            assert exact.gram_root is None
        approx = approx_from_basis(a, fd_sketch(a, ell).basis, k)
        assert approx.projection and approx.gram_root is None
        shapes = residual_first_args(monkeypatch)
        rep = error_report(a, approx, exact, 0.0)
        assert shapes and set(shapes) == {(d, d) if certified else a.shape}
        dense = a.toarray() if sparse.issparse(a) else a
        resid = dense - materialise(approx)
        fro_den, spec_den = denominators(exact)
        fro_ref = np.linalg.norm(resid) / fro_den
        spec_ref = np.linalg.norm(resid, 2) / spec_den
        assert abs(rep.fro_ratio - fro_ref) <= 1e-12 * fro_ref
        assert abs(rep.spec_ratio - spec_ref) <= 1e-12 * spec_ref
        assert rep.spec_matvecs == len(shapes)

    @pytest.mark.parametrize(
        "name", ["square", "wide", "tall-unmarked", "tall-uncertified"])
    def test_other_cases_run_on_a(self, monkeypatch, name):
        if name == "tall-uncertified":
            a, k, ell = tiny_tail(200, 20, 4, seed=93), 4, 8
        else:
            a, k, _, ell, _ = TOP_K_INPUTS[
                "tall-dense" if name == "tall-unmarked" else name]
        exact = best_rank_k(a, k)
        approx = approx_from_basis(a, fd_sketch(a, ell).basis, k)
        if name == "tall-unmarked":
            assert exact.gram_root is not None
            approx = LowRankFactors(left=approx.left, right_basis=approx.right_basis, k=k)
        else:
            assert exact.gram_root is None
        shapes = residual_first_args(monkeypatch)
        rep = error_report(a, approx, exact, 0.0)
        assert shapes and set(shapes) == {a.shape}
        fro_den, spec_den = denominators(exact)
        fro_num = sketchlab.lowrank._residual_fro(a, approx)
        spec_num = residual_spectral_norm(a, approx)
        assert rep.fro_ratio == fro_num / fro_den
        assert rep.spec_ratio == spec_num / spec_den
        assert rep.spec_matvecs == spec_num.matvecs

    def test_mismatched_r_factor_rejected(self):
        a = random_dense(40, 10, seed=73)
        exact = best_rank_k(a, 3)
        bad = dataclasses.replace(exact, gram_root=exact.gram_root[:-1, :-1])
        with pytest.raises(ValueError, match="Gram root"):
            error_report(a, exact, bad, 0.0)
        unmarked = LowRankFactors(left=exact.left, right_basis=exact.right_basis, k=3)
        with pytest.raises(ValueError, match="Gram root"):
            error_report(a, unmarked, bad, 0.0)


class TestFrobeniusResidual:
    """``_residual_fro`` sums ``a - left @ right_basis.T`` over row chunks,
    so it matches the dense norm near rank k, where the expansion
    ``||a||^2 - 2<left, a Z> + ||left||^2`` would cancel, as well as on
    well-conditioned input and across chunk boundaries."""

    @staticmethod
    def check(a, k, rel, fmt, ell=None):
        if fmt == "csr":
            a = sparse.csr_matrix(a)
        f = best_rank_k(a, k) if ell is None else approx_from_basis(
            a, fd_sketch(a, ell).basis, k)
        dense = a.toarray() if sparse.issparse(a) else a
        ref = np.linalg.norm(dense - materialise(f))
        got = sketchlab.lowrank._residual_fro(a, f)
        assert abs(got - ref) <= rel * ref

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_near_rank_k_matches_dense_norm(self, fmt):
        a = rank_r(500, 50, 5, seed=67)
        a += 1e-7 * random_dense(500, 50, seed=68)
        self.check(a, 5, 1e-10, fmt)

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_well_conditioned_matches_dense_norm(self, fmt):
        self.check(random_dense(300, 40, seed=74), 5, 1e-12, fmt, ell=10)

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_chunks_match_dense_norm(self, monkeypatch, fmt):
        # chunks of 25 rows for d = 40: twelve whole ones and a 10-row one
        monkeypatch.setattr(sketchlab.linalg, "_CHUNK_ENTRIES", 1000)
        self.check(random_dense(310, 40, seed=75), 5, 1e-12, fmt, ell=10)


class TestErrorReport:
    def test_identical_factors_ratio_one(self):
        a = random_dense(20, 8, seed=28)
        f = best_rank_k(a, 3)
        rep = error_report(a, f, f, elapsed_seconds=0.5)
        assert rep.fro_ratio == pytest.approx(1.0, abs=1e-8)
        assert rep.spec_ratio == pytest.approx(1.0, abs=1e-8)
        assert rep.elapsed_seconds == 0.5

    def test_zero_approximation_ratio(self):
        a = random_dense(10, 5, seed=29)
        exact = best_rank_k(a, 2)
        zero = LowRankFactors(
            left=np.zeros((10, 2)), right_basis=np.eye(5)[:, :2], k=2
        )
        rep = error_report(a, zero, exact, 0.0)
        expected = fro_norm(a) / fro_norm(a - materialise(exact))
        assert rep.fro_ratio == pytest.approx(expected, rel=1e-8)

    def test_rank_k_input_degenerate_ratio_is_one(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 10))
        exact = best_rank_k(a, 4)
        out = fd_sketch(a, 6)
        approx = approx_from_basis(a, out.basis, 4)
        rep = error_report(a, approx, exact, 0.0)
        assert rep.fro_ratio == 1.0
        assert rep.spec_ratio == 1.0

    def test_rank_k_input_not_recovered_is_error(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 6))
        exact = best_rank_k(a, 2)
        bad = LowRankFactors(
            left=np.zeros((10, 2)), right_basis=np.eye(6)[:, :2], k=2
        )
        with pytest.raises(ValueError, match="not recovered"):
            error_report(a, bad, exact, 0.0)

    def test_fd_meets_deterministic_bound(self):
        # shrink-based guarantee: ratio^2 <= 1 + k/(ell-k) on signal+noise data
        spec = SyntheticSpec(n=2000, d=200, k=10, zeta=10.0, seed=32)
        a = generate_synthetic(spec)
        out = fd_sketch(a, 100)
        approx = approx_from_basis(a, out.basis, 10)
        exact = best_rank_k(a, 10)
        rep = error_report(a, approx, exact, 0.0)
        assert 1.0 - 1e-8 <= rep.fro_ratio <= 1.0 + 10 / (100 - 10)
        assert rep.spec_ratio >= 1.0 - 1e-8

    def test_floor_enforced_in_constructor(self):
        with pytest.raises(ValueError, match="below 1"):
            ErrorReport(fro_ratio=0.5, spec_ratio=1.0, elapsed_seconds=0.0)
        with pytest.raises(ValueError, match="finite"):
            ErrorReport(fro_ratio=np.inf, spec_ratio=1.0, elapsed_seconds=0.0)

    def test_mismatched_ranks_rejected(self):
        a = random_dense(6, 4, seed=33)
        with pytest.raises(ValueError):
            error_report(a, best_rank_k(a, 2), best_rank_k(a, 3), 0.0)


def sparse_form(c, form, duplicate):
    """The canonical CSR ``c``, whose first stored entry is at (0, 0), in
    ``form``; with ``duplicate``, that entry is stored as two halves, which
    sum to it exactly.  ``lil``, ``dok`` and ``dia`` cannot store a
    duplicate: they are converted from the COO that holds one."""
    if form in ("lil", "dok", "dia"):
        return sparse_form(c, "coo", duplicate).asformat(form)
    if form == "coo_array":
        return sparse_form(c, "csr_array", duplicate).tocoo()
    if form == "bsr":
        x = sparse_form(c, "csr_matrix", duplicate)
        return sparse.bsr_matrix((x.data[:, None, None], x.indices, x.indptr), shape=c.shape)
    x = c.tocoo() if form == "coo" else c.tocsc() if form == "csc_matrix" else c
    if not duplicate:
        return sparse.csr_array(x) if form == "csr_array" else x
    keep = np.r_[0, np.arange(x.nnz)]
    data = x.data[keep]
    data[:2] /= 2
    if form == "coo":
        return sparse.coo_matrix((data, (x.row[keep], x.col[keep])), shape=c.shape)
    make = sparse.csr_array if form == "csr_array" else type(x)
    return make((data, x.indices[keep], np.r_[0, x.indptr[1:] + 1]), shape=c.shape)


@pytest.mark.parametrize("shape", [(60, 20), (30, 30), (20, 40), (30, 1), (1, 30)])
@pytest.mark.parametrize("duplicate", [False, True])
@pytest.mark.parametrize("form", ["csr_matrix", "csr_array", "csc_matrix", "coo",
                                  "lil", "dok", "dia", "bsr", "coo_array"])
def test_sparse_formats_match_csr(form, duplicate, shape):
    """The norms, the exact reference, the residual norms and error report,
    the five sketchers, the reconstructions from a basis and, on square
    input, the three rankings accept every sparse format, canonical or
    with a duplicated entry, and give what the canonical CSR gives."""
    dense = np.where(np.random.default_rng(118).random(shape) < 0.3,
                     np.random.default_rng(119).standard_normal(shape), 0.0)
    dense[0, 0] = 1.5
    c = sparse.csr_matrix(dense)
    a = sparse_form(c, form, duplicate)
    stored = duplicate and form not in ("lil", "dok", "dia")
    assert getattr(a, "has_canonical_format", True) != stored and (a != c).nnz == 0
    n, d = shape
    k, ell = min(3, n, d), min(5, n, d)

    def same(x, ref):
        assert np.abs(np.asarray(x) - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1.0)

    same(fro_norm(a), fro_norm(c))
    same(row_norms(a), row_norms(c))
    exact_c, exact_a = best_rank_k(c, k), best_rank_k(a, k)
    for field in ("left", "right_basis", "spectrum", "tail_fro"):
        same(getattr(exact_a, field), getattr(exact_c, field))
    fd_c, fd_a = fd_sketch(c, ell), fd_sketch(a, ell)
    same(fd_a.sketch, fd_c.sketch)
    same(fd_a.basis, fd_c.basis)
    for sketcher in (norm_sampling_sketch, spemb_sketch, dct_sketch,
                     lambda x, ell, seed: spfd_sketch(x, SpfdConfig(ell, 2, seed))):
        same(sketcher(a, ell, 1).sketch, sketcher(c, ell, 1).sketch)
    approx = approx_from_basis(c, fd_c.basis, k)
    same(approx_from_basis(a, fd_c.basis, k).left, approx.left)
    svd_c, svd_a = approx_svd(c, fd_c.basis), approx_svd(a, fd_c.basis)
    for field in ("u", "sigma", "vt"):
        same(getattr(svd_a, field), getattr(svd_c, field))
    same(residual_spectral_norm(a, approx), residual_spectral_norm(c, approx))
    rep_c, rep_a = error_report(c, approx, exact_c, 0.0), error_report(a, approx, exact_c, 0.0)
    same(rep_a.fro_ratio, rep_c.fro_ratio)
    same(rep_a.spec_ratio, rep_c.spec_ratio)
    if n == d:
        for rank in (hits, expm_scores_exact,
                     lambda x: expm_scores_sketched(x, "spfd2", k=3, p=2)):
            rank_c, rank_a = rank(c), rank(a)
            same(rank_a.hub_scores, rank_c.hub_scores)
            same(rank_a.authority_scores, rank_c.authority_scores)


def test_canonical_csr_reference_not_copied(monkeypatch):
    # the loaders return canonical CSR, which the reference reads in place:
    # as_csr hands back the caller's object itself
    c = random_csr(60, 20, seed=120)
    seen = []

    def recorded(x):
        seen.append(as_csr(x))
        return seen[-1]

    monkeypatch.setattr(sketchlab.lowrank, "as_csr", recorded)
    assert best_rank_k(c, 3).k == 3
    assert len(seen) == 1 and seen[0] is c
