import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from sketchlab.linalg import (
    NumericalError,
    as_csr,
    as_dense,
    fro_norm,
    row_norms,
    svd,
    thin_qr,
)


def random_dense(n, d, seed):
    return np.random.default_rng(seed).standard_normal((n, d))


def random_csr(n, d, seed, density=0.3):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, d)) < density
    return sparse.csr_matrix(np.where(mask, rng.standard_normal((n, d)), 0.0))


class TestValidators:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_as_dense_rejects_empty(self, shape):
        with pytest.raises(ValueError, match=r"matrix must be at least 1x1, got"):
            as_dense(np.zeros(shape))

    def test_as_dense_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            as_dense(np.array([[1.0, np.nan]]))

    def test_as_dense_rejects_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            as_dense(np.arange(4.0))

    def test_as_csr_canonicalises(self):
        coo = sparse.coo_matrix(
            (np.array([1.0, 2.0, 0.0]), (np.array([0, 0, 1]), np.array([1, 1, 0]))),
            shape=(2, 3),
        )
        out = as_csr(coo)
        assert out.nnz == 1  # duplicates summed, explicit zero dropped
        assert out[0, 1] == 3.0

    def test_as_csr_reads_canonical_csr_in_place(self):
        c = random_csr(8, 5, seed=3)
        assert as_csr(c) is c

    @pytest.mark.parametrize("case", ["csr_array", "int", "stored_zero", "duplicate",
                                      "unsorted"])
    def test_as_csr_copies_other_input(self, case):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        # row 0 as stored: values, column indices
        row0 = {"stored_zero": ([1.0, 0.0, 2.0], [0, 1, 2]),
                "duplicate": ([1.0, 1.0, 1.0], [0, 2, 2]),
                "unsorted": ([2.0, 1.0], [2, 0])}
        if case == "csr_array":
            a = sparse.csr_array(dense)
        elif case == "int":
            a = sparse.csr_matrix(dense.astype(np.int64))
        else:
            data, indices = row0[case]
            a = sparse.csr_matrix((np.r_[data, 3.0], np.r_[indices, 1],
                                   [0, len(data), len(data) + 1]), shape=(2, 3))
        before = [x.copy() for x in (a.data, a.indices, a.indptr)]
        out = as_csr(a)
        assert out is not a and type(out) is sparse.csr_matrix
        assert out.dtype == np.float64 and out.has_canonical_format and out.nnz == 3
        assert np.array_equal(out.toarray(), dense)
        for x, y in zip(before, (a.data, a.indices, a.indptr)):
            assert x.dtype == y.dtype and np.array_equal(x, y)  # the input is unchanged
        assert as_csr(out) is out

    def test_as_csr_checks_canonical_input(self):
        c = random_csr(8, 5, seed=5)
        c.data[2] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            as_csr(c)
        with pytest.raises(ValueError, match="at least 1x1"):
            as_csr(sparse.csr_matrix((0, 3)))


class TestFroNorm:
    def test_duplicate_entries_summed(self):
        # 1 and 1 stored at (0, 0): the entry is 2, so the norm is sqrt(8)
        dup = sparse.csr_matrix(
            (np.array([1.0, 1.0, 2.0]), np.array([0, 0, 1]), np.array([0, 2, 3])),
            shape=(2, 2),
        )
        assert not dup.has_canonical_format
        assert fro_norm(dup) == pytest.approx(np.sqrt(8.0), rel=1e-15)
        assert dup.nnz == 3  # the input is left as it was

    def test_canonical_input_not_copied(self, monkeypatch):
        a = random_csr(30, 8, seed=5)

        def no_copy(self, *args, **kwargs):
            raise AssertionError("fro_norm copied a canonical matrix")

        monkeypatch.setattr(sparse.csr_matrix, "copy", no_copy)
        assert fro_norm(a) == pytest.approx(np.linalg.norm(a.toarray()), rel=1e-14)


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 1.0]))
        assert np.allclose(res.sigma, [3.0, 1.0])

    def test_zero_matrix(self):
        res = svd(np.zeros((2, 2)))
        assert np.allclose(res.sigma, [0.0, 0.0])

    def test_reconstruction(self):
        a = random_dense(6, 4, seed=1)
        res = svd(a)
        recon = res.u @ np.diag(res.sigma) @ res.vt
        assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
    def test_orthonormal_factors(self, shape):
        res = svd(random_dense(*shape, seed=2))
        r = res.sigma.size
        assert np.abs(res.u.T @ res.u - np.eye(r)).max() <= 1e-10
        assert np.abs(res.vt @ res.vt.T - np.eye(r)).max() <= 1e-10

    def test_sigma_non_increasing(self):
        res = svd(random_dense(8, 5, seed=3))
        assert (np.diff(res.sigma) <= 0).all()
        assert (res.sigma >= 0).all()

    def test_sign_convention(self):
        a = random_dense(7, 4, seed=4)
        res = svd(a)
        peaks = np.argmax(np.abs(res.u), axis=0)
        assert (res.u[peaks, np.arange(res.u.shape[1])] > 0).all()

    def test_deterministic(self):
        a = random_dense(6, 6, seed=5)
        r1, r2 = svd(a), svd(a.copy())
        assert (r1.u == r2.u).all() and (r1.vt == r2.vt).all()

    def test_energy_identity(self):
        a = random_dense(9, 4, seed=6)
        res = svd(a)
        assert np.isclose(
            np.sum(res.sigma**2), np.linalg.norm(a) ** 2, rtol=1e-8
        )

    @pytest.mark.parametrize(
        "fallback_error, expected",
        [
            (np.linalg.LinAlgError("gesvd did not converge"), NumericalError),
            (TypeError("unexpected keyword argument"), TypeError),
        ],
        ids=["no-convergence", "programming-error"],
    )
    def test_fallback_failure(self, monkeypatch, fallback_error, expected):
        # only a convergence failure of the gesvd fallback is numerical; any
        # other error from it must reach the caller unchanged
        def divide_and_conquer_fails(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        def fallback(*args, **kwargs):
            raise fallback_error

        monkeypatch.setattr(np.linalg, "svd", divide_and_conquer_fails)
        monkeypatch.setattr(scipy.linalg, "svd", fallback)
        with pytest.raises(expected):
            svd(random_dense(5, 3, seed=7))


class TestThinQr:
    def test_identity(self):
        q, r = thin_qr(np.eye(3))
        assert np.allclose(np.abs(q), np.eye(3))
        assert np.allclose(np.abs(r), np.eye(3))

    def test_single_column(self):
        q, r = thin_qr(np.array([[3.0], [4.0]]))
        assert np.isclose(np.linalg.norm(q[:, 0]), 1.0)
        assert np.isclose(abs(r[0, 0]), 5.0)

    def test_orthonormal_columns(self):
        a = random_dense(8, 3, seed=7)
        q, r = thin_qr(a)
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-10
        assert np.linalg.norm(q @ r - a) <= 1e-8 * np.linalg.norm(a)
        assert np.allclose(r, np.triu(r))

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            thin_qr(random_dense(2, 5, seed=8))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            thin_qr(np.array([[np.nan], [1.0]]))

    def test_spans_rowspace(self):
        b = random_dense(4, 9, seed=9)
        q, _ = thin_qr(b.T)
        resid = b - (b @ q) @ q.T
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(b)


def test_dense_sparse_matvec_agree():
    for seed in range(5):
        a = random_csr(20, 9, seed=seed)
        x = np.random.default_rng(seed + 100).standard_normal(9)
        dense = a.toarray() @ x
        sp = a @ x
        assert np.linalg.norm(dense - sp) <= 1e-12 * max(np.linalg.norm(dense), 1e-300)


def test_row_norms_dense_sparse_agree():
    a = random_csr(15, 6, seed=21)
    assert np.allclose(row_norms(a), row_norms(a.toarray()), rtol=1e-12)
