import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import sketchlab.netrank
from sketchlab.linalg import NumericalError, svd
from sketchlab.netrank import (
    expm_scores_exact,
    expm_scores_sketched,
    hits,
    ranking_overlap,
)

from oracles import expm_diag_oracle


def random_digraph(n, seed, density=0.15):
    rng = np.random.default_rng(seed)
    adj = (rng.random((n, n)) < density).astype(float)
    np.fill_diagonal(adj, 0.0)
    return sparse.csr_matrix(adj)


def sources_and_sinks():
    # 60 nodes; nodes 0-9 have no in-edges, nodes 50-59 no out-edges
    adj = random_digraph(60, seed=20, density=0.1).toarray()
    adj[:, :10] = 0.0
    adj[50:, :] = 0.0
    return sparse.csr_matrix(adj)


def rank_deficient():
    # 40 nodes whose out-edge rows repeat 5 patterns: rank <= 5
    patterns = random_digraph(40, seed=21, density=0.2).toarray()[:5]
    rows = np.random.default_rng(22).integers(0, 5, size=40)
    adj = patterns[rows]
    assert np.linalg.matrix_rank(adj) <= 5
    return sparse.csr_matrix(adj)


def weighted():
    adj = random_digraph(30, seed=23, density=0.2).toarray()
    adj *= np.random.default_rng(24).uniform(0.1, 2.5, size=adj.shape)
    return sparse.csr_matrix(adj)


def two_pointer_graph():
    # edges 1->2 and 3->2 (0-indexed: 0->1, 2->1)
    adj = np.zeros((3, 3))
    adj[0, 1] = 1.0
    adj[2, 1] = 1.0
    return sparse.csr_matrix(adj)


class TestHits:
    def test_star_authority(self):
        res = hits(two_pointer_graph(), rng=0)
        assert res.top_authorities[0] == 1
        assert res.top_hubs[:2] == [0, 2]  # tie broken by ascending id
        assert res.status == "ok"

    def test_empty_graph_degenerate(self):
        res = hits(sparse.csr_matrix((4, 4)), rng=1)
        assert res.status == "degenerate"
        assert (res.hub_scores == 0).all() and (res.authority_scores == 0).all()

    def test_matches_dense_eigensolver(self):
        adj = random_digraph(30, seed=2)
        res = hits(adj, tol=1e-8, rng=3)
        dense = adj.toarray()
        w_h, v_h = scipy.linalg.eigh(dense @ dense.T)
        w_a, v_a = scipy.linalg.eigh(dense.T @ dense)
        for score, eigvec in [(res.hub_scores, v_h[:, -1]),
                              (res.authority_scores, v_a[:, -1])]:
            eigvec = eigvec * np.sign(eigvec[np.argmax(np.abs(eigvec))])
            assert np.abs(score - eigvec).max() <= 1e-3

    def test_fixed_point_residual(self):
        adj = random_digraph(25, seed=4)
        tol = 1e-6
        res = hits(adj, tol=tol, rng=5)
        a = res.authority_scores
        ata_a = adj.T @ (adj @ a)
        lam = float(a @ ata_a)
        assert np.linalg.norm(ata_a - lam * a) <= 10 * tol * lam

    def test_unconverged_flag(self):
        res = hits(random_digraph(30, seed=6), tol=1e-12, max_iter=2, rng=7)
        assert res.status == "unconverged"

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            hits(two_pointer_graph(), tol=0.0)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            hits(sparse.csr_matrix(np.ones((2, 3))))


class TestExpmExact:
    def test_zero_matrix_scores_one(self):
        res = expm_scores_exact(sparse.csr_matrix((5, 5)))
        assert np.allclose(res.hub_scores, 1.0)
        assert np.allclose(res.authority_scores, 1.0)

    def test_single_self_loop(self):
        res = expm_scores_exact(sparse.csr_matrix(np.array([[1.0]])))
        assert np.isclose(res.hub_scores[0], np.cosh(1.0))
        assert np.isclose(res.authority_scores[0], np.cosh(1.0))

    def test_matches_dense_expm_oracle(self):
        adj = random_digraph(20, seed=8)
        res = expm_scores_exact(adj)
        hub_ref, auth_ref = expm_diag_oracle(adj.toarray())
        assert np.abs(res.hub_scores - hub_ref).max() <= 1e-8
        assert np.abs(res.authority_scores - auth_ref).max() <= 1e-8

    @pytest.mark.parametrize(
        "graph", [sources_and_sinks, rank_deficient, weighted]
    )
    def test_matches_oracle_on(self, graph):
        adj = graph()
        res = expm_scores_exact(adj)
        hub_ref, auth_ref = expm_diag_oracle(adj.toarray())
        assert np.abs(res.hub_scores - hub_ref).max() <= 1e-8
        assert np.abs(res.authority_scores - auth_ref).max() <= 1e-8

    def test_no_svd_and_bit_identical(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("expm_scores_exact called netrank.svd")

        monkeypatch.setattr(sketchlab.netrank, "svd", no_svd)
        adj = random_digraph(50, seed=25)
        r1 = expm_scores_exact(adj)
        r2 = expm_scores_exact(adj)
        assert np.array_equal(r1.hub_scores, r2.hub_scores)
        assert np.array_equal(r1.authority_scores, r2.authority_scores)

    def test_overflow_raises(self):
        adj = random_digraph(20, seed=26) * 1000.0
        with pytest.raises(NumericalError, match="overflows cosh"):
            expm_scores_exact(adj)

    def test_guard_tests_singular_value(self):
        # sigma = 650 is below the guard although lam = sigma^2 is not
        res = expm_scores_exact(sparse.csr_matrix(np.array([[650.0]])))
        assert np.isclose(res.hub_scores[0], np.cosh(650.0), rtol=1e-12)
        assert np.isclose(res.authority_scores[0], np.cosh(650.0), rtol=1e-12)

    def test_eigh_failure_is_numerical_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            expm_scores_exact(random_digraph(10, seed=27))

    def test_scores_at_least_one(self):
        res = expm_scores_exact(random_digraph(15, seed=9))
        assert (res.hub_scores >= 1.0 - 1e-10).all()
        assert (res.authority_scores >= 1.0 - 1e-10).all()

    def test_relabeling_invariance(self):
        adj = random_digraph(18, seed=10)
        perm = np.random.default_rng(11).permutation(18)
        p = sparse.csr_matrix(
            (np.ones(18), (np.arange(18), perm)), shape=(18, 18)
        )
        relabeled = p @ adj @ p.T  # node perm[i] becomes node i
        res = expm_scores_exact(adj)
        res_p = expm_scores_exact(relabeled)
        assert np.allclose(res_p.hub_scores, res.hub_scores[perm])
        assert np.allclose(res_p.authority_scores, res.authority_scores[perm])

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            expm_scores_exact(sparse.csr_matrix((4001, 4001)))


class TestExpmSketched:
    def test_full_basis_reproduces_exact_rankings(self):
        adj = random_digraph(24, seed=12)
        basis = svd(adj.toarray()).vt.T
        res = expm_scores_sketched(adj, "unused", k=10, basis=basis)
        exact = expm_scores_exact(adj)
        assert res.top_hubs == exact.top_hubs
        assert res.top_authorities == exact.top_authorities

    @pytest.mark.parametrize(
        "method", ["normsamp", "dct", "spemb", "fd", "spfd10"]
    )
    def test_every_sketcher_runs(self, method):
        adj = random_digraph(40, seed=13, density=0.2)
        res = expm_scores_sketched(adj, method, k=5, p=5, rng=14)
        assert len(res.top_hubs) == 5
        assert np.isfinite(res.hub_scores).all()
        assert np.isfinite(res.authority_scores).all()

    def test_overflow_raises(self):
        adj = random_digraph(20, seed=26) * 1000.0
        with pytest.raises(NumericalError, match="overflows cosh"):
            expm_scores_sketched(adj, "fd", k=5, p=5)

    def test_sketch_size_guard(self):
        with pytest.raises(ValueError, match="k\\+p"):
            expm_scores_sketched(random_digraph(8, seed=15), "fd", k=10, p=5)

    def test_deterministic(self):
        adj = random_digraph(30, seed=16)
        r1 = expm_scores_sketched(adj, "spemb", k=4, rng=17)
        r2 = expm_scores_sketched(adj, "spemb", k=4, rng=17)
        assert r1.top_hubs == r2.top_hubs
        assert (r1.hub_scores == r2.hub_scores).all()


class TestOverlapAndParsing:
    def test_identical_results(self):
        res = expm_scores_exact(random_digraph(12, seed=18), top_k=5)
        assert ranking_overlap(res, res, 5) == 5
        assert ranking_overlap(res, res, 5, "authorities") == 5

    def test_disjoint(self):
        a = expm_scores_exact(random_digraph(12, seed=18), top_k=5)
        from dataclasses import replace

        b = replace(a, top_hubs=[100, 101, 102, 103, 104])
        assert ranking_overlap(a, b, 5) == 0

    def test_k_too_large(self):
        res = expm_scores_exact(random_digraph(12, seed=19), top_k=5)
        with pytest.raises(ValueError):
            ranking_overlap(res, res, 6)
