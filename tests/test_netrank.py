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

from oracles import expm_diag_oracle, twins_oracle


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


def twin_heavy():
    # 24 nodes whose rows and columns repeat those of a 6x8 pattern
    rng = np.random.default_rng(30)
    pattern = (rng.random((6, 8)) < 0.25).astype(float)
    adj = pattern[np.ix_(rng.integers(0, 6, 24), rng.integers(0, 8, 24))]
    return sparse.csr_matrix(adj)


def sink_heavy():
    # 50 nodes of which only the first 12 have out-edges
    adj = random_digraph(50, seed=31, density=0.3).toarray()
    adj[12:, :] = 0.0
    return sparse.csr_matrix(adj)


def scaled_twin_columns():
    # column 3 is twice column 2 and column 5 equals column 4
    adj = weighted().toarray()
    adj[:, 3] = 2.0 * adj[:, 2]
    adj[:, 5] = adj[:, 4]
    return sparse.csr_matrix(adj)


def tied_twins():
    # row 5 equals row 4 and column 7 equals column 6, all four dense
    # enough to head their top lists
    rng = np.random.default_rng(34)
    adj = random_digraph(40, seed=34).toarray()
    adj[4] = adj[5] = rng.random(40) < 0.6
    col = rng.random(40) < 0.6
    col[5] = col[4]
    adj[:, 6] = adj[:, 7] = col
    return sparse.csr_matrix(adj)


def repeated_rows():
    # 50 nodes whose rows repeat 9 patterns, at scattered positions
    rng = np.random.default_rng(0)
    patterns = (rng.random((8, 50)) < 0.1).astype(float)
    adj = patterns[rng.integers(0, 8, 50)]
    adj[rng.random(50) < 0.3] = rng.random((1, 50)) < 0.1
    return sparse.csr_matrix(adj)


def distinct_nonempty_columns(dense):
    return len(np.unique(dense.T[dense.any(axis=0)], axis=0))


def split_twin_rows(adj, res):
    """Number of groups of identical rows of ``adj`` whose hub scores differ."""
    _, group = np.unique(adj.toarray(), axis=0, return_inverse=True)
    hub = res.hub_scores
    return sum(np.unique(hub[group == g]).size > 1 for g in np.unique(group))


def expm_scores_unmerged(adj):
    """Scores from a dense eigendecomposition of the whole of A A^T."""
    lam, u = np.linalg.eigh((adj @ adj.T).toarray())
    lam = np.maximum(lam, 0.0)
    cosh_m1 = 2.0 * np.sinh(np.sqrt(lam) / 2.0) ** 2
    g = np.divide(cosh_m1, lam, out=np.full(lam.size, 0.5), where=lam > 0.0)
    w = adj.T @ u
    return 1.0 + (u**2) @ cosh_m1, 1.0 + (w**2) @ g


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

    def test_nan_tol_rejected(self):
        # a NaN tol is never reached: it ran all steps, then "unconverged"
        with pytest.raises(ValueError, match="tol must be finite and > 0, got nan"):
            hits(two_pointer_graph(), tol=np.nan)

    def test_inf_tol_rejected(self):
        # an infinite tol stopped after one step and reported "ok"
        with pytest.raises(ValueError, match="tol must be finite and > 0, got inf"):
            hits(two_pointer_graph(), tol=np.inf)

    def test_max_iter_below_one_rejected(self):
        # zero steps would return the random start vectors as scores
        with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
            hits(two_pointer_graph(), max_iter=0)

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

    @pytest.mark.parametrize(
        "adj",
        [twin_heavy(), sink_heavy(), scaled_twin_columns(), tied_twins(),
         sparse.csr_matrix(np.array([[0.0]]))],
        ids=["twin_heavy", "sink_heavy", "scaled_twin_columns", "tied_twins",
             "1x1_zero"],
    )
    def test_merged_gram_matches_oracle(self, adj):
        res = expm_scores_exact(adj)
        hub_ref, auth_ref = expm_diag_oracle(adj.toarray())
        assert np.abs(res.hub_scores - hub_ref).max() <= 1e-8
        assert np.abs(res.authority_scores - auth_ref).max() <= 1e-8

    @pytest.mark.parametrize(
        "graph", [twin_heavy, sink_heavy, scaled_twin_columns, tied_twins,
                  sources_and_sinks, rank_deficient]
    )
    def test_merged_gram_matches_unmerged_eigh(self, graph):
        adj = graph()
        res = expm_scores_exact(adj)
        hub_ref, auth_ref = expm_scores_unmerged(adj)
        scale = max(hub_ref.max(), auth_ref.max())
        assert np.abs(res.hub_scores - hub_ref).max() <= 1e-12 * scale
        assert np.abs(res.authority_scores - auth_ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize(
        "graph", [twin_heavy, sink_heavy, scaled_twin_columns, random_digraph]
    )
    def test_one_eigh_of_the_merged_columns(self, graph, monkeypatch):
        adj = graph(30, seed=32) if graph is random_digraph else graph()
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        expm_scores_exact(adj)
        cols = distinct_nonempty_columns(adj.toarray())
        assert shapes == [(cols, cols)]
        if graph is scaled_twin_columns:
            assert cols == 29  # 2x a column is not its twin

    def test_twins_tie_bit_equal_and_rank_by_id(self):
        res = expm_scores_exact(tied_twins(), top_k=4)
        assert res.hub_scores[4] == res.hub_scores[5]
        assert res.authority_scores[6] == res.authority_scores[7]
        assert res.top_hubs[:2] == [4, 5]
        assert res.top_authorities[:2] == [6, 7]

    def test_twin_rows_bit_equal_wherever_they_sit(self):
        # a BLAS product over the rows of C Y gave one twin group of this
        # graph two hub scores
        adj = repeated_rows()
        assert split_twin_rows(adj, expm_scores_exact(adj)) == 0


@pytest.mark.parametrize("rank", [hits, expm_scores_exact], ids=["hits", "exact"])
def test_negative_top_k_rejected(rank):
    # a negative slice end would list all nodes but the last
    with pytest.raises(ValueError, match="top_k must be >= 0, got -1"):
        rank(random_digraph(30, seed=1), top_k=-1)


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

    @pytest.mark.parametrize(
        "method", ["normsamp", "dct", "spemb", "fd", "spfd10"]
    )
    def test_twins_tie_bit_equal_and_rank_by_id(self, method):
        res = expm_scores_sketched(tied_twins(), method, k=10, p=5, rng=1)
        assert res.hub_scores[4] == res.hub_scores[5]
        assert res.authority_scores[6] == res.authority_scores[7]
        assert res.top_hubs.index(4) < res.top_hubs.index(5)
        assert res.top_authorities.index(6) < res.top_authorities.index(7)

    # top lists of tied_twins with columns 10-12 emptied (k=10, p=5, rng=1)
    EMPTY_COLUMN_TOPS = {
        "fd": ([4, 5, 28, 34, 24, 23, 26, 6, 25, 32],
               [6, 7, 17, 24, 36, 4, 35, 33, 29, 28]),
        "spfd10": ([4, 5, 28, 34, 24, 23, 26, 6, 25, 38],
                   [6, 7, 17, 24, 36, 35, 4, 29, 18, 33]),
        "spemb": ([4, 5, 24, 34, 28, 6, 26, 23, 25, 38],
                  [6, 7, 24, 36, 4, 29, 17, 28, 38, 2]),
        "normsamp": ([4, 5, 28, 24, 32, 25, 23, 34, 6, 37],
                     [6, 7, 17, 24, 34, 28, 29, 38, 33, 36]),
        "dct": ([4, 5, 28, 34, 26, 6, 25, 24, 37, 23],
                [6, 7, 24, 17, 33, 36, 38, 35, 4, 28]),
    }

    @pytest.mark.parametrize("method", list(EMPTY_COLUMN_TOPS))
    def test_empty_columns_score_one(self, method):
        # as on the exact route, although spemb's sketch here is rank
        # deficient and its basis puts a whole null direction on column 10
        adj = tied_twins().tolil()
        adj[:, 10:13] = 0
        adj = adj.tocsr()
        adj.eliminate_zeros()
        res = expm_scores_sketched(adj, method, k=10, p=5, rng=1)
        assert (res.authority_scores[10:13] == 1.0).all()
        assert (res.top_hubs, res.top_authorities) == self.EMPTY_COLUMN_TOPS[method]

    @pytest.mark.parametrize("graph", [rank_deficient, sink_heavy, repeated_rows])
    def test_row_space_basis_reproduces_exact_scores(self, graph):
        # with A's row space inside the basis nothing is truncated; the
        # null directions that fill the width-15 basis add nothing
        adj = graph()
        row_space = scipy.linalg.orth(adj.toarray().T)
        fill = np.random.default_rng(40).standard_normal(
            (adj.shape[0], 15 - row_space.shape[1])
        )
        basis = np.linalg.qr(np.hstack([row_space, fill]))[0]
        res = expm_scores_sketched(adj, "unused", k=10, basis=basis)
        exact = expm_scores_exact(adj)
        np.testing.assert_allclose(res.hub_scores, exact.hub_scores, rtol=1e-12)
        np.testing.assert_allclose(
            res.authority_scores, exact.authority_scores, rtol=1e-12
        )
        assert res.top_hubs == exact.top_hubs
        assert res.top_authorities == exact.top_authorities

    @pytest.mark.parametrize(
        "method", ["normsamp", "dct", "spemb", "fd", "spfd10"]
    )
    def test_twin_rows_bit_equal_wherever_they_sit(self, method):
        # the rank of repeated_rows is below k + p, so every sketch's
        # basis holds null directions of A
        adj = repeated_rows()
        res = expm_scores_sketched(adj, method, k=10, p=5, rng=1)
        assert split_twin_rows(adj, res) == 0

    def test_overflow_raises(self):
        adj = random_digraph(20, seed=26) * 1000.0
        with pytest.raises(NumericalError, match="overflows cosh"):
            expm_scores_sketched(adj, "fd", k=5, p=5)

    def test_sketch_size_guard(self):
        with pytest.raises(ValueError, match="k\\+p"):
            expm_scores_sketched(random_digraph(8, seed=15), "fd", k=10, p=5)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k >= 1 and p >= 0, got k=-2, p=5"):
            expm_scores_sketched(random_digraph(30, seed=1), "fd", k=-2, p=5)

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError, match="k >= 1 and p >= 0, got k=5, p=-1"):
            expm_scores_sketched(random_digraph(30, seed=1), "fd", k=5, p=-1)

    def test_deterministic(self):
        adj = random_digraph(30, seed=16)
        r1 = expm_scores_sketched(adj, "spemb", k=4, rng=17)
        r2 = expm_scores_sketched(adj, "spemb", k=4, rng=17)
        assert r1.top_hubs == r2.top_hubs
        assert (r1.hub_scores == r2.hub_scores).all()


def copied_rows_digraph(seed):
    """A random weighted digraph with a quarter of its rows copied from
    others, some copies off by one ulp in one entry or moved one column."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 200))
    adj = random_digraph(n, seed, density=0.05).toarray()
    adj *= rng.choice([1.0, 0.5, 3.0], size=adj.shape)
    src = rng.integers(0, n, n // 4)
    dst = rng.integers(0, n, n // 4)
    adj[dst] = adj[src]
    for i in dst[: n // 16]:
        j = np.flatnonzero(adj[i])
        if j.size:
            adj[i, j[0]] = np.nextafter(adj[i, j[0]], 10.0)
    for i in dst[n // 16 : n // 8]:
        adj[i] = np.roll(adj[i], 1)
    return sparse.csr_matrix(adj)


class TestTwins:
    """``_twins`` groups identical nonempty rows exactly as the loop over a
    bytes-keyed dict does (``twins_oracle``)."""

    GRAPHS = [sources_and_sinks, rank_deficient, weighted, two_pointer_graph,
              twin_heavy, sink_heavy, scaled_twin_columns, tied_twins, repeated_rows]

    def assert_matches_oracle(self, csr):
        got, want = sketchlab.netrank._twins(csr), twins_oracle(csr)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_named_graphs_both_ways(self, graph):
        adj = graph()
        self.assert_matches_oracle(adj)
        self.assert_matches_oracle(adj.T.tocsr())

    def test_copied_rows(self):
        for seed in range(40):
            adj = copied_rows_digraph(seed)
            self.assert_matches_oracle(adj)
            self.assert_matches_oracle(adj.T.tocsr())

    def test_no_nonempty_row(self):
        first, group, count = sketchlab.netrank._twins(sparse.csr_matrix((5, 5)))
        assert first.size == count.size == 0 and (group == -1).all()
        self.assert_matches_oracle(sparse.csr_matrix((5, 5)))

    def test_hash_collisions_are_regrouped(self, monkeypatch):
        # every row hashes alike, so each length class is proposed as one
        # group and split only by the entry-by-entry check
        monkeypatch.setattr(sketchlab.netrank, "_row_hashes",
                            lambda csr: np.zeros(csr.shape[0], dtype=np.uint64))
        for seed in range(5):
            self.assert_matches_oracle(copied_rows_digraph(seed))
        self.assert_matches_oracle(repeated_rows())


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

    def test_unknown_kind_rejected(self):
        res = expm_scores_exact(random_digraph(12, seed=18), top_k=5)
        with pytest.raises(ValueError, match="kind must be 'hubs' or 'authorities'"):
            ranking_overlap(res, res, 5, "nodes")

    def test_k_too_large(self):
        res = expm_scores_exact(random_digraph(12, seed=19), top_k=5)
        with pytest.raises(ValueError):
            ranking_overlap(res, res, 6)

    def test_negative_k_rejected(self):
        adj = random_digraph(30, seed=1)
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            ranking_overlap(hits(adj), expm_scores_exact(adj), -1)
