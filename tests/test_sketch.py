import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import sketchlab.sketch
from sketchlab.datagen import SyntheticSpec, generate_synthetic
from sketchlab.linalg import fro_norm, svd, thin_qr
from sketchlab.lowrank import approx_from_basis
from sketchlab.sketch import (
    SketchOutput,
    SpEmbSpec,
    SpfdConfig,
    dct_sketch,
    fd_sketch,
    norm_sampling_sketch,
    parse_sketcher_id,
    spemb_apply,
    spemb_sketch,
    spfd_intermediate,
    spfd_sketch,
)

from oracles import dct_matrix_oracle, fd_oracle, spfd_oracle


def random_dense(n, d, seed):
    return np.random.default_rng(seed).standard_normal((n, d))


def random_csr(n, d, seed, density=0.4):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, d)) < density
    return sparse.csr_matrix(np.where(mask, rng.standard_normal((n, d)), 0.0))


def assert_basis_ok(out: SketchOutput):
    v = out.basis
    gram = v.T @ v
    assert np.abs(gram - np.eye(v.shape[1])).max() <= 1e-10


class TestSpEmbApply:
    def test_bucket_definition(self):
        a = random_dense(4, 3, seed=0)
        spec = SpEmbSpec(
            n_in=4, n_out=2,
            h=np.array([0, 0, 1, 1]),
            signs=np.array([1.0, -1.0, 1.0, -1.0]),
        )
        b = spemb_apply(a, spec)
        assert np.allclose(b[0], a[0] - a[1])
        assert np.allclose(b[1], a[2] - a[3])

    def test_zero_input(self):
        spec = SpEmbSpec.draw(5, 3, np.random.default_rng(0))
        assert (spemb_apply(np.zeros((5, 4)), spec) == 0).all()

    def test_dimension_mismatch(self):
        spec = SpEmbSpec.draw(5, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            spemb_apply(np.zeros((4, 2)), spec)

    @pytest.mark.parametrize("h_len, signs_len", [(3, 4), (4, 3)])
    def test_bucket_map_of_wrong_length(self, h_len, signs_len):
        with pytest.raises(ValueError, match="must have one entry per input row"):
            SpEmbSpec(n_in=4, n_out=2, h=np.zeros(h_len, dtype=int),
                      signs=np.ones(signs_len))

    def test_dense_sparse_agree(self):
        a = random_csr(12, 5, seed=1)
        spec = SpEmbSpec.draw(12, 4, np.random.default_rng(2))
        dense = spemb_apply(a.toarray(), spec)
        sp = spemb_apply(a, spec)
        assert np.abs(dense - sp).max() <= 1e-12 * max(1.0, np.abs(dense).max())

    def test_sparse_with_empty_rows(self):
        a = sparse.csr_matrix(np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]))
        spec = SpEmbSpec(n_in=3, n_out=2, h=np.array([0, 0, 1]),
                         signs=np.array([1.0, -1.0, 1.0]))
        out = spemb_apply(a, spec)
        assert np.allclose(out, [[-1.0, -2.0], [0.0, 0.0]])

    def test_norm_preserved_in_expectation(self):
        # mean of ||SA||_F^2 over many draws approaches ||A||_F^2
        a = random_dense(8, 3, seed=3)
        rng = np.random.default_rng(4)
        target = fro_norm(a) ** 2
        total = 0.0
        trials = 20000
        for _ in range(trials):
            spec = SpEmbSpec.draw(8, 4, rng)
            total += fro_norm(spemb_apply(a, spec)) ** 2
        assert abs(total / trials - target) <= 0.02 * target

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SpEmbSpec(n_in=2, n_out=2, h=np.array([0, 5]),
                      signs=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SpEmbSpec(n_in=2, n_out=2, h=np.array([0, 1]),
                      signs=np.array([0.5, 1.0]))

    def test_float_bucket_map_rejected(self):
        with pytest.raises(ValueError, match="h must hold integer"):
            SpEmbSpec(n_in=2, n_out=2, h=np.array([0.0, 1.0]),
                      signs=np.array([1.0, 1.0]))

    def test_draw_checks_and_spfd_skips_them(self, monkeypatch):
        # draw builds its spec through the checks, also at the edge sizes
        for n_in, n_out in [(0, 1), (1, 1), (9, 4), (3, 8)]:
            SpEmbSpec.draw(n_in, n_out, np.random.default_rng(n_in))

        def no_check(self):
            raise AssertionError("spfd_intermediate built a spec")

        monkeypatch.setattr(SpEmbSpec, "__post_init__", no_check)
        spfd_intermediate(random_dense(9, 3, seed=0), SpfdConfig(ell=2, q=3, seed=0))


def add_at_embedding(a, spec: SpEmbSpec) -> np.ndarray:
    """Reference embedding: one ``np.add.at`` over the rows (dense) or the
    nonzeros (CSR) of ``a``, in input order."""
    out = np.zeros((spec.n_out, a.shape[1]))
    if sparse.issparse(a):
        a = a.tocsr()
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        np.add.at(out, (spec.h[rows], a.indices), spec.signs[rows] * a.data)
    else:
        np.add.at(out, spec.h, spec.signs[:, None] * a)
    return out


def padded_block_loop(a, cfg: SpfdConfig) -> np.ndarray:
    """The block embedding as first stated: pad with zero rows, permute the
    rows, then embed each block with its own ``np.add.at``, so that each
    bucket sums its rows in permuted order."""
    rng = np.random.default_rng(cfg.seed)
    n, d = a.shape
    per_block = -(-n // cfg.q)
    a = np.vstack([a, np.zeros((per_block * cfg.q - n, d))])
    pa = a[rng.permutation(per_block * cfg.q)]
    specs = [SpEmbSpec.draw(per_block, cfg.ell, rng) for _ in range(cfg.q)]
    out = np.empty((cfg.q * cfg.ell, d))
    for j, spec in enumerate(specs):
        block = pa[j * per_block : (j + 1) * per_block]
        out[j * cfg.ell : (j + 1) * cfg.ell] = add_at_embedding(block, spec)
    return out


def block_embedding_map(n, cfg: SpfdConfig) -> SpEmbSpec:
    """The bucket and sign of every input row under ``cfg``'s draws: the
    permutation of the rows padded to ``q`` equal blocks, then each block's
    spec.  Permuted position ``p`` of block ``j`` sends input row
    ``perm[p]`` to bucket ``j*ell + h_j``; padding positions send none."""
    rng = np.random.default_rng(cfg.seed)
    per_block = -(-n // cfg.q)
    perm = rng.permutation(per_block * cfg.q)
    specs = [SpEmbSpec.draw(per_block, cfg.ell, rng) for _ in range(cfg.q)]
    h, signs = np.zeros(n, dtype=np.intp), np.zeros(n)
    for p, row in enumerate(perm):
        j, k = divmod(p, per_block)
        if row < n:
            h[row] = j * cfg.ell + specs[j].h[k]
            signs[row] = specs[j].signs[k]
    return SpEmbSpec(n, cfg.q * cfg.ell, h, signs)


def block_embedding_loop(a, cfg: SpfdConfig) -> np.ndarray:
    """Reference ``spfd_intermediate``: one input-order ``np.add.at`` over
    the block map."""
    return add_at_embedding(a, block_embedding_map(a.shape[0], cfg))


def noncanonical_csr(n, d, seed):
    """CSR whose rows store their columns in random order, each column as
    two duplicate entries, plus one explicit zero."""
    rng = np.random.default_rng(seed)
    indptr, indices, data = [0], [], []
    for _ in range(n):
        for col in rng.permutation(d)[: rng.integers(1, d + 1)]:
            indices += [col, col]
            data += list(rng.standard_normal(2))
        indices.append(rng.integers(d))
        data.append(0.0)
        indptr.append(len(indices))
    a = sparse.csr_matrix((np.array(data), np.array(indices), np.array(indptr)),
                          shape=(n, d))
    assert not a.has_canonical_format
    return a


def duplicate_coo(n, d, seed):
    """COO with every entry stored twice, in shuffled order."""
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(rng.random((n, d)) < 0.4)
    order = rng.permutation(2 * len(rows))
    return sparse.coo_matrix(
        (rng.standard_normal(2 * len(rows)),
         (np.tile(rows, 2)[order], np.tile(cols, 2)[order])),
        shape=(n, d),
    )


# name -> sparse input the embedding takes without canonicalising
SPARSE_FORMS = {
    "noncanonical": lambda: noncanonical_csr(40, 6, seed=90),
    "csr_array": lambda: sparse.csr_array(random_csr(40, 6, seed=91)),
    "coo": lambda: duplicate_coo(40, 6, seed=92),
    "one-row": lambda: noncanonical_csr(1, 6, seed=93),
}


class TestEmbeddingOperator:
    """The embedding kernel sums each bucket's rows in input order, for
    ``spemb_apply`` and ``spfd_intermediate`` alike, exactly as the
    ``np.add.at`` reference: sparse input by one ``np.bincount`` scatter of
    its stored entries, dense input by one CSR operator product."""

    # (n, d, ell, q): n not a multiple of q, q = 1, q*ell > n, and blocks
    # of 2 rows into 5 buckets (empty buckets in every block)
    CASES = [(23, 7, 3, 4), (20, 7, 4, 1), (10, 5, 4, 3), (6, 5, 5, 3)]

    @pytest.mark.parametrize("n, d, ell, q", CASES)
    @pytest.mark.parametrize("kind", ["csr", "dense"])
    def test_intermediate_equals_loop(self, n, d, ell, q, kind):
        a = random_csr(n, d, seed=n + q)
        if kind == "dense":
            a = a.toarray()
        cfg = SpfdConfig(ell=ell, q=q, seed=q)
        assert np.array_equal(spfd_intermediate(a, cfg), block_embedding_loop(a, cfg))

    @pytest.mark.parametrize("n_in, n_out", [(30, 4), (3, 8)])
    @pytest.mark.parametrize("kind", ["csr", "dense"])
    def test_spemb_apply_equals_add_at(self, n_in, n_out, kind):
        a = random_csr(n_in, 6, seed=n_in)
        if kind == "dense":
            a = a.toarray()
        spec = SpEmbSpec.draw(n_in, n_out, np.random.default_rng(n_out))
        assert np.array_equal(spemb_apply(a, spec), add_at_embedding(a, spec))

    @pytest.mark.parametrize("form", list(SPARSE_FORMS))
    def test_sparse_forms_equal_reference(self, form):
        a = SPARSE_FORMS[form]()
        n = a.shape[0]
        spec = SpEmbSpec.draw(n, 3, np.random.default_rng(94))
        assert np.array_equal(spemb_apply(a, spec), add_at_embedding(a, spec))
        # about ten rows per bucket, whose order shows in the sums; then
        # q*ell > n
        for ell, q in [(2, 2), (4, 12)]:
            cfg = SpfdConfig(ell=ell, q=q, seed=95)
            expected = block_embedding_loop(a, cfg)
            assert np.array_equal(spfd_intermediate(a, cfg), expected)

    def test_sparse_input_builds_no_operator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("embedding operator built")

        a = random_csr(20, 5, seed=96)
        spec = SpEmbSpec.draw(20, 3, np.random.default_rng(97))
        cfg = SpfdConfig(ell=3, q=4, seed=98)
        monkeypatch.setattr(sketchlab.sketch.sparse, "csr_matrix", refuse)
        spemb_apply(a, spec)
        spfd_intermediate(a, cfg)
        # dense input does build it, so the patch would catch sparse input
        # that did
        for embed in (lambda: spemb_apply(a.toarray(), spec),
                      lambda: spfd_intermediate(a.toarray(), cfg)):
            with pytest.raises(AssertionError, match="operator built"):
                embed()

    @pytest.mark.parametrize("kind", ["dense", "csr", "coo"])
    @pytest.mark.parametrize("n, ell, q", [(23, 3, 4), (6, 5, 3), (60, 2, 2)])
    def test_intermediate_is_spemb_of_block_map(self, n, ell, q, kind):
        # n not a multiple of q; q*ell > n; and 15 non-integer rows per
        # bucket, where input and permuted order sum to different bits
        a = random_csr(n, 4, seed=n, density=0.9)
        cfg = SpfdConfig(ell=ell, q=q, seed=n + q)
        spec = block_embedding_map(n, cfg)
        expected = spemb_apply(a, spec)
        if n == 60:
            assert not np.array_equal(expected, padded_block_loop(a.toarray(), cfg))
        a = {"dense": a.toarray(), "csr": a, "coo": a.tocoo()}[kind]
        assert np.array_equal(spfd_intermediate(a, cfg), expected)

    @pytest.mark.parametrize("n, d, ell, q", CASES)
    def test_block_map_holds_the_permuted_blocks(self, n, d, ell, q):
        # the identity's embedding is the operator, with no rounding: each
        # bucket holds the rows and signs of the permuted-order loop
        cfg = SpfdConfig(ell=ell, q=q, seed=q)
        assert np.array_equal(spfd_intermediate(np.eye(n), cfg),
                              padded_block_loop(np.eye(n), cfg))


class TestSpEmbSketch:
    def test_forced_identity_spec(self):
        a = random_dense(4, 6, seed=5)
        spec = SpEmbSpec(n_in=4, n_out=4, h=np.arange(4), signs=np.ones(4))
        assert (spemb_apply(a, spec) == a).all()

    def test_rank_one_recovers_direction(self):
        rng = np.random.default_rng(6)
        a = np.outer(rng.standard_normal(10), rng.standard_normal(5))
        out = spemb_sketch(a, 2, rng=7)
        assert fro_norm(out.sketch) > 0
        direction = svd(a).vt[0]
        recon = out.basis @ (out.basis.T @ direction)
        assert np.linalg.norm(recon - direction) <= 1e-8

    def test_shape_and_no_shrink(self):
        a = random_dense(9, 4, seed=8)
        out = spemb_sketch(a, 3, rng=9)
        assert out.sketch.shape == (3, 4)
        assert out.basis.shape == (4, 3)
        assert out.deltas.size == 0 and out.delta_total == 0.0
        assert_basis_ok(out)

    def test_deterministic(self):
        a = random_dense(9, 4, seed=10)
        o1 = spemb_sketch(a, 3, rng=11)
        o2 = spemb_sketch(a, 3, rng=11)
        assert (o1.sketch == o2.sketch).all() and (o1.basis == o2.basis).all()

    def test_ell_above_d_rejected(self):
        with pytest.raises(ValueError):
            spemb_sketch(random_dense(8, 3, seed=12), 5, rng=0)


class TestFdSketch:
    def test_matches_oracle(self):
        for seed in range(6):
            n = int(np.random.default_rng(seed).integers(3, 20))
            a = random_dense(n, 4, seed=seed + 50)
            out = fd_sketch(a, 2)
            b_ref, v_ref, deltas_ref = fd_oracle(a, 2)
            scale = max(fro_norm(a), 1.0)
            assert np.abs(out.sketch - b_ref).max() <= 1e-10 * scale
            assert np.abs(out.basis - v_ref).max() <= 1e-10
            assert np.allclose(out.deltas, deltas_ref, atol=1e-12)

    def test_low_rank_input_no_shrink(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 6))
        out = fd_sketch(a, 3)
        assert np.abs(out.deltas).max() <= 1e-20 * fro_norm(a) ** 2 + 1e-24
        # row space of the sketch covers the input row space
        resid = a - (a @ out.basis) @ out.basis.T
        assert fro_norm(resid) <= 1e-8 * fro_norm(a)

    def test_single_block_runs_one_final_round(self):
        a = random_dense(3, 5, seed=14)
        out = fd_sketch(a, 3)
        assert out.deltas.size == 1
        assert np.isclose(fro_norm(out.sketch), fro_norm(a))

    def test_delta_count(self):
        a = random_dense(17, 5, seed=15)
        out = fd_sketch(a, 4)  # padded to 20 rows -> 5 blocks -> 4 shrinks
        assert out.deltas.size == 4
        assert (out.deltas >= 0).all()
        assert out.delta_total == pytest.approx(out.deltas.sum())

    def test_sparse_equals_dense(self):
        a = random_csr(15, 6, seed=16)
        o1 = fd_sketch(a, 3)
        o2 = fd_sketch(a.toarray(), 3)
        assert np.abs(o1.sketch - o2.sketch).max() <= 1e-12

    def test_fd_properties(self):
        # the three shrink guarantees, spot-checked at module level
        a = random_dense(40, 8, seed=17)
        ell = 3
        out = fd_sketch(a, ell)
        gap = a.T @ a - out.sketch.T @ out.sketch
        eigs = np.linalg.eigvalsh(gap)
        spec_sq = svd(a).sigma[0] ** 2
        assert eigs.min() >= -1e-8 * spec_sq
        assert eigs.max() <= out.delta_total + 1e-8 * spec_sq
        assert (
            fro_norm(a) ** 2 - fro_norm(out.sketch) ** 2
            >= ell * out.delta_total - 1e-8 * fro_norm(a) ** 2
        )

    def test_deterministic(self):
        a = random_dense(12, 5, seed=18)
        o1, o2 = fd_sketch(a, 2), fd_sketch(a, 2)
        assert (o1.sketch == o2.sketch).all() and (o1.basis == o2.basis).all()


class TestSpfdSketch:
    def test_matches_oracle(self):
        cases = [(8, 3, 2, 2), (12, 4, 3, 2), (10, 5, 2, 3), (32, 8, 4, 5)]
        for seed, (n, d, ell, q) in enumerate(cases):
            a = random_dense(n, d, seed=seed + 70)
            out = spfd_sketch(a, SpfdConfig(ell=ell, q=q, seed=seed))
            b_ref, v_ref, deltas_ref = spfd_oracle(a, ell, q, seed)
            scale = max(fro_norm(a), 1.0)
            assert np.abs(out.sketch - b_ref).max() <= 1e-10 * scale
            assert np.abs(out.basis - v_ref).max() <= 1e-10
            assert np.allclose(out.deltas, deltas_ref, atol=1e-12)

    def test_q_one_equals_spemb_of_permuted(self):
        # spemb with the permuted map: input row i takes position inv[i]
        a = random_dense(9, 4, seed=19)
        seed = 21
        out = spfd_sketch(a, SpfdConfig(ell=3, q=1, seed=seed))
        rng = np.random.default_rng(seed)
        inv = np.argsort(rng.permutation(9))
        spec = SpEmbSpec.draw(9, 3, rng)
        b_ref = spemb_apply(a, SpEmbSpec(9, 3, spec.h[inv], spec.signs[inv]))
        v_ref, _ = thin_qr(b_ref.T)
        assert (out.sketch == b_ref).all()
        assert (out.basis == v_ref).all()
        assert out.deltas.size == 0

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SpfdConfig(ell=2, q=2, seed=-1)

    @pytest.mark.parametrize("ell, q, message", [(0, 2, "ell must be >= 1"),
                                                 (2, 0, "q must be >= 1")])
    def test_config_below_one_rejected(self, ell, q, message):
        with pytest.raises(ValueError, match=message):
            SpfdConfig(ell=ell, q=q)

    @pytest.mark.parametrize("sketcher", [fd_sketch, spemb_sketch, norm_sampling_sketch,
                                          dct_sketch])
    def test_ell_below_one_rejected(self, sketcher):
        args = () if sketcher is fd_sketch else (0,)
        with pytest.raises(ValueError, match="ell must be >= 1"):
            sketcher(random_dense(8, 3, seed=12), 0, *args)

    def test_zero_matrix(self):
        out = spfd_sketch(np.zeros((8, 3)), SpfdConfig(ell=2, q=2, seed=0))
        assert (out.sketch == 0).all()
        assert (out.deltas == 0).all()

    def test_blocks_smaller_than_ell(self):
        # q*ell > n is legal: embeddings output ell rows regardless
        a = random_dense(6, 5, seed=20)
        out = spfd_sketch(a, SpfdConfig(ell=4, q=3, seed=1))
        assert out.sketch.shape == (4, 5)
        assert out.deltas.size == 2
        assert_basis_ok(out)

    def test_non_divisible_rows_padded(self):
        a = random_dense(10, 4, seed=22)
        inter = spfd_intermediate(a, SpfdConfig(ell=2, q=3, seed=2))
        assert inter.shape == (6, 4)

    def test_intermediate_allows_wide_ell(self):
        # the block operator itself has no basis, so ell > d is legal there
        # (the statistical norm/embedding checks use exactly this regime)
        a = random_dense(8, 2, seed=26)
        inter = spfd_intermediate(a, SpfdConfig(ell=5, q=2, seed=0))
        assert inter.shape == (10, 2)
        with pytest.raises(ValueError):
            spfd_sketch(a, SpfdConfig(ell=5, q=2, seed=0))

    def test_intermediate_redraw_consistent(self):
        # sketch and intermediate re-derive identical randomness from the seed
        a = random_dense(12, 4, seed=23)
        cfg = SpfdConfig(ell=2, q=3, seed=3)
        i1 = spfd_intermediate(a, cfg)
        i2 = spfd_intermediate(a, cfg)
        assert (i1 == i2).all()
        out = spfd_sketch(a, cfg)
        ref = fd_sketch(i1, cfg.ell)
        assert (out.sketch == ref.sketch).all()

    def test_sparse_input(self):
        a = random_csr(14, 6, seed=24)
        out = spfd_sketch(a, SpfdConfig(ell=3, q=2, seed=4))
        dense_out = spfd_sketch(a.toarray(), SpfdConfig(ell=3, q=2, seed=4))
        assert np.abs(out.sketch - dense_out.sketch).max() <= 1e-12


def count_calls(monkeypatch, name: str) -> list:
    """Route ``sketchlab.sketch.<name>`` through a counter; returns the list
    that collects the shape of the first argument of every call."""
    calls = []
    real = getattr(sketchlab.sketch, name)

    def counted(a, *args):
        calls.append(a.shape)
        return real(a, *args)

    monkeypatch.setattr(sketchlab.sketch, name, counted)
    return calls


def count_rounds(monkeypatch) -> list:
    """Route ``sketchlab.sketch._shrink_round`` and the decompositions it
    makes, `_gram_top` and `svd`, through counters; returns a list with one
    entry per round: the list of what that round decomposed, its Gram
    matrix and, when it fell back, the buffer ``[s*vt; x]`` whose SVD it
    took.  A round with no row decomposes nothing."""
    rounds = []
    real_round = sketchlab.sketch._shrink_round
    real_top = sketchlab.sketch._gram_top
    real_svd = sketchlab.sketch.svd

    def counted_round(*args):
        rounds.append([])
        return real_round(*args)

    def counted_top(gram, *args, **kwargs):
        rounds[-1].append(gram)
        return real_top(gram, *args, **kwargs)

    def counted_svd(buf):
        rounds[-1].append(buf)
        return real_svd(buf)

    monkeypatch.setattr(sketchlab.sketch, "_shrink_round", counted_round)
    monkeypatch.setattr(sketchlab.sketch, "_gram_top", counted_top)
    monkeypatch.setattr(sketchlab.sketch, "svd", counted_svd)
    return rounds


def round_rows(decomposed: list) -> int:
    """The rows of one round's buffer, read from what it decomposed: the
    order of its Gram matrix (0 for a round with no row)."""
    return len(decomposed[0]) if decomposed else 0


def run_sketcher(method, a, ell):
    """``method``'s sketch of ``a`` at a fixed seed."""
    if method == "fd":
        return fd_sketch(a, ell)
    if method == "spfd":
        return spfd_sketch(a, SpfdConfig(ell=ell, q=4, seed=0))
    return {"spemb": spemb_sketch, "normsamp": norm_sampling_sketch,
            "dct": dct_sketch}[method](a, ell, rng=0)


def graded_rank_ell(n, d, ell, span, seed):
    """Rank-``ell`` input whose singular values fall geometrically from 1
    to ``span``, mixed by a Gaussian so every buffer sees the whole spread."""
    rng = np.random.default_rng(seed)
    sigma = span ** (np.arange(ell) / (ell - 1))
    frame, _ = np.linalg.qr(rng.standard_normal((d, ell)))
    return (rng.standard_normal((n, ell)) * sigma) @ frame.T


def assert_matches_oracle(out, a, ref, basis_cols=None):
    b_ref, v_ref, deltas_ref = ref
    scale = max(fro_norm(a), 1.0)
    assert np.abs(out.sketch - b_ref).max() <= 1e-10 * scale
    assert np.abs(out.basis[:, :basis_cols] - v_ref[:, :basis_cols]).max() <= 1e-10
    assert np.allclose(out.deltas, deltas_ref, atol=1e-12)


class TestGramRounds:
    """Every round, wide or tall, takes its decomposition from one ``eigh``
    of the Gram matrix ``buf @ buf.T`` of its buffer ``buf = [s*vt; x]``,
    assembled from the kept values and the block, and takes the buffer's
    SVD only when that route declines.  The oracle decomposes the
    buffer."""

    @pytest.mark.parametrize("n, d, ell", [(60, 40, 5), (200, 100, 10)])
    def test_fd_matches_oracle(self, n, d, ell):
        a = random_dense(n, d, seed=n + d)
        out = fd_sketch(a, ell)
        assert_matches_oracle(out, a, fd_oracle(a, ell))
        assert out.gram_fallbacks == 0

    @pytest.mark.parametrize("n, d, ell, q", [(60, 40, 5, 4), (200, 100, 10, 6)])
    def test_spfd_matches_oracle(self, n, d, ell, q):
        a = random_dense(n, d, seed=n + d + q)
        out = spfd_sketch(a, SpfdConfig(ell=ell, q=q, seed=q))
        assert_matches_oracle(out, a, spfd_oracle(a, ell, q, q))
        assert out.gram_fallbacks == 0

    # 2*ell > d, then 2*ell == d
    @pytest.mark.parametrize("n, d, ell", [(60, 8, 5), (120, 30, 20), (60, 10, 5),
                                           (300, 40, 20)])
    def test_tall_fd_matches_oracle(self, n, d, ell):
        a = random_dense(n, d, seed=n + d + 1)
        out = fd_sketch(a, ell)
        assert_matches_oracle(out, a, fd_oracle(a, ell))
        assert out.gram_fallbacks == 0

    @pytest.mark.parametrize("n, d, ell, q", [(60, 8, 5, 4), (200, 20, 10, 6)])
    def test_tall_spfd_matches_oracle(self, n, d, ell, q):
        a = random_dense(n, d, seed=n + d + q + 1)
        out = spfd_sketch(a, SpfdConfig(ell=ell, q=q, seed=q))
        assert_matches_oracle(out, a, spfd_oracle(a, ell, q, q))
        assert out.gram_fallbacks == 0

    # ell == d: a round's buffer has at most d nonzero singular values, so
    # no round shrinks
    @pytest.mark.parametrize("n, d", [(60, 8), (200, 20), (500, 50)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_ell_equals_d_matches_oracle(self, n, d, scale):
        a = scale * random_dense(n, d, seed=n + d + 2)
        out = fd_sketch(a, d)
        assert_matches_oracle(out, a, fd_oracle(a, d))
        assert (out.deltas == 0.0).all() and out.deltas.size == -(-n // d) - 1
        assert out.gram_fallbacks == 0

    def test_tall_ill_conditioned_matches_oracle(self, monkeypatch):
        # singular values from 1 to 1e-3 with 2*ell == d stay on the Gram
        # route: no round takes the buffer's SVD
        a = graded_rank_ell(2000, 40, 20, 1e-3, seed=50)
        rounds = count_rounds(monkeypatch)
        out = fd_sketch(a, 20)
        ref = fd_oracle(a, 20)
        assert_matches_oracle(out, a, ref)
        assert len(rounds) == len(ref[2]) == 99
        assert out.gram_fallbacks == 0
        assert all(len(decomposed) == 1 for decomposed in rounds)

    def test_tall_rank_deficient_matches_oracle(self):
        # rank 3 < ell: the last round forms three directions, and the
        # basis completes them; only those three columns are determined
        rng = np.random.default_rng(47)
        a = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 8))
        out = fd_sketch(a, 5)
        assert_matches_oracle(out, a, fd_oracle(a, 5), basis_cols=3)
        assert out.gram_fallbacks == 0
        assert_basis_ok(out)

    @pytest.mark.parametrize("span, decompositions_per_round", [(1e-4, 1), (1e-8, 2)])
    def test_graded_spectrum_matches_oracle(
        self, monkeypatch, span, decompositions_per_round
    ):
        # a 1e-4 spread of singular values stays on the Gram route; 1e-8
        # puts kept eigenvalues below the floor, so every round is redone
        # with the buffer's own SVD
        a = graded_rank_ell(200, 100, 10, span, seed=44)
        rounds = count_rounds(monkeypatch)
        svds = count_calls(monkeypatch, "svd")
        out = fd_sketch(a, 10)
        ref = fd_oracle(a, 10)
        assert len(rounds) == len(ref[2])
        assert len(svds) == out.gram_fallbacks
        assert out.gram_fallbacks == (decompositions_per_round - 1) * len(ref[2])
        assert_matches_oracle(out, a, ref)

    @pytest.mark.parametrize("span, fallbacks", [(3e-2, 0), (1e-3, 0), (1e-8, 19)])
    def test_tall_graded_spectrum_matches_oracle(self, monkeypatch, span, fallbacks):
        # 2*ell == d: the directions come from the buffer's own Gram matrix
        # as u.T @ buf / sigma, like a wide round's, so a 1e-3 spread of
        # singular values (1e-6 in eigenvalues) stays on the Gram route;
        # a 1e-8 spread is below the floor, and every round is redone with
        # the buffer's own SVD
        a = graded_rank_ell(200, 20, 10, span, seed=48)
        rounds = count_rounds(monkeypatch)
        svds = count_calls(monkeypatch, "svd")
        out = fd_sketch(a, 10)
        ref = fd_oracle(a, 10)
        assert len(rounds) == len(ref[2]) == 19
        assert len(svds) == out.gram_fallbacks == fallbacks
        assert_matches_oracle(out, a, ref)

    @pytest.mark.parametrize("d", [40, 8])
    def test_eigh_failure_falls_back(self, monkeypatch, d):
        # a LinAlgError from eigh redoes the round with the buffer's SVD
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        a = random_dense(60, d, seed=49)
        svds = count_calls(monkeypatch, "svd")
        fd = fd_sketch(a, 5)
        assert_matches_oracle(fd, a, fd_oracle(a, 5))
        assert fd.gram_fallbacks == len(svds) == fd.deltas.size == 11
        spfd = spfd_sketch(a, SpfdConfig(ell=5, q=4, seed=4))
        assert_matches_oracle(spfd, a, spfd_oracle(a, 5, 4, 4))
        assert spfd.gram_fallbacks == 3

    def test_wide_rank_two_input(self, monkeypatch):
        # eigenvalues at the Gram rounding level are zeros, not a steep
        # spectrum: no round is redone and no shrink is noise
        rng = np.random.default_rng(45)
        a = rng.standard_normal((200, 2)) @ rng.standard_normal((2, 100))
        rounds = count_rounds(monkeypatch)
        svds = count_calls(monkeypatch, "svd")
        out = fd_sketch(a, 10)
        assert len(rounds) == out.deltas.size == 19
        assert len(svds) == out.gram_fallbacks == 0
        assert np.abs(out.deltas).max() <= 1e-20 * fro_norm(a) ** 2
        assert out.basis.shape == (100, 10)
        assert_basis_ok(out)
        resid = a - (a @ out.basis) @ out.basis.T
        assert fro_norm(resid) <= 1e-8 * fro_norm(a)


class TestShrinkRoundCount:
    """One ``sketchlab.sketch._shrink_round`` call per shrink round and none
    besides; ``sketchlab.sketch.svd`` runs only for the fallback rounds."""

    def matrix(self):
        return generate_synthetic(SyntheticSpec(n=400, d=50, k=10, zeta=10.0, seed=1))

    def test_fd(self, monkeypatch):
        rounds = count_rounds(monkeypatch)
        svds = count_calls(monkeypatch, "svd")
        out = fd_sketch(self.matrix(), 10)
        assert len(rounds) == 39  # 400 / 10 blocks, the first round takes two
        assert {tuple(m.shape for m in r) for r in rounds} == {((20, 20),)}
        assert len(svds) == out.gram_fallbacks == 0

    def test_spfd4(self, monkeypatch):
        rounds = count_rounds(monkeypatch)
        svds = count_calls(monkeypatch, "svd")
        out = spfd_sketch(self.matrix(), SpfdConfig(ell=10, q=4, seed=0))
        assert len(rounds) == 3
        assert len(svds) == out.gram_fallbacks == 0


class TestKeptDirectionRound:
    """One wide round on kept values ``s`` and orthonormal directions ``vt``
    and an incoming block ``x`` against the SVD of the buffer ``[s*vt; x]``
    it stands for: the squared singular values, the top ``ell`` directions
    and their signs (`svd`'s rule), with no fallback."""

    def kept(self, k, d, seed):
        rng = np.random.default_rng(seed)
        s = np.sort(rng.uniform(0.5, 3.0, k))[::-1]
        return s, svd(rng.standard_normal((k, d))).vt

    def check(self, s, vt, x, ell, rank):
        sq, directions, fell_back = sketchlab.sketch._shrink_round(s, vt, x, ell)
        res = svd(np.concatenate([s[:, None] * vt, x]))
        assert not fell_back
        assert sq.shape == res.sigma.shape
        assert np.abs(sq - res.sigma**2).max() <= 1e-12 * res.sigma[0] ** 2
        assert np.count_nonzero(sq) == rank
        assert len(directions) == min(ell, rank)
        assert np.abs(directions - res.vt[: len(directions)]).max() <= 1e-10

    def test_dense_block(self):
        s, vt = self.kept(6, 40, seed=80)
        self.check(s, vt, random_dense(6, 40, seed=81), 6, rank=12)

    # d/2 nonzero columns take the products over those columns alone; one
    # more takes them over all columns
    @pytest.mark.parametrize("nonzero_cols", [1, 20, 21])
    def test_block_with_zero_columns(self, nonzero_cols):
        s, vt = self.kept(6, 40, seed=82)
        x = np.zeros((5, 40))
        cols = np.random.default_rng(83).permutation(40)[:nonzero_cols]
        x[:, cols] = random_dense(5, nonzero_cols, seed=84)
        self.check(s, vt, x, 6, rank=6 + min(5, nonzero_cols))

    def test_rank_deficient_buffer(self):
        # the block's rows lie in the kept span: four directions, not six
        s, vt = self.kept(4, 40, seed=85)
        x = random_dense(5, 4, seed=86) @ vt
        self.check(s, vt, x, 6, rank=4)

    def test_first_round(self):
        self.check(np.zeros(0), np.zeros((0, 40)), random_dense(12, 40, seed=87), 6,
                   rank=12)


class TestCompactRounds:
    """A round decomposes the kept directions and the incoming block's
    nonzero rows only, not the whole ``2*ell``-row buffer.  The oracles
    decompose the whole buffer, zero rows included; zero rows add only zero
    singular values, so the results agree and the round count is kept."""

    def check_rounds(self, rounds, fed, ell):
        """One entry per round, each decomposing a buffer with no zero row
        (a zero row is a zero diagonal entry of the Gram matrix) of at most
        the kept ``ell`` directions plus the nonzero rows of its block of
        ``fed``, the matrix the rounds read."""
        nonzero = [int(fed[i : i + ell].any(axis=1).sum()) for i in range(0, len(fed), ell)]
        incoming = nonzero[1:] or [0]  # a single block takes its round alone
        assert len(rounds) == len(incoming)
        assert round_rows(rounds[0]) == nonzero[0] + incoming[0]
        for decomposed, rows in zip(rounds, incoming):
            if decomposed:
                assert (np.diag(decomposed[0]) > 0).all()
                assert all(len(m) == len(decomposed[0]) for m in decomposed)
            assert round_rows(decomposed) <= ell + rows

    def test_spfd_ell_above_block_rows(self, monkeypatch):
        # 8 rows per block and ell = 10: every block leaves buckets empty
        a = generate_synthetic(SyntheticSpec(n=400, d=50, k=10, zeta=10.0, seed=1))
        cfg = SpfdConfig(ell=10, q=50, seed=3)
        rounds = count_rounds(monkeypatch)
        out = spfd_sketch(a, cfg)
        assert_matches_oracle(out, a, spfd_oracle(a, 10, 50, 3))
        assert out.deltas.size == 49
        self.check_rounds(rounds, spfd_intermediate(a, cfg), 10)
        assert max(map(round_rows, rounds)) <= 18

    @pytest.mark.parametrize("d", [40, 6])  # wide, then tall
    def test_fd_zero_rows_interleaved(self, monkeypatch, d):
        # every third row is zero, and rows 20..29 make two whole zero blocks
        a = random_dense(60, d, seed=60 + d)
        a[::3] = 0.0
        a[20:30] = 0.0
        rounds = count_rounds(monkeypatch)
        out = fd_sketch(a, 5)
        assert_matches_oracle(out, a, fd_oracle(a, 5))
        assert out.deltas.size == 11
        self.check_rounds(rounds, a, 5)
        assert [round_rows(r) for r in rounds[3:5]] == [5, 5]  # kept rows only

    @pytest.mark.parametrize("d", [40, 6])
    def test_fd_short_last_block(self, monkeypatch, d):
        a = random_dense(23, d, seed=70 + d)
        rounds = count_rounds(monkeypatch)
        out = fd_sketch(sparse.csr_matrix(a), 5)
        assert_matches_oracle(out, a, fd_oracle(a, 5))
        assert out.deltas.size == 4
        self.check_rounds(rounds, a, 5)
        assert round_rows(rounds[-1]) == 8

    def test_tall_csr_zero_rows_and_columns(self, monkeypatch):
        # every third row and half of the 12 columns are zero: one mask
        # drops the zero rows and restricts the products to the six nonzero
        # columns, which bound the rank; every round is tall (at least d
        # rows after its zero rows are dropped)
        a = random_dense(100, 12, seed=88)
        a[::3] = 0.0
        a[:, [0, 2, 3, 5, 8, 11]] = 0.0
        rounds = count_rounds(monkeypatch)
        out = fd_sketch(sparse.csr_matrix(a), 10)
        assert_matches_oracle(out, a, fd_oracle(a, 10), basis_cols=6)
        assert out.deltas.size == 9 and out.gram_fallbacks == 0
        self.check_rounds(rounds, a, 10)
        assert min(map(round_rows, rounds)) >= 12
        assert_basis_ok(out)

    def test_all_zero_input(self, monkeypatch):
        # every round holds no row; the basis is an orthonormal completion,
        # which the input does not determine
        a = np.zeros((30, 6))
        rounds = count_rounds(monkeypatch)
        fd = fd_sketch(a, 4)
        b_ref, _, deltas_ref = fd_oracle(a, 4)
        assert (fd.sketch == b_ref).all() and fd.sketch.shape == (4, 6)
        assert fd.deltas.tolist() == deltas_ref == [0.0] * 7
        assert rounds == [[]] * 7
        assert_basis_ok(fd)
        spfd = spfd_sketch(a, SpfdConfig(ell=4, q=5, seed=0))
        assert (spfd.sketch == 0).all() and spfd.deltas.tolist() == [0.0] * 4
        assert rounds == [[]] * 11 and fd.gram_fallbacks == spfd.gram_fallbacks == 0
        assert_basis_ok(spfd)


class TestNonFiniteInput:
    """NaN and Inf are rejected once, before the first round, for every
    buffer shape and input format."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    # wide (2*ell < d), then tall
    @pytest.mark.parametrize("d, ell", [(30, 5), (40, 30), (8, 5)])
    @pytest.mark.parametrize("kind", ["dense", "csr"])
    @pytest.mark.parametrize("method", ["fd", "spfd", "spemb", "normsamp", "dct"])
    def test_rejected(self, bad, d, ell, kind, method):
        a = random_dense(100, d, seed=d)
        a[37, d // 2] = bad
        if kind == "csr":
            a = sparse.csr_matrix(a)
        with pytest.raises(ValueError, match="NaN or Inf"):
            run_sketcher(method, a, ell)


@pytest.mark.parametrize("kind", ["dense", "csr"])
@pytest.mark.parametrize(
    "method", ["fd", "spfd", "spemb", "normsamp", "dct", "spfd_intermediate"]
)
def test_no_rows_rejected(kind, method):
    a = np.zeros((0, 5))
    if kind == "csr":
        a = sparse.csr_matrix(a)
    with pytest.raises(ValueError, match=re.escape("no rows, got shape (0, 5)")):
        if method == "spfd_intermediate":
            spfd_intermediate(a, SpfdConfig(ell=2, q=3))
        else:
            run_sketcher(method, a, 2)


@pytest.mark.parametrize("n", [36, 40])
def test_fd_csr_chunks_equal_dense(monkeypatch, n):
    # chunks of 9 rows (three 3-row blocks): n = 36 ends on a whole chunk,
    # n = 40 on a 4-row chunk whose last block has one row
    monkeypatch.setattr(sketchlab.linalg, "_CHUNK_ENTRIES", 100)
    a = random_csr(n, 10, seed=n)
    out = fd_sketch(a, 3)
    ref = fd_sketch(a.toarray(), 3)
    assert np.array_equal(out.sketch, ref.sketch)
    assert np.array_equal(out.basis, ref.basis)
    assert np.array_equal(out.deltas, ref.deltas)


def test_no_scipy_qr(monkeypatch):
    # numpy and scipy each load their own OpenBLAS; sketchers and the
    # reconstruction stay on numpy's
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.qr called")

    monkeypatch.setattr(scipy.linalg, "qr", refuse)
    a = random_dense(60, 40, seed=46)
    outs = [
        spemb_sketch(a, 5, rng=0),
        fd_sketch(a, 5),
        spfd_sketch(a, SpfdConfig(ell=5, q=4, seed=0)),
        norm_sampling_sketch(a, 5, rng=0),
        dct_sketch(a, 5, rng=0),
    ]
    for out in outs:
        assert_basis_ok(out)
        approx_from_basis(a, out.basis, 3)


class TestNormSampling:
    def test_probabilities_on_diag(self):
        # p = [9/25, 16/25]: sampled rows can only be the two rescaled rows
        a = np.diag([3.0, 4.0])
        out = norm_sampling_sketch(a, 2, rng=25)
        for row in out.sketch:
            i = int(np.flatnonzero(row)[0])
            p_i = (9 / 25, 16 / 25)[i]
            assert np.isclose(abs(row[i]), (3.0, 4.0)[i] / np.sqrt(2 * p_i))

    def test_sampling_frequencies(self):
        a = np.diag([3.0, 4.0])
        rng = np.random.default_rng(26)
        hits0 = 0
        trials = 20000
        for _ in range(trials):
            out = norm_sampling_sketch(a, 1, rng=rng)
            hits0 += int(out.sketch[0, 0] != 0.0)
        assert abs(hits0 / trials - 9 / 25) <= 0.01

    def test_single_nonzero_row(self):
        a = np.zeros((5, 6))
        a[2, :3] = [1.0, 2.0, 2.0]
        out = norm_sampling_sketch(a, 4, rng=27)
        expected = a[2] / np.sqrt(4)
        for row in out.sketch:
            assert np.allclose(row, expected)

    def test_unbiased_gram(self):
        a = random_dense(8, 3, seed=28)
        rng = np.random.default_rng(29)
        acc = np.zeros((3, 3))
        trials = 20000
        for _ in range(trials):
            b = norm_sampling_sketch(a, 3, rng=rng).sketch
            acc += b.T @ b
        target = a.T @ a
        err = np.linalg.norm(acc / trials - target, 2)
        assert err <= 0.02 * np.linalg.norm(target, 2)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            norm_sampling_sketch(np.zeros((4, 2)), 2, rng=0)

    def test_sparse_input(self):
        a = random_csr(10, 4, seed=30)
        out = norm_sampling_sketch(a, 3, rng=31)
        assert out.sketch.shape == (3, 4)
        assert_basis_ok(out)


class TestDctSketch:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_transform_orthonormal(self, n):
        f = dct_matrix_oracle(n)
        assert np.abs(f @ f.T - np.eye(n)).max() <= 1e-10

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_production_matches_materialised_transform(self, n):
        import scipy.fft

        from sketchlab.sketch import _dct_rows

        f_ref = dct_matrix_oracle(n)
        assert np.abs(_dct_rows(np.arange(n), n) - f_ref).max() <= 1e-12
        f_fast = scipy.fft.dct(np.eye(n), type=2, axis=0, norm="ortho")
        assert np.abs(f_fast - f_ref).max() <= 1e-12

    def test_rows_exact_at_large_n(self):
        # the unreduced angle pi (2j+1) i / 2n reaches pi n, whose rounding
        # put entries of about 5.5e-3 off by 1e-13; the integer phase does not
        import scipy.fft

        from sketchlab.sketch import _dct_rows

        n = 1 << 16
        rows = np.random.default_rng(0).choice(n, 256, replace=False)
        rows[0] = 0
        for block in np.split(rows, 8):
            # row i of the DCT-II matrix is the DCT-III of the unit vector e_i
            units = np.zeros((len(block), n))
            units[np.arange(len(block)), block] = 1.0
            ref = scipy.fft.dct(units, type=3, axis=1, norm="ortho")
            assert np.abs(_dct_rows(block, n) - ref).max() <= 1e-15

    @pytest.mark.parametrize("n", [6, 8])
    def test_full_sample_preserves_norm(self, n):
        a = random_dense(n, 9, seed=32)
        out = dct_sketch(a, n, rng=33)
        assert np.isclose(fro_norm(out.sketch), fro_norm(a), rtol=1e-12)

    def test_norm_preserved_in_expectation(self):
        a = random_dense(6, 3, seed=34)
        rng = np.random.default_rng(35)
        target = fro_norm(a) ** 2
        total = 0.0
        trials = 20000
        for _ in range(trials):
            total += fro_norm(dct_sketch(a, 2, rng=rng).sketch) ** 2
        assert abs(total / trials - target) <= 0.02 * target

    def test_ell_above_n_rejected(self):
        with pytest.raises(ValueError):
            dct_sketch(random_dense(3, 5, seed=36), 4, rng=0)

    def test_sparse_matches_dense_path(self):
        a = random_csr(12, 5, seed=37)
        o_sparse = dct_sketch(a, 4, rng=38)
        o_dense = dct_sketch(a.toarray(), 4, rng=38)
        diff = np.linalg.norm(o_sparse.sketch - o_dense.sketch)
        assert diff <= 1e-13 * np.linalg.norm(o_dense.sketch)

    @pytest.mark.parametrize("ell", [10, 150])
    def test_dense_matches_fast_transform(self, ell):
        import scipy.fft

        a = random_dense(2000, 200, seed=44)
        got = dct_sketch(a, ell, rng=45).sketch
        # the same draws, in the same order: signs, then the sampled rows
        rng = np.random.default_rng(45)
        signs = np.where(rng.random(2000) < 0.5, 1.0, -1.0)
        rows = rng.choice(2000, size=ell, replace=False)
        y = scipy.fft.dct(signs[:, None] * a, type=2, axis=0, norm="ortho")
        ref = np.sqrt(2000 / ell) * y[rows]
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("sketcher", ["spemb", "fd", "spfd", "normsamp", "dct"])
def test_every_sketcher_deterministic_with_orthonormal_basis(sketcher):
    a = random_dense(20, 7, seed=39)

    def run():
        if sketcher == "spemb":
            return spemb_sketch(a, 4, rng=40)
        if sketcher == "fd":
            return fd_sketch(a, 4)
        if sketcher == "spfd":
            return spfd_sketch(a, SpfdConfig(ell=4, q=3, seed=41))
        if sketcher == "normsamp":
            return norm_sampling_sketch(a, 4, rng=42)
        return dct_sketch(a, 4, rng=43)

    o1, o2 = run(), run()
    assert (o1.sketch == o2.sketch).all()
    assert (o1.basis == o2.basis).all()
    assert (o1.deltas == o2.deltas).all()
    assert_basis_ok(o1)


class TestParseSketcherId:
    def test_parse_ids(self):
        assert parse_sketcher_id("spfd50") == ("spfd", 50)
        assert parse_sketcher_id("FD") == ("fd", None)
        with pytest.raises(ValueError):
            parse_sketcher_id("spfd")
        with pytest.raises(ValueError):
            parse_sketcher_id("gaussian")
        for bad in ("spfd0", "spfd-3", "spfd5_0", "spfd+2", "spfd 4"):
            with pytest.raises(ValueError, match=re.escape(f"'{bad}'")):
                parse_sketcher_id(bad)
