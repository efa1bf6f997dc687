import tracemalloc

import numpy as np
import pytest

import sketchlab.linalg
from sketchlab.datagen import SyntheticSpec, generate_synthetic
from sketchlab.linalg import thin_qr


def one_shot(spec):
    """The generator's formula with the noise drawn as one ``n x d`` array."""
    rng = np.random.default_rng(spec.seed)
    coeff = rng.standard_normal((spec.n, spec.k))
    weights = 1.0 - np.arange(spec.k) / spec.effective_m
    frame, _ = thin_qr(rng.standard_normal((spec.d, spec.k)))
    a = (coeff * weights) @ frame.T
    if spec.zeta is not None:
        a += rng.standard_normal((spec.n, spec.d)) / spec.zeta
    return a


class TestSpecValidation:
    @pytest.mark.parametrize("n, d, k", [(0, 4, 2), (10, 0, 2), (10, 4, 0)])
    def test_nonpositive_shape(self, n, d, k):
        with pytest.raises(ValueError, match="n, d, k must be >= 1"):
            SyntheticSpec(n=n, d=d, k=k)

    def test_k_exceeding_d(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=4, k=5)

    def test_nonpositive_zeta(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=4, k=2, zeta=0.0)

    def test_m_below_k(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=10, d=6, k=4, m=3)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SyntheticSpec(n=20, d=5, k=2, seed=-1)

    def test_default_experimental_setting(self):
        # the benchmark default: 10000 x 1000, signal rank 10, noise /10
        spec = SyntheticSpec(n=10000, d=1000, k=10)
        assert spec.zeta == 10.0
        assert spec.effective_m == 10


class TestNoiseInRowBlocks:
    """The noise is drawn and added one row block at a time, bit-identical
    to one draw of the whole ``n x d`` noise, and the output is the only
    ``n x d`` buffer."""

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(n=30, d=12, k=3, seed=5),  # 8-row blocks, the last one short
        SyntheticSpec(n=30, d=12, k=3, zeta=None, seed=5),
        SyntheticSpec(n=9, d=40, k=4, zeta=3.0, seed=7),  # wide, 2-row blocks
    ], ids=["ragged", "zeta-none", "wide"])
    def test_matches_one_draw(self, monkeypatch, spec):
        monkeypatch.setattr(sketchlab.linalg, "_CHUNK_ENTRIES", 100)
        assert np.array_equal(generate_synthetic(spec), one_shot(spec))

    def test_peak_memory_near_output(self):
        spec = SyntheticSpec(n=10000, d=1000, k=10, seed=1)
        tracemalloc.start()
        try:
            a = generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one draw of the whole noise peaked at 2.0x the output
        assert peak <= 1.3 * a.nbytes


class TestGenerate:
    def test_reproducible(self):
        spec = SyntheticSpec(n=30, d=12, k=3, seed=5)
        assert (generate_synthetic(spec) == generate_synthetic(spec)).all()

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticSpec(n=30, d=12, k=3, seed=5))
        b = generate_synthetic(SyntheticSpec(n=30, d=12, k=3, seed=6))
        assert not (a == b).all()

    def test_noise_free_is_exactly_rank_k(self):
        a = generate_synthetic(SyntheticSpec(n=40, d=15, k=4, zeta=None, seed=7))
        s = np.linalg.svd(a, compute_uv=False)
        assert s[3] > 1e-6
        assert s[4] <= 1e-10 * s[0]

    def test_signal_has_k_weighted_directions(self):
        # noise-free spectrum follows sqrt(n) * (1 - (i-1)/m) in expectation
        n, k = 4000, 5
        s = np.linalg.svd(
            generate_synthetic(SyntheticSpec(n=n, d=50, k=k, zeta=None, seed=8)),
            compute_uv=False,
        )
        target = np.sqrt(n) * (1 - np.arange(k) / k)
        assert np.abs(s[:k] / target - 1).max() <= 0.15

    def test_shape(self):
        a = generate_synthetic(SyntheticSpec(n=13, d=7, k=2, seed=9))
        assert a.shape == (13, 7)

    def test_top_spectrum_with_noise(self):
        # Mean top-k singular values over 5 seeds: the top weights match the
        # sqrt(n) * weight prediction within 15%; the smallest weights sit at
        # the noise bulk's scale, so only an additive envelope holds there
        # (signal - ||noise||_2 <= sigma_i, sigma_i^2 <~ signal^2 + noise^2).
        n, d, k, zeta = 2000, 200, 10, 10.0
        acc = np.zeros(k)
        seeds = range(5)
        for seed in seeds:
            a = generate_synthetic(SyntheticSpec(n=n, d=d, k=k, zeta=zeta, seed=seed))
            acc += np.linalg.svd(a, compute_uv=False)[:k]
        mean = acc / len(list(seeds))
        target = np.sqrt(n) * (1 - np.arange(k) / k)
        noise_spec = (np.sqrt(n) + np.sqrt(d)) / zeta
        assert np.abs(mean[:9] / target[:9] - 1).max() <= 0.15
        assert (mean >= target - noise_spec).all()
        assert (mean <= 1.02 * np.sqrt(target**2 + noise_spec**2)).all()
