"""Synthetic signal-plus-noise matrices for sketching experiments.

Rows consist of a rank-k signal with linearly diminishing weights plus
dense Gaussian noise scaled down by ``zeta``:

    A = C @ diag(w) @ U + N / zeta,   w_i = 1 - (i - 1) / m

with ``C`` an ``n x k`` standard Gaussian coefficient matrix, ``U`` a
uniformly random row-orthonormal ``k x d`` frame and ``N`` standard
Gaussian.  The signal part has exactly rank k, which makes recovery
quality easy to judge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import _row_chunks, thin_qr

__all__ = ["SyntheticSpec", "generate_synthetic"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and noise parameters of one synthetic matrix.

    ``zeta=None`` omits the noise term entirely (the zeta -> infinity
    limit), leaving an exactly rank-k matrix.  ``m`` controls how fast the
    signal weights decay (weight i is ``1 - (i-1)/m``); it defaults to k so
    the smallest weight is ``1/k`` and all weights stay positive.
    """

    n: int
    d: int
    k: int
    zeta: Optional[float] = 10.0
    m: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.k < 1:
            raise ValueError("n, d, k must be >= 1")
        if self.k > self.d:
            raise ValueError("signal dimension k must not exceed d")
        if self.zeta is not None and not self.zeta > 0:
            raise ValueError("zeta must be positive")
        if self.m is not None and self.m < self.k:
            raise ValueError("m must be >= k")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def effective_m(self) -> int:
        return self.k if self.m is None else self.m


def generate_synthetic(spec: SyntheticSpec) -> np.ndarray:
    """Draw one matrix according to ``spec``; bit-reproducible per seed.

    The noise is drawn, scaled and added one `_row_chunks` block at a time,
    so the output is the only ``n x d`` buffer.  A generator draws its
    normals in sequence, so the blocks hold the values one ``n x d`` draw
    would.
    """
    rng = np.random.default_rng(spec.seed)
    coeff = rng.standard_normal((spec.n, spec.k))
    weights = 1.0 - np.arange(spec.k) / spec.effective_m
    frame, _ = thin_qr(rng.standard_normal((spec.d, spec.k)))
    a = (coeff * weights) @ frame.T
    if spec.zeta is not None:
        for rows in _row_chunks(a):
            block = a[rows]
            noise = rng.standard_normal(block.shape)
            noise /= spec.zeta
            block += noise
    return a
