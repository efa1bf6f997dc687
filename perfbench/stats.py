"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def high_percentile(values: Sequence[float]) -> Optional[dict]:
    """The highest whole percentile with at least ``TAIL_SAMPLES`` samples
    above it, by the nearest-rank rule, or ``None`` when there are too few
    samples for any.

    With ``n`` samples the nearest-rank ``p``-th percentile is the sample at
    1-based rank ``ceil(p * n / 100)``; at least ten samples lie beyond it
    when that rank is at most ``n - 10``, so ``p = floor(100 (n - 10) / n)``.
    """
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    p = 100 * (n - TAIL_SAMPLES) // n
    if p < 1:
        return None
    rank = -(-p * n // 100)  # ceil without floats
    return {"p": p, "value": float(sorted(values)[rank - 1]), "n": n}


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
