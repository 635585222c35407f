"""Order statistics used across the ledger (pure Python, numpy-free)."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them; with
    fewer than four values the range stands in, and a single value has
    no spread to speak of (None).
    """
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if max(values) == min(values) else float("inf")
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)
