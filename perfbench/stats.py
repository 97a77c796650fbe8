"""Order statistics the benchmark reports, each with its sample count."""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile (0..100, linear interpolation) and the sample count."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    data = sorted(values)
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    value = data[low] + (data[high] - data[low]) * (rank - low)
    return value, len(data)


def tail_supported(count: int, q: float, beyond: int = 10) -> bool:
    """Whether ``count`` samples leave at least ``beyond`` of them above the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0 >= beyond
