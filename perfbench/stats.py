"""Order statistics shared by the run and diff commands."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

__all__ = ["percentile", "quartiles"]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0.0 for no samples): the smallest value
    with at least ``pct`` percent of the samples at or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value is its
    own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
