"""Order statistics used for every reported timing."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation between ranks.

    Matches ``numpy.percentile``'s default method, so a reader can check a
    reported figure against numpy over the raw samples.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quarter_ratio(values: Sequence[float]) -> float:
    """Median of the last quarter of ``values`` over that of the first.

    Used on block commit times in mining order: a ratio well above 1 means
    each block costs more as the chain's state grows.  Needs at least four
    values.
    """
    quarter = len(values) // 4
    if quarter < 1:
        raise ValueError("quarter_ratio needs at least four values")
    early = median(values[:quarter])
    late = median(values[-quarter:])
    return late / early
