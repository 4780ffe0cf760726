"""Percentiles over cell times and the sample counts that back them."""
from __future__ import annotations

import math

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method), p in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the p-th percentile."""
    return n - math.ceil(n * p / 100.0)


def tail_percentile(n: int, need: int = 10):
    """Highest percentile on the ladder with at least `need` samples beyond it, else None."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= need:
            return p
    return None
