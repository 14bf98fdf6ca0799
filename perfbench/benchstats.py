"""Order statistics for latency reporting."""

from __future__ import annotations

import math

# Candidate tail percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest percentile with at least ``MIN_BEYOND`` of ``n`` samples beyond it."""
    best = None
    for q in PERCENTILES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            best = q
    return best
