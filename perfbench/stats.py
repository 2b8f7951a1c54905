"""Latency summaries: median and the tail percentile rule."""

from __future__ import annotations

import math
import statistics

# The usual reporting percentiles, highest first; the tail is the highest
# of them that the sample count supports.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    # The epsilon keeps 99.9% of 10000 at rank 9990 despite float rounding.
    return max(1, math.ceil(pct * n / 100 - 1e-9))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest candidate
    percentile that leaves at least MIN_BEYOND samples above it.

    With fewer than 2 * MIN_BEYOND samples no candidate qualifies; the
    median is returned and the short count shows in `samples beyond`.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        beyond = n - _rank(n, pct)
        if beyond >= MIN_BEYOND:
            break
    return pct, nearest_rank(ordered, pct), beyond


def median(values: list[float]) -> float:
    return statistics.median(values)
