"""Order statistics shared by the runner, the suite and ``compare``."""

from __future__ import annotations

import math
import statistics

__all__ = ["percentile", "quartiles", "summary", "spread"]


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def quartiles(values) -> "tuple[float, float, float]":
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (the rule the benchmark contract's spread check uses); a single
    value is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values) -> dict:
    """Median, quartiles, n and the samples themselves, JSON-ready."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median, "q1": q1, "q3": q3, "n": len(values),
        "samples": list(values),
    }


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
