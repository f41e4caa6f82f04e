"""Order statistics shared by the benchmark and its comparison tool.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the "exclusive"
method) so a run-to-run spread computed here matches the one a reader
computes by hand from the raw values.  Percentiles of iteration samples
use linear interpolation between closest ranks, the NumPy default.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for a zero median)."""
    mid = median(values)
    if mid == 0:
        return 0.0
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(mid)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's samples."""
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3,
            "n": float(len(values))}
