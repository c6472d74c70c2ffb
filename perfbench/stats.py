"""Summary statistics for benchmark samples.

A timing is reported as its median and the highest percentile that has at
least ten samples beyond it, with the sample count; quartiles give the
run-to-run spread that the bounds in BENCHMARK.json are compared against.
"""

from __future__ import annotations

import math
import statistics

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _tenths(p: float) -> int:
    # percentiles carry one decimal; integer arithmetic keeps 99.9 of 10,000 exact
    return round(p * 10)


def quartiles(values) -> tuple:
    """First and third quartile, as `statistics.quantiles(values, n=4)` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def chosen_percentile(n: int):
    """Highest of PERCENTILES with at least MIN_BEYOND of n samples beyond it,
    or None when n is too small for any."""
    for p in PERCENTILES:
        if n * (1000 - _tenths(p)) >= MIN_BEYOND * 1000:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-_tenths(p) * len(ordered) // 1000))
    return ordered[rank - 1]


def summarize(values) -> dict:
    values = list(values)
    q1, q3 = quartiles(values)
    p = chosen_percentile(len(values))
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": spread(values),
        "percentile": p,
        "percentile_value": None if p is None else percentile(values, p),
    }
