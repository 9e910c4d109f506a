"""Summary statistics shared by the benchmark's runner and its tests."""
from __future__ import annotations

import math
from typing import Sequence

#: The tail percentile is the highest one with at least this many samples
#: strictly beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``.  With ``n`` samples the
    value is the ``(n - 10)``-th smallest, so exactly ten lie above it and it
    sits at percentile ``100 * (n - 10) / n``.  With ten samples or fewer no
    percentile qualifies; the maximum is returned at percentile 100.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return ordered[rank - 1], 100.0 * rank / n, n


def loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of ``log y`` against ``log x``."""
    if len(points) < 2:
        raise ValueError("a slope needs two points")
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den
