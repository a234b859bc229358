"""Order statistics for the benchmark: medians, tail percentiles that
keep enough samples beyond them, and the quartile spread the acceptance
rule is stated in."""

from __future__ import annotations

import statistics
from typing import List, Sequence, Tuple

#: a tail percentile is only reported with this many samples beyond it
SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return float(ordered[int(rank) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank
    ``q``-th percentile."""
    rank = max(1, -(-count * q // 100))
    return count - int(rank)


def supported_percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, or 0.0 when fewer than
    :data:`SAMPLES_BEYOND` samples lie beyond it: a tail the sample
    cannot carry is not reported."""
    if samples_beyond(len(samples), q) < SAMPLES_BEYOND:
        return 0.0
    return percentile(samples, q)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def pooled(groups: Sequence[Sequence[float]]) -> List[float]:
    return [value for group in groups for value in group]
