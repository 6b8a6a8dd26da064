"""Small arithmetic helpers the benchmark reports with.

Kept free of numpy and of the package under test so the self-tests in
``bench/tests`` can check them in isolation.
"""

from __future__ import annotations

import math


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile in a sample of ``n``
    (the small offset keeps e.g. 99.9% of 400000 at exactly 399600)."""
    return max(math.ceil(q * n / 100.0 - 1e-9), 1)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it (``0 < q <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def count_beyond(n: int, q: float) -> int:
    """Samples strictly after the nearest-rank ``q`` percentile position in a
    sorted sample of ``n``; the guide asks for at least ten."""
    if n < 1:
        raise ValueError("empty sample")
    return n - _rank(n, q)


def fail_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def covered_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children
               if min(e, end) > max(s, start)]
    return (end - start) - covered_length(clipped)
