"""Summary statistics and failure accounting for benchmark results."""

from __future__ import annotations

import math

# percentiles considered for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    # the tolerance keeps 99.9 * 10000 / 100 from rounding up to 9991
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def nearest_rank(values, q: float) -> float:
    """The q-th percentile by nearest rank: the smallest sample with at
    least q percent of the samples at or below it."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    return data[_rank(q, len(data)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples ranked beyond
    it, or None when even the median has fewer."""
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= TAIL_MIN_BEYOND:
            return q
    return None


def tail(values) -> dict:
    """The tail summary printed next to a median: percentile, value and
    sample count (percentile and value are None with too few samples)."""
    q = tail_percentile(len(values))
    return {
        "percentile": q,
        "value": None if q is None else nearest_rank(values, q),
        "samples": len(values),
    }


class ErrorCount:
    """Operations attempted and failed; ``rate`` is failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        if not 0 <= failed <= attempted:
            raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
        self.attempted += attempted
        self.failed += failed

    @property
    def rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
