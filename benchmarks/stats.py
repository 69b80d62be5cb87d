"""Order statistics and op accounting for the benchmark.

Percentiles use the nearest-rank rule, so each one is a value that was
actually observed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank; rounding keeps 99.9% of 10000 at 9990, not 9991."""
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    return sorted(values)[_rank(pct, len(values)) - 1]


def highest_supported_percentile(count: int, min_beyond: int = 10) -> float | None:
    """Highest ladder percentile with at least min_beyond of count samples above it."""
    for pct in TAIL_LADDER:
        if count - _rank(pct, count) >= min_beyond:
            return pct
    return None


@dataclass
class OpCount:
    """Attempted and failed ops of one run, or of one slice of it."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, ops: int = 1) -> None:
        if ops < 0:
            raise ValueError(f"op count must be nonnegative, got {ops}")
        self.attempted += ops
        if not ok:
            self.failed += ops

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
