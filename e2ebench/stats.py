"""Order statistics that always travel with their sample counts.

Every percentile the benchmark prints says how many samples it was
taken from and how many lie beyond it: a p99 of 300 samples has only
three samples past it and is reported as unsupported rather than as a
number.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One nearest-rank percentile of a sample."""

    q: float          # the percentile, 0 < q <= 100
    value: float
    count: int        # samples it was taken from
    beyond: int       # samples strictly past its rank

    @property
    def supported(self) -> bool:
        return self.beyond >= MIN_BEYOND

    def describe(self, unit: str) -> str:
        flag = "" if self.supported else \
            f", UNSUPPORTED: fewer than {MIN_BEYOND} beyond"
        return (f"p{self.q:g} = {self.value:.4f} {unit} "
                f"(n={self.count}, {self.beyond} beyond{flag})")


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return Percentile(q=q, value=ordered[rank - 1], count=len(ordered),
                      beyond=len(ordered) - rank)


@dataclass(frozen=True)
class Spread:
    """Median and quartiles of repeated runs of one metric."""

    median: float
    q1: float
    q3: float
    count: int

    @property
    def relative_iqr(self) -> float:
        """Quartile distance as a share of the median."""
        if self.median == 0:
            return 0.0 if self.q3 == self.q1 else math.inf
        return (self.q3 - self.q1) / abs(self.median)


def spread(values: Sequence[float]) -> Spread:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives
    them (the exclusive method); one value is its own quartiles."""
    if not values:
        raise ValueError("spread of an empty sample")
    if len(values) == 1:
        only = float(values[0])
        return Spread(only, only, only, 1)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Spread(median, q1, q3, len(values))
