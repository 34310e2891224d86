"""Exact moment sums of integer cluster sizes, and the estimates they give.

Each replicate's cluster size S is an integer, so the Monte Carlo estimates
of E(S) and E(S^2), with their standard errors, depend only on the exact
sums n, ΣS, ΣS² and ΣS⁴.  They are kept as Python ints, so sums over any
grouping of the replicates, added in any order, are the same integers, and
an estimate depends only on the multiset of sizes it was given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RunningMoments"]


@dataclass
class RunningMoments:
    """Count and exact power sums of the integer sizes added so far.

    ``s1``, ``s2`` and ``s4`` are ΣS, ΣS² and ΣS⁴.  Each mean is an exact
    int over ``count``, which Python's true division rounds correctly; each
    standard error is the square root of its exact variance over ``count``,
    rounded once before the root.
    """

    count: int = 0
    s1: int = 0
    s2: int = 0
    s4: int = 0

    def add_batch(self, sizes: np.ndarray) -> None:
        """Add the non-negative integer ``sizes``.

        Their histogram gives the sums as int64 dot products while their
        count times their largest value to the fourth stays below 2^63, so
        no sum can wrap, and as Python ints over the nonzero bins past that.
        """
        n = sizes.size
        bins = np.bincount(sizes)
        if n * (bins.size - 1) ** 4 < 1 << 63:
            k = np.arange(bins.size, dtype=np.int64)
            k2 = k * k
            s1, s2, s4 = int(bins @ k), int(bins @ k2), int(bins @ (k2 * k2))
        else:
            values = np.flatnonzero(bins)
            pairs = list(zip(bins[values].tolist(), values.tolist()))
            s1 = sum(c * k for c, k in pairs)
            s2 = sum(c * k * k for c, k in pairs)
            s4 = sum(c * (k * k) ** 2 for c, k in pairs)
        self.count += n
        self.s1 += s1
        self.s2 += s2
        self.s4 += s4

    def merge(self, other: "RunningMoments") -> None:
        self.count += other.count
        self.s1 += other.s1
        self.s2 += other.s2
        self.s4 += other.s4

    @property
    def mean_s(self) -> float:
        return self.s1 / self.count

    @property
    def mean_s2(self) -> float:
        return self.s2 / self.count

    @property
    def se_s(self) -> float:
        return self._standard_error(self.s1, self.s2)

    @property
    def se_s2(self) -> float:
        return self._standard_error(self.s2, self.s4)

    def _standard_error(self, total: int, squares: int) -> float:
        """sqrt of the unbiased variance over ``count`` of values with these two sums.

        (n Σx² − (Σx)²) / (n² (n − 1)), an exact non-negative rational
        until the one rounding of the division; 0 below two values.
        """
        n = self.count
        if n < 2:
            return 0.0
        return math.sqrt((n * squares - total * total) / (n * n * (n - 1)))
