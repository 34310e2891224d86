"""One-pass mean/variance accumulation with exact parallel merging."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RunningMoments"]


@dataclass
class RunningMoments:
    """Streaming mean and sum of squared deviations (Welford/Chan form).

    ``merge`` uses the pairwise combination rule, so partials accumulated
    over disjoint chunks and merged in a fixed order reproduce the direct
    single-pass result bit for bit.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add_batch(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        n = values.size
        if n == 0:
            return
        mean = values.mean()
        self.merge(RunningMoments(n, float(mean), float(((values - mean) ** 2).sum())))

    def merge(self, other: "RunningMoments") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return
        n = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / n
        self.m2 += other.m2 + delta * delta * self.count * other.count / n
        self.count = n

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 for fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def standard_error(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.variance / self.count)
