"""Zipf-distributed sampling.

Network workloads are skewed: a few flows, keys, or destinations take
most of the traffic.  :class:`ZipfSampler` draws indices ``0..n-1`` with
probability proportional to ``1 / (rank+1)**s`` using inverse-CDF
sampling over a precomputed table, which is exact and fast for the
population sizes experiments use (up to ~1e6).
"""

from __future__ import annotations

import bisect
import random
import warnings
from typing import List, Sequence, TypeVar

from repro.sim.random import derive_seed

__all__ = ["ZipfSampler"]

T = TypeVar("T")


class ZipfSampler:
    """Deterministic Zipf(s) sampler over ``n`` ranks."""

    def __init__(self, n: int, s: float = 1.0, rng: random.Random = None) -> None:
        if n <= 0:
            raise ValueError("population size must be positive")
        if s < 0:
            raise ValueError("Zipf exponent must be non-negative")
        self.n = n
        self.s = s
        if rng is None:
            # Two samplers built without an rng used to share
            # random.Random(0) draws, correlating supposedly independent
            # workloads in one scenario.  Callers should pass a stream
            # from SeededRng.stream(); the fallback stays only for old
            # call sites and now derives a named seed so it is at least
            # uncorrelated with other derived streams.
            warnings.warn(
                "ZipfSampler() without rng= is deprecated; pass a derived "
                "stream from repro.sim.random.SeededRng.stream()",
                DeprecationWarning,
                stacklevel=2,
            )
            rng = random.Random(derive_seed(0, "zipf-sampler-default"))
        self._rng = rng
        weights = [1.0 / (rank + 1) ** s for rank in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        cumulative = 0.0
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self) -> int:
        """Draw one rank (0 is the most popular)."""
        return bisect.bisect_left(self._cdf, self._rng.random())

    def pick(self, items: Sequence[T]) -> T:
        """Draw from a sequence whose order defines popularity rank."""
        if len(items) != self.n:
            raise ValueError(f"expected {self.n} items, got {len(items)}")
        return items[self.sample()]
