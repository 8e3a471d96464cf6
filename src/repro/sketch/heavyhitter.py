"""Heavy-hitter tracking and entropy estimation.

Two analysis primitives built on the count-min sketch:

* :class:`HeavyHitterTracker` — keeps the top-k keys by estimated
  frequency (Space-Saving-style candidate set validated against the
  sketch).  Used by the distributed heavy-hitter discussion in the
  paper's related work and by the DDoS detector's per-source analysis.

* :func:`empirical_entropy` — Shannon entropy of an observed frequency
  distribution.  The DDoS detector the paper cites (Lapolli et al.)
  flags attacks by the characteristic entropy shift of source/destination
  IP distributions: a DDoS collapses destination entropy (one victim)
  while source entropy rises (many bots).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Tuple

from repro.sketch.countmin import CountMinSketch

__all__ = ["HeavyHitterTracker", "empirical_entropy", "normalized_entropy"]


def empirical_entropy(counts: Dict[Hashable, int]) -> float:
    """Shannon entropy (bits) of a frequency table.  Empty -> 0."""
    total = sum(counts.values())
    if total <= 0:
        return 0.0
    entropy = 0.0
    for count in counts.values():
        if count <= 0:
            continue
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def normalized_entropy(counts: Dict[Hashable, int]) -> float:
    """Entropy normalized to [0, 1] by log2 of the support size."""
    support = sum(1 for c in counts.values() if c > 0)
    if support <= 1:
        return 0.0
    return empirical_entropy(counts) / math.log2(support)


class HeavyHitterTracker:
    """Top-k frequency tracking backed by a count-min sketch.

    The sketch absorbs the unbounded key space; the tracker keeps an
    exact candidate table of size ``k`` (the in-switch analogue is a
    small register-backed table).  On update, a key whose estimate
    exceeds the smallest candidate evicts it.
    """

    def __init__(self, k: int = 16, sketch: CountMinSketch = None, seed: int = 0) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.sketch = sketch if sketch is not None else CountMinSketch(seed=seed)
        self._candidates: Dict[Hashable, int] = {}

    def add(self, key: Hashable, count: int = 1) -> None:
        self.sketch.add(key, count)
        estimate = self.sketch.estimate(key)
        if key in self._candidates:
            self._candidates[key] = estimate
            return
        if len(self._candidates) < self.k:
            self._candidates[key] = estimate
            return
        weakest_key = min(self._candidates, key=lambda x: (self._candidates[x], repr(x)))
        if estimate > self._candidates[weakest_key]:
            del self._candidates[weakest_key]
            self._candidates[key] = estimate

    def top(self, n: int = None) -> List[Tuple[Hashable, int]]:
        """The heaviest candidates, descending by estimated count."""
        ordered = sorted(self._candidates.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        return ordered if n is None else ordered[:n]

    def __contains__(self, key: Hashable) -> bool:
        return key in self._candidates
