"""Entropy estimation for the heavy-hitter / DDoS analysis.

:func:`empirical_entropy` is the Shannon entropy of an observed
frequency distribution.  The DDoS detector the paper cites (Lapolli et
al.) flags attacks by the characteristic entropy shift of
source/destination IP distributions: a DDoS collapses destination
entropy (one victim) while source entropy rises (many bots).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable

__all__ = ["empirical_entropy", "normalized_entropy"]


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
