"""Seeded randomness for deterministic experiments.

All stochastic behavior in the reproduction — link loss, ECMP hashing
salt, workload inter-arrivals, Zipf draws, failure-injection times —
draws from named streams derived from a single experiment seed.  Named
streams keep components independent: adding a new consumer of randomness
does not perturb the draws seen by existing components, so experiment
results stay comparable across code revisions.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["SeededRng", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from a root seed and a stream name.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (``hash()`` is salted per-process and unsuitable).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRng:
    """A registry of independent named random streams.

    >>> rng = SeededRng(seed=42)
    >>> loss = rng.stream("link-loss")
    >>> workload = rng.stream("workload")

    Streams are created lazily and cached; asking for the same name twice
    returns the same :class:`random.Random` instance.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the named stream, creating it deterministically if new."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.seed, name))
        return self._streams[name]
