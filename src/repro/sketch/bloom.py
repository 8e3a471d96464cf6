"""Bloom filter.

Used by the IPS (paper section 4.1) to match packet signatures against
the known-suspicious set entirely in the data plane: membership tests
are cheap, false positives cause at worst extra drops (acceptable for an
IPS), and the bit-array representation maps directly onto switch
register arrays.

The filter is mergeable by bitwise OR — idempotent and commutative, so
it replicates safely under EWO just like a CRDT.
"""

from __future__ import annotations

import hashlib
import math
from typing import Hashable, List

__all__ = ["BloomFilter"]


def _bit_hash(seed: int, index: int, key: Hashable, nbits: int) -> int:
    digest = hashlib.blake2b(
        repr(key).encode("utf-8"),
        digest_size=8,
        salt=seed.to_bytes(8, "big"),
        person=index.to_bytes(8, "big"),
    ).digest()
    return int.from_bytes(digest, "big") % nbits


class BloomFilter:
    """A fixed-size Bloom filter with seeded hashing."""

    def __init__(self, nbits: int = 8192, num_hashes: int = 3, seed: int = 0) -> None:
        if nbits <= 0 or num_hashes <= 0:
            raise ValueError("filter dimensions must be positive")
        self.nbits = nbits
        self.num_hashes = num_hashes
        self.seed = seed
        self._bits: List[bool] = [False] * nbits
        self.items_added = 0

    @classmethod
    def for_capacity(cls, capacity: int, fp_rate: float = 0.01, seed: int = 0) -> "BloomFilter":
        """Size a filter for ``capacity`` items at ``fp_rate`` false positives."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        nbits = max(8, int(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        num_hashes = max(1, round(nbits / capacity * math.log(2)))
        return cls(nbits=nbits, num_hashes=num_hashes, seed=seed)

    def add(self, key: Hashable) -> None:
        self.items_added += 1
        for index in range(self.num_hashes):
            self._bits[_bit_hash(self.seed, index, key, self.nbits)] = True

    def __contains__(self, key: Hashable) -> bool:
        return all(
            self._bits[_bit_hash(self.seed, index, key, self.nbits)]
            for index in range(self.num_hashes)
        )

    def merge_or(self, other: "BloomFilter") -> bool:
        """Bitwise-OR merge; returns True if any bit was newly set."""
        if (self.nbits, self.num_hashes, self.seed) != (other.nbits, other.num_hashes, other.seed):
            raise ValueError("cannot merge incompatible Bloom filters")
        changed = False
        for i, bit in enumerate(other._bits):
            if bit and not self._bits[i]:
                self._bits[i] = True
                changed = True
        self.items_added = max(self.items_added, other.items_added)
        return changed

    def fill_ratio(self) -> float:
        return sum(self._bits) / self.nbits

    def copy(self) -> "BloomFilter":
        duplicate = BloomFilter(self.nbits, self.num_hashes, self.seed)
        duplicate._bits = list(self._bits)
        duplicate.items_added = self.items_added
        return duplicate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.nbits == other.nbits
            and self.num_hashes == other.num_hashes
            and self.seed == other.seed
            and self._bits == other._bits
        )
