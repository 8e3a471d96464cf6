"""Count-min sketch.

The DDoS detector of Table 1 tracks "the frequency of source and
destination IPs using approximate sketch data structures" updated and
read on every packet.  A count-min sketch is the standard choice: a
``depth x width`` matrix of counters, one hash function per row.

The distributed detector does not merge sketch objects: it stores the
sketch's *cells* in EWO counter registers addressed with
:func:`row_hash` (``nf/ddos.py``), so each switch's share of a cell is a
G-Counter slot and the sum is taken on read.  This class is the local,
single-owner sketch (the access profiler's tail counts): ``add`` bumps a
key and returns its estimate from the same pass over the rows, so
counting and asking hash each row once; ``add(key, 0)`` only asks.

Hashing is seeded and deterministic across runs.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, List

__all__ = ["CountMinSketch", "row_hash"]


def row_hash(seed: int, row: int, key: Hashable, width: int) -> int:
    """The sketch's per-row column index for ``key`` — public so in-switch
    programs can address sketch *cells* stored in shared register arrays
    (one key per cell) with the same hashing as this class."""
    digest = hashlib.blake2b(
        repr(key).encode("utf-8"), digest_size=8, salt=seed.to_bytes(8, "big"), person=row.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest, "big") % width


class CountMinSketch:
    """A depth x width count-min sketch with seeded hashing."""

    def __init__(self, depth: int = 4, width: int = 1024, seed: int = 0) -> None:
        if depth <= 0 or width <= 0:
            raise ValueError("sketch dimensions must be positive")
        self.depth = depth
        self.width = width
        self.seed = seed
        self._rows: List[List[int]] = [[0] * width for _ in range(depth)]
        self.items_added = 0

    # ------------------------------------------------------------------
    def add(self, key: Hashable, count: int = 1) -> int:
        """Add ``count`` to ``key`` and return its estimate afterwards —
        an overestimate, never an underestimate — from the one pass over
        the rows; ``add(key, 0)`` is the point query."""
        if count < 0:
            raise ValueError("count-min cannot remove items")
        self.items_added += count
        seed, width = self.seed, self.width
        estimate = -1
        for row, cells in enumerate(self._rows):
            column = row_hash(seed, row, key, width)
            value = cells[column] = cells[column] + count
            if value < estimate or estimate < 0:
                estimate = value
        return estimate
