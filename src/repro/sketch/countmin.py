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
A tail is a few hundred keys seen over and over, so ``add`` remembers
each key's columns in a :class:`ColumnMemo` — by the key's ``repr``
(the text ``row_hash`` hashes), for up to :data:`MEMO_LIMIT` keys; a
full memo starts over.  The DDoS detector addresses its shared cells
through the same memo.

Hashing is seeded and deterministic across runs.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Any, Callable, Hashable, List, Tuple

__all__ = ["ColumnMemo", "CountMinSketch", "MEMO_LIMIT", "row_hash"]

#: Keys whose columns one sketch remembers at most (a few hundred bytes
#: each).
MEMO_LIMIT = 1024


def row_hash(seed: int, row: int, key: Hashable, width: int) -> int:
    """The sketch's per-row column index for ``key`` — public so in-switch
    programs can address sketch *cells* stored in shared register arrays
    (one key per cell) with the same hashing as this class."""
    digest = hashlib.blake2b(
        repr(key).encode("utf-8"), digest_size=8, salt=seed.to_bytes(8, "big"), person=row.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest, "big") % width


class ColumnMemo(dict):
    """``repr(key)`` -> ``build(key)``, what a sketch user makes of one
    key's ``row_hash`` columns, kept for at most :data:`MEMO_LIMIT`
    keys: a full memo starts over.  Keyed by ``repr`` because that is
    what ``row_hash`` hashes (``1``, ``1.0`` and ``True`` are equal keys
    with different columns).  A hit is a lookup, ``memo.get(text)``; a
    miss is ``memo.fill(text, key)``.  A cache, not state."""

    __slots__ = ("build",)

    def __init__(self, build: Callable[[Hashable], Any]) -> None:
        super().__init__()
        self.build = build

    def fill(self, text: str, key: Hashable) -> Any:
        """Build and remember ``key``'s value (``text`` is its ``repr``)."""
        if len(self) >= MEMO_LIMIT:
            self.clear()
        value = self[text] = self.build(key)
        return value


def _columns(seed: int, depth: int, width: int, key: Hashable) -> Tuple[int, ...]:
    """``key``'s column in each of ``depth`` rows."""
    return tuple(row_hash(seed, row, key, width) for row in range(depth))


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
        #: repr(key) -> the key's column in each row.
        self._columns = ColumnMemo(partial(_columns, seed, depth, width))

    # ------------------------------------------------------------------
    def add(self, key: Hashable, count: int = 1) -> int:
        """Add ``count`` to ``key`` and return its estimate afterwards —
        an overestimate, never an underestimate — from the one pass over
        the rows; ``add(key, 0)`` is the point query."""
        if count < 0:
            raise ValueError("count-min cannot remove items")
        self.items_added += count
        text = repr(key)
        columns = self._columns.get(text) or self._columns.fill(text, key)
        estimate = -1
        for column, cells in zip(columns, self._rows):
            value = cells[column] = cells[column] + count
            if value < estimate or estimate < 0:
                estimate = value
        return estimate
