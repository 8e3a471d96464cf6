"""Last-writer-wins register.

Paper section 6.2: "In LWW, each register is associated with a version
number.  The merge function accepts an update from another switch only
for the version numbers larger than the local one."

The version is a :class:`~repro.crdt.clock.Timestamp`, totally ordered
by (time, logical, switch-id) — the switch id being the paper's tie
breaker.  LWW provides eventual consistency but, as the paper notes,
"until it converges there may be inconsistent behavior"; the EWO
experiments measure exactly that window.
"""

from __future__ import annotations

from operator import itemgetter, methodcaller
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crdt.clock import Timestamp

__all__ = ["LwwRegister"]

#: Below every real stamp, under a node id no switch has (``written``).
_ZERO = Timestamp(float("-inf"), 0, -1)

#: ``cell.entries()``, and the entries of a ``(key, entries)`` pair.
_CELL_ENTRIES = methodcaller("entries")
_ENTRIES = itemgetter(1)


def _written(cell: "LwwRegister") -> bool:
    """Whether any write, local or merged, ever landed in ``cell``;
    until then the cell is not gossiped, digested or promoted."""
    return cell._version.node_id >= 0


class LwwRegister:
    """A single last-writer-wins cell: (value, version) — an EWO cell
    (see ``repro.crdt`` for the shared methods)."""

    __slots__ = ("_value", "_version")

    def __init__(self, initial: Any = None) -> None:
        self._value = initial
        self._version: Timestamp = _ZERO

    written = property(_written)

    def read(self) -> Any:
        return self._value

    def write(self, value: Any, version: Timestamp) -> None:
        """Local write: the caller supplies a fresh clock stamp."""
        if not version > self._version:
            raise ValueError(
                f"local write version {version} does not advance past {self._version}; "
                "the clock must be strictly monotone"
            )
        self._value = value
        self._version = version

    def apply(self, version: Timestamp, value: Any) -> bool:
        """Merge one wire entry ``(version, value)``: accept strictly
        newer versions.  Returns True when the remote write won.

        Equal versions are impossible across distinct switches under
        correct operation (node id is part of the order), so an equal
        stamp is re-delivery of our own write — or a *corrupted* replica
        holding another value under it (a bit-flip leaves the version
        intact).  The local value stays: gossip cannot tell which side
        is corrupt, so it spreads neither; the scrubber's vote decides
        (:meth:`repair`).
        """
        if version > self._version:
            self._value = value
            self._version = version
            return True
        return False

    def repair(self, version: Timestamp, value: Any) -> bool:
        """Apply a scrub repair the vote decided: overwrite at a version
        at least our own, so an equal-stamp corruption is replaced and a
        newer local write is kept.  True when the cell changed."""
        if version < self._version:
            return False
        changed = version > self._version or value != self._value
        self._value = value
        self._version = version
        return changed

    @staticmethod
    def merge_section(
        replica: Any,
        entries: Sequence[Any],
        origin_slot: Optional[int],
        outcomes: Optional[List[Tuple[Any, bool]]],
    ) -> int:
        """Merge one received section into ``replica.cells``, entry by
        entry through :meth:`apply`; returns the entries that won.  The
        hybrid clock is per switch, not per cell: each stamp is witnessed
        first, so the next local write beats what was just seen.  An
        unseen key gets its cell even if the merge is stale.
        ``outcomes``, when a list, gets ``(key, won)`` per entry, in
        entry order."""
        cells = replica.cells
        witness = replica.clock.witness
        applied = 0
        for entry in entries:
            key = entry.key
            version = entry.version
            if type(version) is Timestamp:
                witness(version)
            cell = cells.get(key)
            if cell is None:
                cell = replica.add_cell(key, replica.new_cell())
            merged = cell.apply(version, entry.value)
            if merged:
                applied += 1
            if outcomes is not None:
                outcomes.append((key, merged))
        return applied

    @staticmethod
    def digest(cells: Dict[Any, "LwwRegister"], keys: Sequence[Any]) -> Tuple[Tuple[Any, Tuple[Any, ...]], ...]:
        """``(key, entries)`` for each of ``keys`` (in that order) that
        was ever written, built in C."""
        return tuple(filter(_ENTRIES, zip(
            keys, map(tuple, map(_CELL_ENTRIES, map(cells.__getitem__, keys)))
        )))

    @staticmethod
    def sync_entries(cells: Dict[Any, "LwwRegister"], keys: Sequence[Any]) -> List[Tuple[Any, Timestamp, Any]]:
        """A sync answer for ``keys`` (in that order): ``(key, version,
        value)`` for each of each key's :meth:`entries`."""
        return [
            (key, cell._version, cell._value)
            for key, cell in zip(keys, map(cells.__getitem__, keys))
            if _written(cell)
        ]

    def entries(self) -> List[Tuple[Timestamp, Any]]:
        """Full state as wire entries: the one write, once written."""
        return [(self._version, self._value)] if self.written else []

    def canonical(self) -> Optional[Tuple[Any, Timestamp]]:
        """Immutable form for digesting; None while never written."""
        return (self._value, self._version) if self.written else None

    def __repr__(self) -> str:
        return f"<LwwRegister {self._value!r} @ {self._version}>"
