"""Grow-only counter (G-Counter) CRDT.

Paper section 6.2: "An increment-only counter can be implemented by
maintaining a vector of counter values, one per switch.  To update a
counter, a switch increments its own element; to read the result, it
sums all elements.  To merge updates from another switch, a switch
simply takes the larger of the local and received value for each
element."

The representation matches the paper's in-switch layout: a dense vector
indexed by replica slot (one register array per switch in the replica
group, section 7), not a sparse map.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.crdt.clock import Timestamp

__all__ = ["GCounter"]

_VECTOR = attrgetter("_vector")


def _slot_entries(vector: List[int]) -> Iterator[Tuple[int, int]]:
    """A counter vector's wire entries: every non-zero slot, ascending."""
    return compress(enumerate(vector), vector)


class GCounter:
    """State-based grow-only counter over a fixed replica group (an EWO
    cell: see ``repro.crdt`` for the shared methods)."""

    __slots__ = ("num_replicas", "my_slot", "_vector")

    def __init__(self, num_replicas: int, my_slot: int) -> None:
        if num_replicas <= 0:
            raise ValueError("replica group must be non-empty")
        if not 0 <= my_slot < num_replicas:
            raise ValueError(f"slot {my_slot} out of range for group of {num_replicas}")
        self.num_replicas = num_replicas
        self.my_slot = my_slot
        self._vector: List[int] = [0] * num_replicas

    # ------------------------------------------------------------------
    def increment(self, amount: int = 1) -> int:
        """Add to this replica's own element; returns its new value.
        Negative amounts are illegal: a peer's max-merge undoes them."""
        if amount < 0:
            raise ValueError(f"a grow-only counter cannot decrement (got {amount})")
        self._vector[self.my_slot] += amount
        return self._vector[self.my_slot]

    def read(self) -> int:
        """The counter's value: the sum of all elements."""
        return sum(self._vector)

    value = read

    # ------------------------------------------------------------------
    def apply(self, slot: int, value: int) -> bool:
        """Merge one remote element; True if it advanced.  A slot that
        is not an index into this replica group is a ValueError."""
        if not isinstance(slot, int) or not 0 <= slot < self.num_replicas:
            raise ValueError(f"slot {slot!r} out of range for group of {self.num_replicas}")
        if value > self._vector[slot]:
            self._vector[slot] = value
            return True
        return False

    #: A decided scrub repair max-merges too: a downward flip never wins it.
    repair = apply

    @staticmethod
    def merge_section(
        replica: Any,
        entries: Sequence[Any],
        origin_slot: Optional[int],
        outcomes: Optional[List[Tuple[Any, bool]]],
    ) -> int:
        """Merge one received section into ``replica.cells``: each
        entry's value is maxed into its key's vector at its slot, with
        exactly :meth:`apply`'s slot check, and no frame per entry.
        Returns the entries that advanced a slot.

        An entry naming no slot (``version`` None) is at
        ``origin_slot``.  A malformed entry — a slot that is no int index
        into the group (``origin_slot`` None: the origin is not a
        member) — is stale and names nothing; an unseen key gets its cell
        from any other entry, stale or not.  ``outcomes``, when a list,
        gets ``(key, advanced)`` per entry, in entry order."""
        cells = replica.cells
        applied = 0
        for entry in entries:
            key = entry.key
            slot = entry.version
            if slot is None:
                slot = origin_slot
            try:
                cell = cells[key]
                unseen = False
            except KeyError:
                cell = replica.new_cell()
                unseen = True
            # apply's check; the type test spares a plain int the call
            if (type(slot) is int or isinstance(slot, int)) and 0 <= slot < cell.num_replicas:
                vector = cell._vector
                value = entry.value
                if value > vector[slot]:
                    vector[slot] = value
                    applied += 1
                    merged = True
                else:
                    merged = False
                if unseen:
                    replica.add_cell(key, cell)
            else:
                if type(slot) is Timestamp:  # any stamp that arrives is seen
                    replica.clock.witness(slot)
                merged = False
            if outcomes is not None:
                outcomes.append((key, merged))
        return applied

    @staticmethod
    def digest(cells: Dict[Any, "GCounter"], keys: Sequence[Any]) -> Tuple[Tuple[Any, Tuple[int, ...]], ...]:
        """``(key, frozen vector)`` for each of ``keys`` (in that order)
        with a non-zero slot, built in C.  A group's replicas share its
        member list, so their vectors have one length, and two of these
        are equal exactly when the ``entries()`` of those keys are."""
        vectors = tuple(map(tuple, map(_VECTOR, map(cells.__getitem__, keys))))
        return tuple(compress(zip(keys, vectors), map(any, vectors)))

    @staticmethod
    def sync_entries(cells: Dict[Any, "GCounter"], keys: Sequence[Any]) -> List[Tuple[Any, int, int]]:
        """A sync answer for ``keys`` (in that order): ``(key, slot,
        value)`` for each of each key's :meth:`entries`."""
        return [
            (key, slot, value)
            for key, vector in zip(keys, map(_VECTOR, map(cells.__getitem__, keys)))
            for slot, value in _slot_entries(vector)
        ]

    def entries(self) -> List[Tuple[int, int]]:
        """Full state as wire entries: every non-zero slot, ascending."""
        return list(_slot_entries(self._vector))

    def vector(self) -> List[int]:
        """A copy of the state vector."""
        return list(self._vector)

    def canonical(self) -> Tuple[int, ...]:
        """Immutable form for digesting: the vector, frozen."""
        return tuple(self._vector)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<GCounter slot={self.my_slot} value={self.value()} vec={self._vector}>"
