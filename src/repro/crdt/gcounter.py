"""Grow-only counter (G-Counter) CRDT.

Paper section 6.2: "An increment-only counter can be implemented by
maintaining a vector of counter values, one per switch.  To update a
counter, a switch increments its own element; to read the result, it
sums all elements.  To merge updates from another switch, a switch
simply takes the larger of the local and received value for each
element."

The representation matches the paper's in-switch layout: a dense vector
indexed by replica slot (one register array per switch in the replica
group, section 7), not a sparse map.  ``slot_width_bytes`` sizes each
element for memory and message accounting.
"""

from __future__ import annotations

from typing import Iterable, List

__all__ = ["GCounter"]


class GCounter:
    """State-based grow-only counter over a fixed replica group."""

    def __init__(self, num_replicas: int, my_slot: int, slot_width_bytes: int = 8) -> None:
        if num_replicas <= 0:
            raise ValueError("replica group must be non-empty")
        if not 0 <= my_slot < num_replicas:
            raise ValueError(f"slot {my_slot} out of range for group of {num_replicas}")
        self.num_replicas = num_replicas
        self.my_slot = my_slot
        self.slot_width_bytes = slot_width_bytes
        self._vector: List[int] = [0] * num_replicas

    # ------------------------------------------------------------------
    def increment(self, amount: int = 1) -> None:
        """Add to this replica's own element.  Negative amounts are illegal."""
        if amount < 0:
            raise ValueError("G-Counter cannot decrement; use PNCounter")
        self._vector[self.my_slot] += amount

    def value(self) -> int:
        """The counter's value: the sum of all elements."""
        return sum(self._vector)

    def local_value(self) -> int:
        """This replica's own contribution."""
        return self._vector[self.my_slot]

    # ------------------------------------------------------------------
    def merge(self, other_vector: Iterable[int]) -> bool:
        """Element-wise max merge.  Returns True if any element advanced."""
        changed = False
        for index, remote in enumerate(other_vector):
            if index >= self.num_replicas:
                raise ValueError("merge vector longer than replica group")
            if remote > self._vector[index]:
                self._vector[index] = remote
                changed = True
        return changed

    def vector(self) -> List[int]:
        """A copy of the state vector (what goes on the wire)."""
        return list(self._vector)

    def apply_slot(self, slot: int, value: int) -> bool:
        """Merge a single remote element (incremental EWO_UPDATE)."""
        if not 0 <= slot < self.num_replicas:
            raise ValueError(f"slot {slot} out of range")
        if value > self._vector[slot]:
            self._vector[slot] = value
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def state_bytes(self) -> int:
        """In-switch footprint of the full vector."""
        return self.num_replicas * self.slot_width_bytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GCounter):
            return NotImplemented
        return self._vector == other._vector

    def __repr__(self) -> str:
        return f"<GCounter slot={self.my_slot} value={self.value()} vec={self._vector}>"
