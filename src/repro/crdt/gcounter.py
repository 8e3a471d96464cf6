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

from typing import List, Tuple

__all__ = ["GCounter"]


class GCounter:
    """State-based grow-only counter over a fixed replica group (an EWO
    cell: see ``repro.crdt`` for the four shared methods)."""

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

    def entries(self) -> List[Tuple[int, int]]:
        """Full state as wire entries: every non-zero slot, ascending."""
        return [(slot, value) for slot, value in enumerate(self._vector) if value]

    def vector(self) -> List[int]:
        """A copy of the state vector."""
        return list(self._vector)

    def canonical(self) -> Tuple[int, ...]:
        """Immutable form for digesting: the vector, frozen."""
        return tuple(self._vector)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<GCounter slot={self.my_slot} value={self.value()} vec={self._vector}>"
