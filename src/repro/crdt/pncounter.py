"""Positive-negative counter (PN-Counter) CRDT.

Paper section 6.2: "Further extensions support decrement operations."
A PN-Counter is the standard such extension: two G-Counter vectors, one
accumulating increments and one accumulating decrements; the value is
their difference.  NFs use this for state like "currently open
connections" where entries are both added and removed.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.crdt.gcounter import GCounter

__all__ = ["PNCounter"]


class PNCounter:
    """State-based counter supporting increment and decrement."""

    def __init__(self, num_replicas: int, my_slot: int, slot_width_bytes: int = 8) -> None:
        self._positive = GCounter(num_replicas, my_slot, slot_width_bytes)
        self._negative = GCounter(num_replicas, my_slot, slot_width_bytes)
        self.num_replicas = num_replicas
        self.my_slot = my_slot

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("use decrement() for negative deltas")
        self._positive.increment(amount)

    def decrement(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("decrement amount must be non-negative")
        self._negative.increment(amount)

    def value(self) -> int:
        return self._positive.value() - self._negative.value()

    def merge(self, other_state: Tuple[List[int], List[int]]) -> bool:
        """Merge a remote (positive, negative) vector pair."""
        positive, negative = other_state
        changed_p = self._positive.merge(positive)
        changed_n = self._negative.merge(negative)
        return changed_p or changed_n

    def state(self) -> Tuple[List[int], List[int]]:
        """(positive, negative) vectors — the on-wire state."""
        return (self._positive.vector(), self._negative.vector())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PNCounter):
            return NotImplemented
        return self.state() == other.state()

    def __repr__(self) -> str:
        return f"<PNCounter slot={self.my_slot} value={self.value()}>"
