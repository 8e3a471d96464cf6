"""Pending-bit and sequence-number state for the SRO chain protocol.

Paper section 7: "Each switch has a register array with a sequence
number and an in-progress bit per entry.  Since this is relatively
small, current programmable switches could support over a million
entries; however, since these state elements only protect other state
updates, multiple keys can share the same sequence number and
in-progress bit, reducing state requirements further."

:class:`PendingTable` implements exactly that structure: ``slots``
entries, each holding

* ``next_seq`` — the head's per-slot write sequencer,
* ``applied_seq`` — the highest in-order sequence applied locally,
* a pending bit plus the sequence number that set it (so an ack for an
  older write cannot clear the bit set by a newer one).

Keys map to slots by a stable hash, so all chain members agree on the
mapping.  Sharing (``slots`` < number of live keys) trades memory for
**false sharing**: a read of key A is forwarded to the tail because key
B, hashing to the same slot, has a write in flight.  Experiment A1
quantifies that trade.
"""

from __future__ import annotations

import hashlib
from typing import Any, List

from repro.switch.memory import MemoryBudget

__all__ = ["PendingTable", "stable_slot_hash"]

#: Per-slot footprint: applied seq (4) + next seq (4) + pending seq (4)
#: + pending bit (1, byte-aligned).
_SLOT_BYTES = 13


def stable_slot_hash(key: Any, slots: int) -> int:
    """Deterministic key -> slot mapping, identical on every switch."""
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big") % slots


class PendingTable:
    """Per-register-group chain-protocol state on one switch."""

    def __init__(self, name: str, slots: int, budget: MemoryBudget) -> None:
        if slots <= 0:
            raise ValueError("pending table needs at least one slot")
        self.name = name
        self.slots = slots
        budget.allocate(f"pending:{name}", slots * _SLOT_BYTES)
        self.reset()

    def reset(self) -> None:
        """Every slot back to its power-on state (also a wiped restart)."""
        slots = self.slots
        self._next_seq: List[int] = [0] * slots
        self._applied_seq: List[int] = [0] * slots
        self._pending: List[bool] = [False] * slots
        self._pending_seq: List[int] = [0] * slots

    # ------------------------------------------------------------------
    def slot_of(self, key: Any) -> int:
        return stable_slot_hash(key, self.slots)

    # --- head-only sequencing -----------------------------------------
    def assign_seq(self, slot: int) -> int:
        """Head assigns the next per-slot sequence number."""
        self._next_seq[slot] += 1
        return self._next_seq[slot]

    def advance_next_seq(self, slot: int, seq: int) -> None:
        """A non-head that becomes head must sequence past what it saw."""
        if seq > self._next_seq[slot]:
            self._next_seq[slot] = seq

    # --- in-order application -----------------------------------------
    def applied_seq(self, slot: int) -> int:
        return self._applied_seq[slot]

    def is_next_in_order(self, slot: int, seq: int) -> bool:
        return seq == self._applied_seq[slot] + 1

    def mark_applied(self, slot: int, seq: int) -> None:
        if seq != self._applied_seq[slot] + 1:
            raise ValueError(
                f"{self.name}: applying seq {seq} out of order "
                f"(applied={self._applied_seq[slot]})"
            )
        self._applied_seq[slot] = seq
        self.advance_next_seq(slot, seq)

    def force_applied(self, slot: int, seq: int) -> None:
        """Snapshot recovery: jump the applied counter forward."""
        if seq > self._applied_seq[slot]:
            self._applied_seq[slot] = seq
            self.advance_next_seq(slot, seq)

    # --- pending bits ----------------------------------------------------
    def set_pending(self, slot: int, seq: int) -> None:
        self._pending[slot] = True
        if seq > self._pending_seq[slot]:
            self._pending_seq[slot] = seq

    def clear_pending(self, slot: int, seq: int) -> bool:
        """Clear the bit only if no newer write re-armed it.

        Returns True when the bit was actually cleared.
        """
        if self._pending[slot] and seq >= self._pending_seq[slot]:
            self._pending[slot] = False
            return True
        return False

    def is_pending(self, slot: int) -> bool:
        return self._pending[slot]

    def pending_count(self) -> int:
        return sum(self._pending)

    def clear_all(self) -> int:
        """Drop every pending bit; returns how many were set.

        Used when a group stops tracking pending bits (an SRO -> ERO
        re-level): reads no longer forward on in-flight writes, so a
        stale bit would only leak into ``pending_count`` reporting.
        """
        cleared = sum(self._pending)
        for slot in range(self.slots):
            self._pending[slot] = False
        return cleared

    # ------------------------------------------------------------------
    @property
    def state_bytes(self) -> int:
        return self.slots * _SLOT_BYTES
