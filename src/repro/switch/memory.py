"""Data-plane memory accounting.

The paper leans hard on memory scarcity: "~10 MB state available from
the data-plane" (section 1) and "the small switch memory is split
between pipeline stages" (section 2).  Every stateful object a program
allocates — register arrays, tables, meters, counters, and SwiShmem's
own protocol state (pending bits, sequence numbers, version vectors) —
charges bytes against a :class:`MemoryBudget`.  Exceeding the budget
raises :class:`OutOfSwitchMemory`, which is exactly the failure mode the
pending-bit-sharing ablation (experiment A1) explores.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["MemoryBudget", "OutOfSwitchMemory", "DEFAULT_SWITCH_MEMORY_BYTES"]

#: The paper's ~10 MB figure for data-plane accessible state.
DEFAULT_SWITCH_MEMORY_BYTES = 10 * 1024 * 1024


class OutOfSwitchMemory(MemoryError):
    """An allocation would exceed the switch's data-plane memory budget."""

    def __init__(self, requested: int, available: int, owner: str) -> None:
        super().__init__(
            f"allocation of {requested} bytes for {owner!r} exceeds remaining "
            f"switch memory ({available} bytes available)"
        )
        self.requested = requested
        self.available = available
        self.owner = owner


class MemoryBudget:
    """Tracks data-plane memory allocations on one switch."""

    def __init__(self, capacity_bytes: int = DEFAULT_SWITCH_MEMORY_BYTES) -> None:
        if capacity_bytes <= 0:
            raise ValueError("switch memory capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._allocations: Dict[str, int] = {}

    @property
    def used_bytes(self) -> int:
        return sum(self._allocations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def allocate(self, owner: str, nbytes: int) -> None:
        """Charge ``nbytes`` to ``owner``; raises :class:`OutOfSwitchMemory`."""
        if nbytes < 0:
            raise ValueError("cannot allocate a negative number of bytes")
        if nbytes > self.free_bytes:
            raise OutOfSwitchMemory(nbytes, self.free_bytes, owner)
        self._allocations[owner] = self._allocations.get(owner, 0) + nbytes

    def release(self, owner: str) -> int:
        """Release everything charged to ``owner``; returns bytes freed."""
        return self._allocations.pop(owner, 0)

    def utilization(self) -> float:
        """Fraction of the budget in use, in [0, 1]."""
        return self.used_bytes / self.capacity_bytes
