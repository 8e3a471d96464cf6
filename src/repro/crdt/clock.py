"""Logical and physical clocks for last-writer-wins ordering.

Paper section 6.2: "Unique version numbers can be obtained by using a
switch ID as a tie breaker in addition to a timestamp attached to each
write request.  The timestamp can be a Lamport clock or a realtime
clock, which can be synchronized among the switches down to tens of
nanoseconds."

The engine runs on one clock type, :class:`HybridClock`: a per-switch
physical clock with a bounded, seeded offset from true simulation time
(modeling DPTP-style data-plane time sync, tens of nanoseconds of skew)
plus a logical component that guarantees strict monotonicity even under
that skew.

It produces :class:`Timestamp` values totally ordered by
``(time, logical, node_id)`` — the node id is the paper's switch-ID tie
breaker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["Timestamp", "HybridClock"]


@dataclass(frozen=True, order=True)
class Timestamp:
    """A totally ordered version stamp: (time, logical, node_id)."""

    time: float
    logical: int
    node_id: int

    #: bytes on the wire: 48-bit time + 16-bit logical + 16-bit node id
    wire_size = 10

    def __str__(self) -> str:
        return f"{self.time * 1e6:.3f}us/{self.logical}@{self.node_id}"


class HybridClock:
    """Hybrid logical clock: physical time + logical fixups.

    Guarantees that successive local stamps are strictly increasing and
    that stamps causally after a received message compare greater than
    it, even when the physical clock lags.
    """

    def __init__(
        self,
        node_id: int,
        read_true_time: Callable[[], float],
        offset: float = 0.0,
    ) -> None:
        self.node_id = node_id
        self._read_true_time = read_true_time
        self.offset = offset
        self._last_time = 0.0
        self._logical = 0

    def now(self) -> Timestamp:
        physical = self._read_true_time() + self.offset
        if physical > self._last_time:
            self._last_time = physical
            self._logical = 0
        else:
            self._logical += 1
        return Timestamp(self._last_time, self._logical, self.node_id)

    def witness(self, remote: Timestamp) -> None:
        if remote.time > self._last_time:
            self._last_time = remote.time
            self._logical = remote.logical
        elif remote.time == self._last_time:
            self._logical = max(self._logical, remote.logical)
