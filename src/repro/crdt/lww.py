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

from typing import Any, List, Optional, Tuple

from repro.crdt.clock import Timestamp

__all__ = ["LwwRegister"]

#: Below every real stamp, under a node id no switch has (``written``).
_ZERO = Timestamp(float("-inf"), 0, -1)


class LwwRegister:
    """A single last-writer-wins cell: (value, version) — an EWO cell
    (see ``repro.crdt`` for the four shared methods)."""

    __slots__ = ("_value", "_version")

    def __init__(self, initial: Any = None) -> None:
        self._value = initial
        self._version: Timestamp = _ZERO

    @property
    def written(self) -> bool:
        """Whether any write, local or merged, ever landed here; until
        then the cell is not gossiped, digested or promoted."""
        return self._version.node_id >= 0

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
        """Merge one wire entry ``(version, value)``: accept newer
        versions; break value ties on equal versions deterministically.

        Returns True when the remote write won.  Equal versions are
        impossible across distinct switches under correct operation
        (node id is part of the order), so idempotent re-delivery of our
        own write is a no-op — but a *corrupted* replica can hold a
        different value under the same stamp (a register bit-flip leaves
        the version intact).  Convergence must still be guaranteed, so
        an equal-version value conflict resolves to the larger
        ``repr``: every replica picks the same winner, and the
        anti-entropy scrubber's forced sync round heals the divergence
        instead of gossiping it forever.
        """
        if version > self._version:
            self._value = value
            self._version = version
            return True
        if version == self._version and value != self._value:
            if repr(value) > repr(self._value):
                self._value = value
                return True
        return False

    def entries(self) -> List[Tuple[Timestamp, Any]]:
        """Full state as wire entries: the one write, once written."""
        return [(self._version, self._value)] if self.written else []

    def canonical(self) -> Optional[Tuple[Any, Timestamp]]:
        """Immutable form for digesting; None while never written."""
        return (self._value, self._version) if self.written else None

    def __repr__(self) -> str:
        return f"<LwwRegister {self._value!r} @ {self._version}>"
