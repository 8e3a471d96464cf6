"""Chain membership descriptors for the SRO/ERO protocols.

A :class:`ChainDescriptor` is an immutable snapshot of the chain's
membership: the ordered member list, plus which member currently serves
forwarded reads (``read_tail``).  Immutability matters for correctness:
in-flight :class:`~repro.protocols.messages.ChainUpdate` packets embed
the member list they were sequenced against, so a reconfiguration (new
descriptor version) never mutates what an in-flight packet sees.

During normal operation ``read_tail`` is the last member.  During
recovery (paper section 6.3) a new switch is appended and "starts to
process writes, but does not replace the tail": commit acks come from
the new last member, while forwarded reads keep going to the old tail
until catch-up completes and the controller promotes the new member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["ChainDescriptor"]


@dataclass(frozen=True)
class ChainDescriptor:
    """One version of a chain's membership."""

    chain_id: int
    members: Tuple[str, ...]
    version: int = 0
    #: Index into ``members`` of the switch serving forwarded reads.
    #: None means "the last member" (the normal case).
    read_tail_index: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a chain must have at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in chain: {self.members}")
        if self.read_tail_index is not None and not (
            0 <= self.read_tail_index < len(self.members)
        ):
            raise ValueError("read_tail_index out of range")

    # ------------------------------------------------------------------
    @property
    def head(self) -> str:
        return self.members[0]

    @property
    def read_tail(self) -> str:
        """The member that serves forwarded reads."""
        if self.read_tail_index is None:
            return self.members[-1]
        return self.members[self.read_tail_index]

    def __contains__(self, node: str) -> bool:
        return node in self.members

    def __len__(self) -> int:
        return len(self.members)

    # ------------------------------------------------------------------
    # Reconfiguration (each returns a new, higher-version descriptor)
    # ------------------------------------------------------------------
    def without(self, node: str) -> "ChainDescriptor":
        """Remove a failed member, repairing the chain (section 6.3)."""
        if node not in self.members:
            return self
        members = tuple(m for m in self.members if m != node)
        return ChainDescriptor(
            chain_id=self.chain_id,
            members=members,
            version=self.version + 1,
            read_tail_index=None,
        )

    def with_appended(self, node: str, promote_read_tail: bool = False) -> "ChainDescriptor":
        """Append a recovering switch at the end of the chain.

        While it catches up, the previous tail keeps serving reads
        (``read_tail_index`` pins it); pass ``promote_read_tail=True``
        (or call :meth:`promoted`) once catch-up completes.
        """
        if node in self.members:
            raise ValueError(f"{node} is already a chain member")
        members = self.members + (node,)
        return ChainDescriptor(
            chain_id=self.chain_id,
            members=members,
            version=self.version + 1,
            read_tail_index=None if promote_read_tail else len(self.members) - 1,
        )

    def promoted(self) -> "ChainDescriptor":
        """Promote the last member to read tail (catch-up finished)."""
        return ChainDescriptor(
            chain_id=self.chain_id,
            members=self.members,
            version=self.version + 1,
            read_tail_index=None,
        )
