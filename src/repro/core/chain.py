"""Chain membership descriptors for the SRO/ERO protocols.

A :class:`ChainDescriptor` is an immutable snapshot of the chain's
membership: the ordered member list, plus which members are still
catching up.  Immutability matters for correctness: in-flight
:class:`~repro.protocols.messages.ChainUpdate` packets embed the member
list they were sequenced against, so a reconfiguration (new descriptor
version) never mutates what an in-flight packet sees.

During recovery (paper section 6.3) a new switch is appended and
"starts to process writes, but does not replace the tail": commit acks
come from the new last member, while forwarded reads go to the last
member *not* catching up (``read_tail``), the one that holds every
commit.  The descriptor is the one record of who is catching up: a
switch reads its own status off the descriptor it installed, and a new
controller leader reads it off the descriptors the switches report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ChainDescriptor"]


@dataclass(frozen=True)
class ChainDescriptor:
    """One version of a chain's membership."""

    chain_id: int
    members: Tuple[str, ...]
    version: int = 0
    #: Members appended by a recovery whose catch-up has not finished,
    #: in append order.  A set rather than a prefix boundary: a member
    #: appended later may finish first, and only a set records that
    #: without reordering the chain.
    catching_up: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a chain must have at least one member")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in chain: {self.members}")
        if not set(self.catching_up) < set(self.members):
            raise ValueError(
                f"catching_up {self.catching_up} must be a proper subset of"
                f" the members {self.members}"
            )

    # ------------------------------------------------------------------
    @property
    def head(self) -> str:
        return self.members[0]

    @property
    def read_tail(self) -> str:
        """The member that serves forwarded reads: the last one not
        catching up (``__post_init__`` guarantees there is one)."""
        members, catching_up = self.members, self.catching_up
        last = -1
        while members[last] in catching_up:
            last -= 1
        return members[last]

    def __contains__(self, node: str) -> bool:
        return node in self.members

    def __len__(self) -> int:
        return len(self.members)

    def supersedes(self, other: "ChainDescriptor") -> bool:
        """Install order: a higher version, or at equal version fewer
        members catching up (within one version the set only shrinks)."""
        mine = (self.version, -len(self.catching_up))
        return mine > (other.version, -len(other.catching_up))

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def without(self, *nodes: str) -> "ChainDescriptor":
        """Remove failed members, repairing the chain (section 6.3) in
        one version; unchanged when none of ``nodes`` is a member.

        If only catching-up members remain, they hold the chain's only
        copy, so they stop catching up."""
        members = tuple(m for m in self.members if m not in nodes)
        if len(members) == len(self.members):
            return self
        catching_up = tuple(m for m in self.catching_up if m not in nodes)
        return ChainDescriptor(
            chain_id=self.chain_id,
            members=members,
            version=self.version + 1,
            catching_up=() if len(catching_up) == len(members) else catching_up,
        )

    def with_appended(self, node: str) -> "ChainDescriptor":
        """Append a recovering switch at the end of the chain, catching
        up; call :meth:`caught_up` once its catch-up completes."""
        if node in self.members:
            raise ValueError(f"{node} is already a chain member")
        return ChainDescriptor(
            chain_id=self.chain_id,
            members=self.members + (node,),
            version=self.version + 1,
            catching_up=self.catching_up + (node,),
        )

    def caught_up(self, node: str) -> "ChainDescriptor":
        """``node``'s catch-up finished.  The members, their order and
        the version stay: nothing in flight was sequenced against a
        configuration this changes, so nothing is fenced."""
        if node not in self.catching_up:
            return self
        return ChainDescriptor(
            chain_id=self.chain_id,
            members=self.members,
            version=self.version,
            catching_up=tuple(m for m in self.catching_up if m != node),
        )
