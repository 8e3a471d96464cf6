"""Multicast groups.

The EWO protocol (paper sections 6.2 and 7) broadcasts write updates to
the replica group using "egress mirroring and the multicast engine", and
its failover story is simply "remove the failed switch from the
multicast group".  This module models that engine: a named group of
member node names, managed centrally (by the controller) and consulted
by switches when they replicate.

Delivery itself is unicast per member over the normal links — which is
what a switch multicast engine does internally (packet replication at
egress) — so loss and bandwidth are accounted per copy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

__all__ = ["MulticastGroup", "MulticastRegistry"]


class MulticastGroup:
    """A replica group: the set of switches holding copies of a register."""

    def __init__(self, group_id: int, members: Iterable[str] = ()) -> None:
        self.group_id = group_id
        self._members: Set[str] = set(members)
        #: Sorted fan-out per sender, built on first use and dropped on
        #: every membership change: ``others`` runs on every EWO write
        #: and sync tick, membership changes only on failover.
        self._fanout: Dict[str, Tuple[str, ...]] = {}

    @property
    def members(self) -> List[str]:
        return sorted(self._members)

    def add(self, node_name: str) -> None:
        self._members.add(node_name)
        self._fanout.clear()

    def remove(self, node_name: str) -> None:
        """Remove a member; removing a non-member is a no-op.

        Failover (paper section 6.3) removes failed switches, possibly
        more than once if multiple detectors race — hence idempotent.
        """
        self._members.discard(node_name)
        self._fanout.clear()

    def others(self, node_name: str) -> Tuple[str, ...]:
        """All members except ``node_name``, sorted — the broadcast
        fan-out set."""
        fanout = self._fanout.get(node_name)
        if fanout is None:
            fanout = self._fanout[node_name] = tuple(
                sorted(self._members - {node_name})
            )
        return fanout

    def __contains__(self, node_name: str) -> bool:
        return node_name in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:
        return f"<MulticastGroup {self.group_id} members={self.members}>"


class MulticastRegistry:
    """All multicast groups in the deployment, keyed by group id."""

    def __init__(self) -> None:
        self._groups: Dict[int, MulticastGroup] = {}

    def create(self, group_id: int, members: Iterable[str] = ()) -> MulticastGroup:
        if group_id in self._groups:
            raise ValueError(f"multicast group {group_id} already exists")
        group = MulticastGroup(group_id, members)
        self._groups[group_id] = group
        return group

    def get(self, group_id: int) -> MulticastGroup:
        return self._groups[group_id]

    def has(self, group_id: int) -> bool:
        return group_id in self._groups

    def delete(self, group_id: int) -> None:
        """Tear down a group (an EWO -> SRO re-level removes the
        broadcast fan-out entirely).  Deleting twice is a no-op so a
        resumed handoff can replay the step."""
        self._groups.pop(group_id, None)

    def remove_member_everywhere(self, node_name: str) -> int:
        """Drop a failed switch from every group; returns groups touched."""
        touched = 0
        for group in self._groups.values():
            if node_name in group:
                group.remove(node_name)
                touched += 1
        return touched
