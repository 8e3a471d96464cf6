"""Directory service for partial replication (paper section 7 / 9 extension).

The base SwiShmem design replicates every register on every switch,
which "allows the system to scale out in terms of throughput, but not
in terms of state".  Section 9 sketches the fix the authors were
exploring: "use a central controller that acts as a directory service
(in the vein of cache coherence protocols), tracking which switches
replicate which state, and migrating data as needed."

:class:`DirectoryService` implements that controller-side directory:

* per-key **replica sets** — which switches hold a key (defaulting to
  everywhere for keys never placed);
* **placement** driven by observed access locality: a key accessed only
  through a subset of switches can be homed on just those replicas;
* **migration** bookkeeping with generation numbers, so a key's replica
  set can move without ever serving from a switch that has not received
  the state yet (add-then-remove ordering).

How much replication bandwidth and memory partial replication saves
versus full replication — the quantitative question section 9 raises —
is measured on the wire by experiment A3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Set, Tuple

__all__ = ["DirectoryService", "PlacementEntry", "MigrationRecord"]


@dataclass
class PlacementEntry:
    """Replica-set record for one key."""

    key: Hashable
    replicas: FrozenSet[str]
    generation: int = 0


@dataclass
class MigrationRecord:
    """One completed migration, for auditing and experiments."""

    group_id: int
    key: Hashable
    before: FrozenSet[str]
    after: FrozenSet[str]
    generation: int


class DirectoryService:
    """Controller-side map of key -> replica set, per register group."""

    def __init__(self, all_switches: Iterable[str]) -> None:
        self.all_switches: FrozenSet[str] = frozenset(all_switches)
        if not self.all_switches:
            raise ValueError("directory needs at least one switch")
        self._placements: Dict[int, Dict[Hashable, PlacementEntry]] = {}
        #: Access observations: (group, key) -> set of accessing switches.
        self._observed: Dict[Tuple[int, Hashable], Set[str]] = {}
        self.migrations: List[MigrationRecord] = []

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def replicas_of(self, group_id: int, key: Hashable) -> FrozenSet[str]:
        """The switches holding ``key`` (all of them if never placed)."""
        entry = self._placements.get(group_id, {}).get(key)
        if entry is None:
            return self.all_switches
        return entry.replicas

    # ------------------------------------------------------------------
    # Placement and migration
    # ------------------------------------------------------------------
    def place(self, group_id: int, key: Hashable, replicas: Iterable[str]) -> PlacementEntry:
        """Set a key's replica set explicitly."""
        replica_set = frozenset(replicas)
        unknown = replica_set - self.all_switches
        if unknown:
            raise ValueError(f"unknown switches in replica set: {sorted(unknown)}")
        if not replica_set:
            raise ValueError("a key must have at least one replica")
        group = self._placements.setdefault(group_id, {})
        previous = group.get(key)
        generation = (previous.generation + 1) if previous else 0
        entry = PlacementEntry(key=key, replicas=replica_set, generation=generation)
        group[key] = entry
        return entry

    def migrate(self, group_id: int, key: Hashable, to: Iterable[str]) -> MigrationRecord:
        """Move a key to a new replica set, recording the transition.

        The caller is responsible for the add-then-remove data movement
        (copy state to new replicas before dropping old ones); the
        directory records generations so stale lookups are detectable.
        """
        before = self.replicas_of(group_id, key)
        entry = self.place(group_id, key, to)
        record = MigrationRecord(
            group_id=group_id,
            key=key,
            before=before,
            after=entry.replicas,
            generation=entry.generation,
        )
        self.migrations.append(record)
        return record

    # ------------------------------------------------------------------
    # Locality-driven placement
    # ------------------------------------------------------------------
    def observe_access(self, group_id: int, key: Hashable, switch: str) -> None:
        """Record that ``switch`` touched ``key`` (fed by experiments)."""
        self._observed.setdefault((group_id, key), set()).add(switch)

    def place_by_locality(
        self, group_id: int, min_replicas: int = 2
    ) -> List[PlacementEntry]:
        """Home every observed key on its accessing switches.

        ``min_replicas`` keeps a fault-tolerance floor: keys seen by
        fewer switches get padded with deterministic extras.
        """
        if min_replicas > len(self.all_switches):
            raise ValueError("min_replicas exceeds the deployment size")
        entries = []
        ordered_switches = sorted(self.all_switches)
        for (observed_group, key), accessors in sorted(
            self._observed.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
        ):
            if observed_group != group_id:
                continue
            replicas = set(accessors)
            for name in ordered_switches:
                if len(replicas) >= min_replicas:
                    break
                replicas.add(name)
            entries.append(self.place(group_id, key, replicas))
        return entries
