"""Observed-remove set (OR-Set) CRDT.

Paper section 6.2 closes with: "While many other CRDTs have been
designed (e.g., sets and their variants), whether they are useful for
in-switch NF applications or implementable in a switch data plane is an
open question."

We implement the OR-Set to explore that open question concretely: the
IPS signature set (section 4.1) is a natural candidate — signatures are
added and occasionally retired, and weak consistency is acceptable.  The
implementation tracks per-element add tags (switch id, counter) and a
tombstone set of removed tags, the standard state-based OR-Set.  Its
footprint accounting makes the "is it implementable in a data plane"
question quantitative: the benchmarks report bytes per element versus a
register-array budget.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Set, Tuple

__all__ = ["ORSet"]

Tag = Tuple[int, int]  # (switch id, per-switch add counter)


class ORSet:
    """State-based observed-remove set (an EWO cell: see ``repro.crdt``
    for the four shared methods)."""

    __slots__ = ("node_id", "_next_tag", "_adds", "_removes")

    #: Estimated on-wire/in-switch bytes per tag: element hash (4) +
    #: switch id (2) + counter (4).
    TAG_BYTES = 10

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._next_tag = 0
        #: element -> set of live add-tags
        self._adds: Dict[Hashable, Set[Tag]] = {}
        #: removed tags (tombstones), per element
        self._removes: Dict[Hashable, Set[Tag]] = {}

    # ------------------------------------------------------------------
    def add(self, element: Hashable) -> Tag:
        """Add an element with a fresh unique tag."""
        self._next_tag += 1
        tag = (self.node_id, self._next_tag)
        self._adds.setdefault(element, set()).add(tag)
        return tag

    def remove(self, element: Hashable) -> bool:
        """Remove by tombstoning every *observed* add tag.

        Concurrent adds not yet seen survive — the defining OR-Set
        behavior (add wins over concurrent remove).
        """
        live = self._live_tags(element)
        if not live:
            return False
        self._removes.setdefault(element, set()).update(live)
        return True

    def __contains__(self, element: Hashable) -> bool:
        return bool(self._live_tags(element))

    # --- delta application (replication wire format) --------------------
    def apply_add(self, element: Hashable, tag: Tag) -> bool:
        """Merge one remote add tag.  Returns True if it was new."""
        tags = self._adds.setdefault(element, set())
        if tag in tags:
            return False
        tags.add(tag)
        return True

    def apply_remove(self, element: Hashable, tags: Iterable[Tag]) -> bool:
        """Merge remote remove tombstones.  Returns True if any was new."""
        mine = self._removes.setdefault(element, set())
        before = len(mine)
        mine.update(tags)
        return len(mine) != before

    def apply(self, version: Tuple[Any, ...], element: Hashable) -> bool:
        """Merge one wire entry for ``element`` — ``("add", tag)``,
        ``("rm", tags)`` or the sync form ``("state", add_tags,
        remove_tags)``; True if any tag was new."""
        kind = version[0]
        if kind == "add":
            return self.apply_add(element, version[1])
        if kind == "rm":
            return self.apply_remove(element, version[1])
        if kind == "state":
            added = [self.apply_add(element, tag) for tag in version[1]]
            return self.apply_remove(element, version[2]) or any(added)
        return False

    def element_state(self, element: Hashable) -> Tuple[FrozenSet[Tag], FrozenSet[Tag]]:
        """(add tags, remove tags) for one element — the sync payload."""
        return (
            frozenset(self._adds.get(element, ())),
            frozenset(self._removes.get(element, ())),
        )

    def entries(self) -> List[Tuple[Tuple[Any, ...], Hashable]]:
        """Full state as wire entries: one ``("state", ...)`` entry per
        element with any tag state, live or tombstoned, sorted by ``repr``."""
        return [
            (("state", *self.element_state(element)), element)
            for element in sorted(set(self._adds) | set(self._removes), key=repr)
        ]

    def canonical(self) -> Tuple[Tuple[Hashable, Tuple[Tag, ...], Tuple[Tag, ...]], ...]:
        """Immutable form for digesting: the sorted tag listing."""
        return tuple(
            (element, tuple(sorted(version[1])), tuple(sorted(version[2])))
            for version, element in self.entries()
        )

    def elements(self) -> Set[Hashable]:
        return {e for e in self._adds if self._live_tags(e)}

    def read(self) -> FrozenSet[Hashable]:
        return frozenset(self.elements())

    def _live_tags(self, element: Hashable) -> Set[Tag]:
        return self._adds.get(element, set()) - self._removes.get(element, set())

    # ------------------------------------------------------------------
    def merge(self, other_state: Tuple[Dict[Hashable, FrozenSet[Tag]], Dict[Hashable, FrozenSet[Tag]]]) -> bool:
        """Union-merge remote (adds, removes).  Returns True if changed."""
        remote_adds, remote_removes = other_state
        changed = False
        for element, tags in remote_adds.items():
            for tag in tags:
                changed = self.apply_add(element, tag) or changed
        for element, tags in remote_removes.items():
            changed = self.apply_remove(element, tags) or changed
        return changed

    def state(self) -> Tuple[Dict[Hashable, FrozenSet[Tag]], Dict[Hashable, FrozenSet[Tag]]]:
        return (
            {e: frozenset(tags) for e, tags in self._adds.items()},
            {e: frozenset(tags) for e, tags in self._removes.items()},
        )

    # ------------------------------------------------------------------
    @property
    def state_bytes(self) -> int:
        """Estimated in-switch footprint (the open-question metric)."""
        tag_count = sum(len(t) for t in self._adds.values()) + sum(
            len(t) for t in self._removes.values()
        )
        return tag_count * self.TAG_BYTES

    def __repr__(self) -> str:
        return f"<ORSet node={self.node_id} elements={sorted(map(repr, self.elements()))}>"
