"""Streaming per-register access-pattern profiler.

The paper's Table 1 labels each NF's state by write frequency, read
frequency, and consistency requirement — *by hand*.  This module is the
measurement half of the adaptive-consistency north star (ROADMAP item
3): an :class:`AccessProfiler` that the observability spine feeds from
the protocol hot paths (SRO write initiate/apply, EWO local write/merge,
every mediated register read), maintaining per register group and per
key:

* read/write mix, split by originating switch (cross-switch sharing set,
  writer-set cardinality — single- vs multi-writer);
* write origin: data-plane (inside a packet pass) vs control-plane
  (management API, window tasks) — the observable that separates SRO
  candidates (flow-driven writes racing packet reads) from ERO
  candidates (rare control-plane pushes);
* write-operation kinds (overwrite vs commutative increment/set deltas),
  from which mergeability is inferred without annotations;
* an inter-write-interval histogram (fixed log-spaced buckets);
* EWO merge outcomes (applied vs stale) — the merge-conflict rate;
* sim-time-windowed activity for "hot right now" ranking.

Memory is bounded: each group keeps detailed :class:`KeyProfile` records
for an exact top-K key table, with the tail absorbed by a
:class:`~repro.sketch.countmin.CountMinSketch`.  A tail key whose sketch
estimate overtakes the weakest exact entry is promoted (the evicted
entry's counts fold back into the sketch), so heavy hitters surface
regardless of arrival order.

Work per access is bounded too.  Each hook is the spine's handler
itself, so a profiled step is one call into the profiler (a merged EWO
section one call for all its entries).  A resident key costs two dict
lookups and no call, its counters bumped in place, and a window rolls
inside :meth:`WindowedCount.add` only when the clock has left it.
Finding the weakest resident is a scan of the table, and almost no tail
access needs one: each group keeps a ``floor``, a lower bound on every
resident's ``accesses`` taken from the last scan, and a tail key whose
estimate is at or under it cannot overtake anybody
(:meth:`GroupProfile.admit` has the argument and the bound on the number
of scans).  A tail key costs one pass over the sketch rows, and its
hashing is paid once: the sketch remembers each key's columns, by its
``repr``, for at most :data:`~repro.sketch.countmin.MEMO_LIMIT` keys per
group (a few hundred bytes each; a full memo starts over), so the memory
stays bounded however long the tail.

Like the rest of ``repro.obs``, profiling is **digest-neutral**: hooks
only mutate profiler-internal state — no events are scheduled, no RNG
streams are drawn, and windows roll lazily off the sim clock carried by
the caller.  An instrumented chaos replay stays byte-identical per seed;
a deployment without a profiler (the default, ``None``) pays the
spine's one flag test per step.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram
from repro.sketch.countmin import CountMinSketch

__all__ = [
    "AccessProfiler",
    "GroupProfile",
    "KeyProfile",
    "WindowedCount",
    "DEFAULT_PROFILE_WINDOW",
    "DEFAULT_TOP_K",
    "INTER_WRITE_BOUNDS",
    "COMMUTATIVE_OPS",
]

#: Default activity window (sim seconds): long enough to cover several
#: EWO sync periods, short enough that a hot key cools within a few
#: windows once traffic moves away.
DEFAULT_PROFILE_WINDOW = 10e-3

#: Exact per-key records kept per group; the tail lives in the sketch.
DEFAULT_TOP_K = 32

DEFAULT_SKETCH_DEPTH = 4
DEFAULT_SKETCH_WIDTH = 512

#: Inter-write-interval bucket bounds (seconds): 1 us .. 100 ms,
#: 1-2-5 spaced.  Spans back-to-back per-packet writes up to one write
#: per enforcement window.
INTER_WRITE_BOUNDS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6,
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    1e-1,
)

#: Write-op kinds that commute under EWO merge (CRDT deltas).  Observing
#: only these for a group means its writes are mergeable by construction.
COMMUTATIVE_OPS = frozenset({"increment"})


class WindowedCount:
    """A tumbling two-window counter driven by the caller's sim clock.

    Keeps the current and previous window's counts plus the lifetime
    total.  Rolling is lazy — performed on the next ``add``/``rate``
    call — so the profiler never schedules events of its own (that
    would perturb replay digests).
    """

    __slots__ = ("window", "index", "current", "previous", "total")

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.index = 0
        self.current = 0
        self.previous = 0
        self.total = 0

    def _roll(self, index: int) -> None:
        self.previous = self.current if index == self.index + 1 else 0
        self.current = 0
        self.index = index

    def add(self, now: float, amount: int = 1) -> None:
        index = int(now / self.window)
        if index != self.index:
            self._roll(index)
        self.current += amount
        self.total += amount

    def windowed(self, now: float) -> float:
        """Sliding-window count estimate at ``now`` (previous window
        weighted by its remaining overlap)."""
        index = int(now / self.window)
        if index == self.index:
            current, previous = self.current, self.previous
        elif index == self.index + 1:
            current, previous = 0, self.current
        else:
            return 0.0
        fraction = (now / self.window) - index
        return current + (1.0 - fraction) * previous

    def rate(self, now: float) -> float:
        """Estimated events/second over the sliding window."""
        return self.windowed(now) / self.window


class KeyProfile:
    """Detailed per-key statistics (exact top-K residents only)."""

    __slots__ = (
        "key",
        "reads",
        "writes",
        "applies",
        "merges_applied",
        "merges_stale",
        "readers",
        "writers",
        "ops",
        "last_write_at",
        "inter_write",
        "activity",
        "prior",
    )

    def __init__(self, key: Any, window: float, prior: int = 0) -> None:
        self.key = key
        self.reads = 0
        self.writes = 0
        self.applies = 0
        self.merges_applied = 0
        self.merges_stale = 0
        #: node -> count maps; their key sets are the sharing sets.
        self.readers: Dict[str, int] = {}
        self.writers: Dict[str, int] = {}
        self.ops: Dict[str, int] = {}
        self.last_write_at: Optional[float] = None
        self.inter_write = Histogram(
            "accessprof.inter_write_seconds", bounds=INTER_WRITE_BOUNDS
        )
        self.activity = WindowedCount(window)
        #: Sketch-estimated accesses from before promotion (tail life).
        self.prior = prior

    @property
    def accesses(self) -> int:
        """Total observed accesses, tail estimate included (the
        promotion/eviction comparison quantity)."""
        return self.prior + self.reads + self.writes

    def as_dict(self, now: float) -> Dict[str, Any]:
        return {
            "key": repr(self.key),
            "reads": self.reads,
            "writes": self.writes,
            "applies": self.applies,
            "merges_applied": self.merges_applied,
            "merges_stale": self.merges_stale,
            "readers": dict(sorted(self.readers.items())),
            "writers": dict(sorted(self.writers.items())),
            "writer_nodes": len(self.writers),
            "sharing_nodes": len(set(self.readers) | set(self.writers)),
            "ops": dict(sorted(self.ops.items())),
            "tail_estimate": self.prior,
            "inter_write_p50": self.inter_write.p50,
            "inter_write_p99": self.inter_write.p99,
            "windowed_rate": self.activity.rate(now),
        }


class GroupProfile:
    """One register group's aggregate profile plus its top-K key table."""

    __slots__ = (
        "group_id",
        "name",
        "declared",
        "nf",
        "reads",
        "writes",
        "writes_dataplane",
        "writes_control",
        "applies",
        "merges_applied",
        "merges_stale",
        "reads_by_node",
        "writes_by_node",
        "ops",
        "last_write_at",
        "inter_write",
        "read_activity",
        "write_activity",
        "keys",
        "sketch",
        "top_k",
        "floor",
        "promotions",
        "evictions",
    )

    def __init__(
        self,
        group_id: int,
        name: str,
        declared: str,
        window: float,
        top_k: int,
        sketch_depth: int,
        sketch_width: int,
    ) -> None:
        self.group_id = group_id
        self.name = name
        self.declared = declared
        self.nf: Optional[str] = None
        self.reads = 0
        self.writes = 0
        self.writes_dataplane = 0
        self.writes_control = 0
        self.applies = 0
        self.merges_applied = 0
        self.merges_stale = 0
        self.reads_by_node: Dict[str, int] = {}
        self.writes_by_node: Dict[str, int] = {}
        self.ops: Dict[str, int] = {}
        self.last_write_at: Optional[float] = None
        self.inter_write = Histogram(
            "accessprof.inter_write_seconds", bounds=INTER_WRITE_BOUNDS
        )
        self.read_activity = WindowedCount(window)
        self.write_activity = WindowedCount(window)
        self.keys: Dict[Any, KeyProfile] = {}
        #: Tail counts.  The seed is derived from the group id so the
        #: hashing is deterministic per group, never from process state.
        self.sketch = CountMinSketch(
            depth=sketch_depth, width=sketch_width, seed=group_id
        )
        self.top_k = top_k
        #: A lower bound on every resident's ``accesses`` once the table
        #: is full: the weakest resident's count at the last scan.
        self.floor = 0
        self.promotions = 0
        self.evictions = 0

    # -- derived --------------------------------------------------------
    @property
    def writer_nodes(self) -> int:
        return len(self.writes_by_node)

    @property
    def sharing_nodes(self) -> int:
        return len(set(self.reads_by_node) | set(self.writes_by_node))

    @property
    def merge_conflict_rate(self) -> float:
        merges = self.merges_applied + self.merges_stale
        return self.merges_stale / merges if merges else 0.0

    @property
    def dataplane_write_fraction(self) -> float:
        return self.writes_dataplane / self.writes if self.writes else 0.0

    @property
    def commutative_write_fraction(self) -> float:
        if not self.writes:
            return 0.0
        commutative = sum(
            count for op, count in sorted(self.ops.items()) if op in COMMUTATIVE_OPS
        )
        return commutative / self.writes

    # -- top-K maintenance ---------------------------------------------
    def admit(self, key: Any) -> Optional[KeyProfile]:
        """The exact record of a key that is not resident, promoting it
        from the tail if warranted (the hooks look residents up
        themselves).

        Returns None while the key stays in the sketch tail.  Eviction
        picks the weakest exact entry by (accesses, repr) so the choice
        never depends on dict iteration order.

        Only an estimate above ``floor`` pays for the scan that finds
        the weakest entry.  That skips nothing the scan would have
        done: a resident's ``accesses`` only grows and a promoted key
        enters at no less than the entry it replaces, so the weakest
        count at the last scan stays a lower bound on the table, and an
        estimate at or under it is at or under the weakest entry's count
        now.  Nor can the scans pile up: the floor never falls, every
        scan that evicts nothing raises it by at least one, and it never
        passes the weakest resident's count, so a group scans at most
        ``evictions + floor`` times over its life.  (A heap would make
        the scan cheaper and every resident access dearer, an
        increase-key each; residents are most of the traffic.)
        """
        if len(self.keys) < self.top_k:
            profile = KeyProfile(key, self.read_activity.window)
            self.keys[key] = profile
            self.promotions += 1
            return profile
        estimate = self.sketch.add(key)
        if estimate <= self.floor:
            return None
        weakest = min(self.keys.values(), key=lambda p: (p.accesses, repr(p.key)))
        self.floor = weakest.accesses
        if estimate <= weakest.accesses:
            return None
        # Fold the evicted resident's exact counts back into the sketch
        # so its totals survive demotion (it may get promoted again).
        self.sketch.add(weakest.key, weakest.reads + weakest.writes)
        del self.keys[weakest.key]
        self.evictions += 1
        self.promotions += 1
        # The caller counts this access in reads/writes: the tail life
        # is the estimate without it.
        profile = KeyProfile(key, self.read_activity.window, prior=estimate - 1)
        self.keys[key] = profile
        return profile


class AccessProfiler:
    """Deployment-wide streaming access profiler.

    Pass one to :class:`~repro.core.manager.SwiShmemDeployment` via the
    ``access_profiler`` keyword, or attach it to a live deployment with
    ``deployment.rebind_observability(access_profiler=...)``::

        profiler = AccessProfiler()
        deployment = SwiShmemDeployment(sim, topo, nodes, access_profiler=profiler)
        ...
        print(profiler.hot_keys(limit=5))
    """

    def __init__(
        self,
        window: float = DEFAULT_PROFILE_WINDOW,
        top_k: int = DEFAULT_TOP_K,
        sketch_depth: int = DEFAULT_SKETCH_DEPTH,
        sketch_width: int = DEFAULT_SKETCH_WIDTH,
    ) -> None:
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        self.window = window
        self.top_k = top_k
        self.sketch_depth = sketch_depth
        self.sketch_width = sketch_width
        self.groups: Dict[int, GroupProfile] = {}
        self._by_name: Dict[str, GroupProfile] = {}
        self.events = 0
        self.last_event_at = 0.0

    # ------------------------------------------------------------------
    # Registration (deployment declare / NF install)
    # ------------------------------------------------------------------
    def describe_group(self, spec: Any) -> GroupProfile:
        """Register a group's identity (called from ``declare``)."""
        profile = self.groups.get(spec.group_id)
        if profile is None:
            profile = GroupProfile(
                spec.group_id,
                spec.name,
                spec.consistency.value,
                self.window,
                self.top_k,
                self.sketch_depth,
                self.sketch_width,
            )
            self.groups[spec.group_id] = profile
            self._by_name[spec.name] = profile
        else:
            # Re-registration after a runtime re-level: the declared
            # side of the advisor's comparison must track the new spec.
            profile.declared = spec.consistency.value
        return profile

    def note_nf(self, group_id: int, nf_name: str) -> None:
        """Attribute a group to the NF that owns its handle (called from
        :class:`~repro.nf.base.NetworkFunction`)."""
        profile = self.groups.get(group_id)
        if profile is not None and profile.nf is None:
            profile.nf = nf_name

    # ------------------------------------------------------------------
    # Hot-path hooks: the spine's handlers (``Profile`` rules bind them),
    # ``(node, ctx, now, fields)``; all passive, they mutate profiler
    # state only.  A resident is found with ``in`` (no ``.get`` call, and
    # no raised KeyError for the tail keys, a quarter of the accesses);
    # a node or op already counted is bumped in place.
    # ------------------------------------------------------------------
    def on_read(self, node: str, ctx: Any, now: float, f: Dict[str, Any]) -> None:
        """A mediated register read (keywords ``group``, ``key``)."""
        group_id = f["group"]
        try:
            group = self.groups[group_id]
        except KeyError:
            return
        self.events += 1
        self.last_event_at = now
        group.reads += 1
        by_node = group.reads_by_node
        try:
            by_node[node] += 1
        except KeyError:
            by_node[node] = 1
        group.read_activity.add(now)
        key = f["key"]
        keys = group.keys
        if key in keys:
            profile = keys[key]
        else:
            profile = group.admit(key)
            if profile is None:
                return
        profile.reads += 1
        readers = profile.readers
        try:
            readers[node] += 1
        except KeyError:
            readers[node] = 1
        profile.activity.add(now)

    def on_write(self, node: str, ctx: Any, now: float, f: Dict[str, Any]) -> None:
        """A write initiated at ``node`` (keywords ``group``, ``key``,
        ``origin``: ``dataplane`` or ``control``, ``op``)."""
        group_id = f["group"]
        try:
            group = self.groups[group_id]
        except KeyError:
            return
        self.events += 1
        self.last_event_at = now
        group.writes += 1
        if f["origin"] == "dataplane":
            group.writes_dataplane += 1
        else:
            group.writes_control += 1
        op = f["op"]
        by_node, ops = group.writes_by_node, group.ops
        try:
            by_node[node] += 1
        except KeyError:
            by_node[node] = 1
        try:
            ops[op] += 1
        except KeyError:
            ops[op] = 1
        group.write_activity.add(now)
        if group.last_write_at is not None:
            group.inter_write.observe(now - group.last_write_at)
        group.last_write_at = now
        key = f["key"]
        keys = group.keys
        if key in keys:
            profile = keys[key]
        else:
            profile = group.admit(key)
            if profile is None:
                return
        profile.writes += 1
        writers, ops = profile.writers, profile.ops
        try:
            writers[node] += 1
        except KeyError:
            writers[node] = 1
        try:
            ops[op] += 1
        except KeyError:
            ops[op] = 1
        profile.activity.add(now)
        if profile.last_write_at is not None:
            profile.inter_write.observe(now - profile.last_write_at)
        profile.last_write_at = now

    def on_apply(self, node: str, ctx: Any, now: float, f: Dict[str, Any]) -> None:
        """A chain update applied at a (non-initiating) SRO/ERO member."""
        group_id = f["group"]
        try:
            group = self.groups[group_id]
        except KeyError:
            return
        self.events += 1
        self.last_event_at = now
        group.applies += 1
        key = f["key"]
        keys = group.keys
        if key in keys:
            keys[key].applies += 1

    def on_merge(self, node: str, ctx: Any, now: float, f: Dict[str, Any]) -> None:
        """One received EWO section merged at ``node``: ``outcomes`` holds
        one ``(key, applied)`` pair per entry, and each entry is one
        event."""
        outcomes = f["outcomes"]
        if not outcomes:
            return
        group_id = f["group"]
        try:
            group = self.groups[group_id]
        except KeyError:
            return
        self.events += len(outcomes)
        self.last_event_at = now
        keys = group.keys
        for key, applied in outcomes:
            if applied:
                group.merges_applied += 1
                if key in keys:
                    keys[key].merges_applied += 1
            else:
                group.merges_stale += 1
                if key in keys:
                    keys[key].merges_stale += 1

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def group(self, name: str) -> GroupProfile:
        return self._by_name[name]

    def hot_keys(self, limit: int = 10, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Deployment-wide hot-key ranking (feeds migration decisions)."""
        at = self.last_event_at if now is None else now
        ranked: List[Tuple[int, str, str, KeyProfile]] = []
        for group in self.groups.values():
            for profile in group.keys.values():
                ranked.append((profile.accesses, group.name, repr(profile.key), profile))
        ranked.sort(key=lambda item: (-item[0], item[1], item[2]))
        return [
            dict(item[3].as_dict(at), group=item[1])
            for item in ranked[:limit]
        ]
