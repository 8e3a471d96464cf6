"""The Eventual Write Optimized protocol (paper section 6.2).

EWO registers have cheap reads *and* writes: everything is local, and
replication is asynchronous.

* **Writes** apply to the local replica immediately and never hold the
  output packet.  The broadcast is "egress mirroring and the multicast
  engine" (section 7), and a switch mirrors a packet once, after the
  whole pass: when a packet's pass ends (``end_pass``), the groups it
  wrote leave as one packet per replica set, carrying only this
  switch's new version numbers and values, in write order — an
  ``EwoMirror`` with one ``(group, entries)`` section per group.  Every
  EWO replication packet is an ``EwoMirror``: a write outside a pass
  (window tasks, operators), broadcast at once, a partial-replication
  target's share and each chunk of a sync answer are one-section
  mirrors, and only the header op (``EWO_SYNC``) marks a sync answer.
  An update's counter entry names no slot: the slot is the writer's,
  and the receiver looks the message's ``origin`` up in the group's
  member list once per section (a sync answer, which ships every
  replica's slots, names each).  On the wire the update copies are
  enqueued first and the output packet after them, at the same
  simulated instant.  The multicast engine sends one copy per
  first-hop link: a member beyond another member rides in that
  member's copy and is sent on from there (``PisaSwitch.relay``).
  ``ewo_batch_size`` is the number of queued entries below which a
  group's broadcast is held back, trading bandwidth for staleness
  (experiment A2).

* **Merging** is per the group's mode and lives in ``repro.crdt``: a
  replica is a dict of cells — ``LwwRegister`` ((timestamp, switch-id)
  versions) or ``GCounter`` (per-switch slot vector, element-wise max)
  — picked by ``MERGE_TYPES``.  The cell type merges a received
  section whole (``merge_section``) and builds the sync digest
  (``digest``) and answer (``sync_entries``); the engine moves sections.

* **Periodic synchronization** replaces retransmission: every
  ``sync_period`` the switch's packet generator sends a randomly
  selected group member an ``EwoSyncProbe``, a 64-bit digest of the
  *full* known state (all replicas' slots, not just our own).  The
  member answers with its own full state only if its digest differs
  (a pull, gated on a checksum as in Demers et al.'s anti-entropy), so
  a round between converged replicas ships one small packet.  Full-
  state gossip is what makes the protocol self-healing under loss and
  failure: "any switch that did receive the update can then
  synchronize the other switches" (6.3).  The digest is recomputed
  from the cells at every use, so a replica damaged beneath the CRDT
  API still disagrees: a lowered counter slot is repaired by the max-
  merge, while an LWW value flipped under its stamp is left to the
  scrubber (merge keeps the local value at an equal stamp).

No failover protocol exists because none is needed: the controller just
drops failed switches from the multicast group; recovery adds the switch
back, and its first sync round pulls the group's state from a peer.
"""

from __future__ import annotations

from functools import partial
from itertools import starmap
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, TYPE_CHECKING,
)

from repro.core.registers import EwoMode, RegisterSpec
from repro.crdt.clock import HybridClock, Timestamp
from repro.crdt.gcounter import GCounter
from repro.crdt.lww import LwwRegister
from repro.net.headers import SwiShmemHeader, SwiShmemOp
from repro.net.packet import Packet
from repro.protocols.messages import EwoEntry, EwoMirror, EwoSyncProbe

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemManager

__all__ = ["EwoEngine", "EwoGroupState", "EwoStats", "MERGE_TYPES", "merge_replicas"]

#: Entries per sync packet, keeping sync packets around an MTU.
SYNC_ENTRIES_PER_PACKET = 48


class MergeType(NamedTuple):
    """What one EWO mode needs: a ``repro.crdt`` cell and its memory
    cost.  (An absent key reads as an empty cell does.)"""

    #: The cell class: its ``merge_section``, ``digest`` and
    #: ``sync_entries`` work on a whole replica.
    cell_type: type
    #: (spec, replicas, my_slot) -> an empty cell for this replica.
    new_cell: Callable[[RegisterSpec, int, int], Any]
    #: (spec, replicas) -> bytes budgeted per key.
    bytes_per_key: Callable[[RegisterSpec, int], int]


#: The single per-mode dispatch: adding a mode is a cell class with the
#: cell methods ``repro.crdt`` lists plus one row here.
MERGE_TYPES: Dict[EwoMode, MergeType] = {
    EwoMode.LWW: MergeType(
        LwwRegister,
        lambda spec, replicas, my_slot: LwwRegister(spec.default),
        lambda spec, replicas: Timestamp.wire_size + spec.value_bytes,
    ),
    # "One register array for each switch in the replica group" (paper
    # section 7): version + value per slot.
    EwoMode.COUNTER: MergeType(
        GCounter,
        lambda spec, replicas, my_slot: GCounter(replicas, my_slot),
        lambda spec, replicas: replicas * (4 + spec.value_bytes),
    ),
}


class EwoStats:
    """Per-group EWO counters on one switch."""

    __slots__ = (
        "local_writes",
        "local_reads",
        "updates_sent",
        "update_packets_sent",
        "updates_received",
        "merges_applied",
        "merges_stale",
        "sync_packets_sent",
        "sync_entries_sent",
        "sync_packets_received",
        "sync_probes_sent",
        "sync_probes_received",
        "sync_rounds_agreed",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class EwoGroupState:
    """One EWO register group's replica state on one switch: a dict of
    CRDT cells of the group's merge type (``MERGE_TYPES``).  Packet-
    processing atomicity lets a cell's value and version be updated in
    one pass.
    """

    def __init__(
        self,
        spec: RegisterSpec,
        budget,
        group_members: List[str],
        my_slot: int,
        clock: HybridClock,
    ) -> None:
        self.spec = spec
        self.members = list(group_members)
        self.my_slot = my_slot
        #: member -> replica slot, by position in ``members`` (as
        #: ``EwoEngine.add_group`` assigns ``my_slot``): the slot of a
        #: counter update's writer.
        self.slots = {member: slot for slot, member in enumerate(self.members)}
        self.clock = clock
        self.stats = EwoStats()
        self._pending_entries: List[EwoEntry] = []
        cell_type, new_cell, bytes_per_key = MERGE_TYPES[spec.ewo_mode]
        #: The cell class, whose ``merge_section``, ``digest`` and
        #: ``sync_entries`` take this replica (or its cells) whole.
        self.cell_type = cell_type
        replicas = len(self.members)
        budget.allocate(f"ewo-store:{spec.name}", spec.capacity * bytes_per_key(spec, replicas))
        #: () -> an empty cell of the group's merge type, for this replica.
        self.new_cell = partial(new_cell, spec, replicas, my_slot)
        #: key -> cell.  A key gets a cell when a local write, a seed or
        #: a remote merge (even a stale one) first names it (``add_cell``);
        #: reads never create one.
        self.cells: Dict[Any, Any] = {}
        #: ``sorted_keys()``'s cache: None until first asked for after a
        #: key gets its first cell or the state is wiped.
        self._sorted_keys: Optional[Tuple[Any, ...]] = None
        #: What a key with no cell reads as.
        self.absent = self.new_cell().read()

    def cell_for(self, key: Any) -> Any:
        cell = self.cells.get(key)
        if cell is None:
            cell = self.add_cell(key, self.new_cell())
        return cell

    def add_cell(self, key: Any, cell: Any) -> Any:
        """Give ``key`` (which has none) its first cell — the one way a
        key enters ``cells``, so the sorted key order is dropped here."""
        self.cells[key] = cell
        self._sorted_keys = None
        return cell

    def sorted_keys(self) -> Tuple[Any, ...]:
        """Every key with a cell, sorted by ``repr``: the sync order.
        Built on first need and kept until a key gets its first cell or
        the state is wiped, so a sync round with no new key sorts
        nothing."""
        keys = self._sorted_keys
        if keys is None:
            keys = self._sorted_keys = tuple(sorted(self.cells, key=repr))
        return keys

    def digest(self) -> Tuple[Tuple[Any, Tuple[Any, ...]], ...]:
        """The state digest a sync probe carries: a form of exactly what
        a full sync round ships — each key with entries, in
        ``sorted_keys()`` order, with its cell's state (the cell type's
        ``digest``: an LWW cell's entries, a counter's frozen vector).
        On the wire it is a 64-bit hash (``EwoSyncProbe``); the simulator
        keeps the hashed value itself and compares it whole, a
        collision-free stand-in that costs less to compute than
        serialising the state for a hash.  Recomputed at every call: a
        cached digest would not see a cell damaged beneath the CRDT API,
        and sync would stop answering for it."""
        return self.cell_type.digest(self.cells, self.sorted_keys())

    def wipe(self) -> None:
        """Lose everything a restarted pipeline loses."""
        self.cells.clear()
        self._sorted_keys = None
        self._pending_entries.clear()

    def canonical_items(self) -> List[Tuple[Any, Any]]:
        """(key, immutable canonical cell form) pairs — identical on
        converged replicas; what the scrubber digests."""
        return [
            (key, form)
            for key, cell in self.cells.items()
            if (form := cell.canonical()) is not None
        ]


def merge_replicas(states: Iterable[EwoGroupState]) -> Dict[Any, Any]:
    """The value every key converges to, were these replicas to finish
    gossiping: their full states merged by the cells' own merge."""
    merged: Dict[Any, Any] = {}
    for state in states:
        for key, cell in state.cells.items():
            for version, value in cell.entries():
                if key not in merged:
                    merged[key] = state.new_cell()
                merged[key].apply(version, value)
    return {key: cell.read() for key, cell in merged.items()}


class EwoEngine:
    """Per-switch EWO protocol engine."""

    def __init__(self, manager: "SwiShmemManager", sync_period: float = 1e-3) -> None:
        self.manager = manager
        self.switch = manager.switch
        self.sim = manager.sim
        self.sync_period = sync_period
        self.groups: Dict[int, EwoGroupState] = {}
        self._sync_rng = manager.rng.stream(f"ewo-sync:{self.switch.name}")
        #: The groups the live packet pass has written, in first-write
        #: order; ``end_pass`` mirrors the pass and empties it.
        self._pass_written: Dict[int, EwoGroupState] = {}
        #: The deployment's observability spine (repro.obs.spine).
        self.obs = manager.obs
        # Causal tracing: one trace per update broadcast / sync round,
        # merge spans fan in at the receivers; stamped unconditionally.
        self._causal = manager.causal

    # ------------------------------------------------------------------
    def add_group(
        self, spec: RegisterSpec, members: List[str], clock: HybridClock
    ) -> EwoGroupState:
        if self.switch.name not in members:
            raise ValueError(
                f"{self.switch.name} is not a member of EWO group {spec.name!r}"
            )
        my_slot = members.index(self.switch.name)
        state = EwoGroupState(spec, self.switch.memory, members, my_slot, clock)
        self.groups[spec.group_id] = state
        return state

    def remove_group(self, group_id: int) -> None:
        """Detach a group from this engine (re-level teardown).

        Unflushed local entries are dropped — the re-leveling
        coordinator flushes and waits out the settle window before
        switching, so in the normal path there are none.  Frees the
        group's memory budget; removing an absent group is a no-op so a
        resumed handoff can replay the command.  Straggler sections
        that arrive after removal are already ignored by
        ``handle_update``.
        """
        state = self.groups.pop(group_id, None)
        if state is not None:
            self.switch.memory.release(f"ewo-store:{state.spec.name}")

    def seed_group(self, group_id: int, entries: List[Tuple[Any, Any]], stamp: Timestamp) -> None:
        """Install drained authoritative values into a fresh LWW group.

        Every replica seeds the same ``(key, value)`` list under the
        same controller-issued ``stamp``, so seeded cells are
        byte-identical across the group (digest-identical replays) and
        count as written, so sync rounds gossip them.  Witnessing the
        stamp keeps each replica's hybrid clock ahead of it: the first
        post-switch local write always wins LWW against the seed.
        """
        state = self.groups[group_id]
        if state.spec.ewo_mode is not EwoMode.LWW:
            raise ValueError(
                f"can only seed LWW groups, not {state.spec.ewo_mode}"
            )
        state.clock.witness(stamp)
        for key, value in entries:
            state.cell_for(key).apply(stamp, value)

    # ------------------------------------------------------------------
    # Local operations (paper 6.2: reads local, writes local + async)
    # ------------------------------------------------------------------
    def read(self, spec: RegisterSpec, key: Any, default: Any) -> Any:
        state = self.groups[spec.group_id]
        state.stats.local_reads += 1
        cell = state.cells.get(key)
        value = None if cell is None else cell.read()
        if value is None:  # no cell, or an LWW cell holding None
            return default if default is not None else state.absent
        return value

    def write(self, spec: RegisterSpec, key: Any, value: Any) -> None:
        """LWW write: stamp with the local clock, queue the broadcast."""
        state = self._group(spec, EwoMode.LWW)
        stamp = state.clock.now()
        state.cell_for(key).write(value, stamp)
        self._local_write(state, "overwrite", key, stamp, value)

    def increment(self, spec: RegisterSpec, key: Any, amount: int) -> int:
        """CRDT counter increment on our own slot; returns the global sum.
        The queued entry names no slot (``version=None``): receivers
        apply it at the writer's.  (Every packet of a sketch NF takes
        this path several times: it reaches the cell without the
        ``_group`` and ``cell_for`` frames, and sums the vector itself.)"""
        state = self.groups.get(spec.group_id)
        if state is None or spec.ewo_mode is not EwoMode.COUNTER:
            state = self._group(spec, EwoMode.COUNTER)  # raises
        try:
            cell = state.cells[key]
        except KeyError:
            cell = state.add_cell(key, state.new_cell())
        self._local_write(state, "increment", key, None, cell.increment(amount))
        return sum(cell._vector)

    def _group(self, spec: RegisterSpec, mode: EwoMode) -> EwoGroupState:
        """The state of ``spec``'s group, for an operation only ``mode``
        groups take; on any other kind of group it is a TypeError."""
        state = self.groups.get(spec.group_id)  # None: an SRO/ERO group
        if state is None or spec.ewo_mode is not mode:
            raise TypeError(
                f"group {spec.name!r} is not an EWO {mode.value} group (LWW groups "
                f"take write(), counters increment(), SRO/ERO registers "
                f"write()/fetch_add())"
            )
        return state

    def _local_write(
        self, state: EwoGroupState, op: str, key: Any, version: Any, value: Any
    ) -> None:
        """Account one applied local write and queue its wire entry for
        the asynchronous broadcast.

        A switch mirrors a packet once, at egress, after the whole pass
        has run: a data-plane write (made inside a packet pass — the
        manager's context is live) leaves with its pass, in
        ``end_pass``.  A control-plane write (window tasks, operators)
        has no pass to end, so the batch threshold is checked here."""
        state.stats.local_writes += 1
        in_pass = self.manager._ctx is not None
        if self.obs.on:
            self.obs.emit(
                "ewo.write", self.switch.name,
                group=state.spec.group_id, key=key,
                origin="dataplane" if in_pass else "control", op=op,
            )
        state._pending_entries.append(EwoEntry(key=key, version=version, value=value))
        if in_pass:
            self._pass_written[state.spec.group_id] = state
        elif len(state._pending_entries) >= state.spec.ewo_batch_size:
            self.flush(state.spec.group_id)

    # ------------------------------------------------------------------
    # Asynchronous broadcast
    # ------------------------------------------------------------------
    def end_pass(self) -> None:
        """The packet pass is over: mirror it once per replica set.

        The groups it wrote that are due — pending at least
        ``ewo_batch_size`` entries, the pass's own plus any that earlier
        passes left below it — are partitioned by their fan-out
        (``others(switch)`` of their multicast groups), partitions in
        first-write order, and each partition leaves as one mirror
        (``_mirror``); a partial-replication group is a partition of its
        own, sent per target.  The manager calls this before it disposes
        of the output packet, so on a shared egress channel the update
        copies precede the packet that caused them."""
        if not self._pass_written:
            return
        written, self._pass_written = self._pass_written, {}
        first = due = None  # a pass that wrote one group builds no list
        for state in written.values():
            if len(state._pending_entries) >= state.spec.ewo_batch_size:
                if first is None:
                    first = state
                elif due is None:
                    due = [first, state]
                else:
                    due.append(state)
        if due is not None:
            self._partition(due)
        elif first is not None:
            self._mirror((first,))

    def _partition(self, due: List[EwoGroupState]) -> None:
        """Send several due groups as one packet per fan-out."""
        name = self.switch.name
        registry = self.switch.multicast
        directory = self.manager.deployment.directory
        partitions: Dict[Any, List[EwoGroupState]] = {}
        for state in due:
            if directory is not None and state.spec.partial_replication:
                fanout = state  # per-key targets: never mirrored with others
            else:
                fanout = registry.get(state.spec.group_id).others(name)
            partitions.setdefault(fanout, []).append(state)
        for states in partitions.values():
            self._mirror(states)

    def flush(self, group_id: int) -> int:
        """Broadcast queued entries to the replica group.  Returns the
        copies this switch sent (a member beyond another rides in its
        copy)."""
        state = self.groups[group_id]
        if not state._pending_entries:
            return 0
        return self._mirror((state,))

    def _mirror(self, states: Sequence[EwoGroupState]) -> int:
        """Broadcast the queued entries of ``states`` — one group, or
        several that share a fan-out — as one ``EwoMirror``, a section
        per group, to the first group's multicast group; a partial-
        replication group (always alone) goes per target instead.  As a
        packet it counts once, on the first group's
        ``update_packets_sent``.  Returns the copies this switch sent."""
        first = states[0]
        if first.spec.partial_replication and self.manager.deployment.directory is not None:
            return self._flush_partial(first)
        sections = widths = ()
        total = 0
        for state in states:
            entries, state._pending_entries = state._pending_entries, []
            count = len(entries)
            state.stats.updates_sent += count
            total += count
            spec = state.spec
            sections += ((spec.group_id, entries),)
            widths += ((spec.key_bytes, spec.value_bytes),)
        first.stats.update_packets_sent += 1
        group_id = first.spec.group_id
        mirror = EwoMirror(self.switch.name, sections, widths)
        mirror.trace = self._causal.root()
        packet = Packet(
            swishmem=SwiShmemHeader(op=SwiShmemOp.EWO_UPDATE, register_group=group_id),
            swishmem_payload=mirror,
            trace=mirror.trace,
            uid=next(self.sim.packet_ids),
        )
        if self.obs.on:
            self.obs.emit(
                "ewo.update.broadcast",
                self.switch.name,
                mirror.trace,
                group=group_id,
                entries=total,
                bytes=packet.wire_size,
            )
        return self.switch.multicast_to_group(packet, group_id)

    def _flush_partial(self, state: EwoGroupState) -> int:
        """Section 9 extension: replicate each key only to its directory-
        assigned replicas, instead of to the whole group — one
        one-section mirror per target."""
        entries, state._pending_entries = state._pending_entries, []
        directory = self.manager.deployment.directory
        spec = state.spec
        group_id = spec.group_id
        widths = ((spec.key_bytes, spec.value_bytes),)
        live = set(self.switch.multicast.get(group_id).members)
        per_target: Dict[str, List[EwoEntry]] = {}
        for entry in entries:
            replicas = directory.replicas_of(group_id, entry.key)
            for target in replicas:
                if target != self.switch.name and target in live:
                    per_target.setdefault(target, []).append(entry)
        copies = 0
        for target in sorted(per_target):
            sent = per_target[target]
            mirror = EwoMirror(self.switch.name, ((group_id, sent),), widths)
            mirror.trace = self._causal.root()
            if self.obs.on:
                self.obs.emit(
                    "ewo.update.send",
                    self.switch.name,
                    mirror.trace,
                    group=group_id,
                    target=target,
                    entries=len(sent),
                )
            packet = Packet(
                swishmem=SwiShmemHeader(
                    op=SwiShmemOp.EWO_UPDATE, register_group=group_id, dst_node=target
                ),
                swishmem_payload=mirror,
                trace=mirror.trace,
                uid=next(self.sim.packet_ids),
            )
            if self.switch.forward_to_node(packet, target):
                copies += 1
                state.stats.updates_sent += len(sent)
                state.stats.update_packets_sent += 1
                if self.obs.on:
                    self.obs.emit("ewo.update.sent", self.switch.name, bytes=packet.wire_size)
        return copies

    # ------------------------------------------------------------------
    # Merge path (receiving side)
    # ------------------------------------------------------------------
    def handle_update(self, message: EwoMirror, sync: bool = False) -> None:
        """Merge a received ``EwoMirror`` into our replicas section by
        section — one call into the group's cell type
        (``merge_section``) — and count each section once: the group's
        stats and one ``ewo.merge``.  ``sync`` says the packet came
        under the ``EWO_SYNC`` op, as a sync answer.  A section of a
        group we do not hold is ignored.

        An update's counter entry names no slot (``version`` is None):
        it is applied at the slot of the message's ``origin``, looked up
        once per section.  An origin outside the group has no slot, so
        each such entry is malformed.  An unseen key gets its cell even
        if the merge is stale, but not from a malformed entry: that is
        stale and names nothing."""
        origin = message.origin
        obs = self.obs
        for group_id, entries in message.sections:
            state = self.groups.get(group_id)
            if state is None:
                continue
            try:
                origin_slot = state.slots[origin]
            except KeyError:  # not a member: its slotless entries are malformed
                origin_slot = None
            stats = state.stats
            if sync:
                stats.sync_packets_received += 1
            #: (key, applied) per entry, in entry order, while watched.
            outcomes = [] if obs.on else None
            applied = state.cell_type.merge_section(state, entries, origin_slot, outcomes)
            received = len(entries)
            stale = received - applied
            stats.updates_received += received
            stats.merges_applied += applied
            stats.merges_stale += stale
            if obs.on:
                # One event per received section: its fan-in span (merges
                # from many origins parent into each origin's broadcast/
                # sync span) and every entry's merge outcome.
                obs.emit(
                    "ewo.merge",
                    self.switch.name,
                    message.trace,
                    group=group_id,
                    origin=origin,
                    sync=sync,
                    applied=applied,
                    stale=stale,
                    outcomes=outcomes,
                )

    # ------------------------------------------------------------------
    # Periodic synchronization (paper 6.2 / 7)
    # ------------------------------------------------------------------
    def sync_tick(self, group_id: int) -> int:
        """One packet-generator round: probe a random member with our
        state's digest; it answers with its full state if they differ.

        Returns the number of probes emitted (0 or 1).
        """
        state = self.groups.get(group_id)
        if state is None or self.switch.failed:
            return 0
        target = self._pick_sync_target(group_id)
        if target is None:
            return 0
        probe = EwoSyncProbe(group=group_id, origin=self.switch.name, digest=state.digest())
        probe.trace = self._causal.root()
        if self.obs.on:
            self.obs.emit(
                "ewo.sync.probe", self.switch.name, probe.trace, group=group_id, target=target
            )
        packet = Packet(
            swishmem=SwiShmemHeader(
                op=SwiShmemOp.EWO_SYNC_PROBE, register_group=group_id, dst_node=target
            ),
            swishmem_payload=probe,
            trace=probe.trace,
            uid=next(self.sim.packet_ids),
        )
        if not self.switch.generate_packet(packet, target):
            return 0
        state.stats.sync_probes_sent += 1
        return 1

    def handle_probe(self, probe: EwoSyncProbe) -> None:
        """Answer a sync probe: our full state back to the prober if our
        digest differs from its, nothing if they agree."""
        state = self.groups.get(probe.group)
        if state is None:
            return
        stats = state.stats
        stats.sync_probes_received += 1
        if state.digest() == probe.digest:
            stats.sync_rounds_agreed += 1
            if self.obs.on:
                self.obs.emit("ewo.sync.agree", self.switch.name, probe.trace)
            return
        self._sync_to(state, probe.group, probe.origin, probe.trace)

    def _sync_to(
        self, state: EwoGroupState, group_id: int, target: str, parent: Any = None
    ) -> None:
        """Answer the probe stamped ``parent`` (which may be ``None``):
        ship full known state to ``target`` in MTU-sized sync packets."""
        entries = self._full_state_entries(state)
        directory = self.manager.deployment.directory
        if directory is not None and state.spec.partial_replication:
            # partial replication: gossip to the target only the keys it
            # is a replica of
            entries = [
                e for e in entries
                if target in directory.replicas_of(group_id, e.key)
            ]
        round_ctx = self._causal.child(parent) if entries else None
        obs = self.obs
        if obs.on:
            obs.emit(
                "ewo.sync.round", self.switch.name, round_ctx, group=group_id,
                target=target, entries=len(entries),
            )
        widths = ((state.spec.key_bytes, state.spec.value_bytes),)
        for start in range(0, len(entries), SYNC_ENTRIES_PER_PACKET):
            chunk = entries[start : start + SYNC_ENTRIES_PER_PACKET]
            sync = EwoMirror(self.switch.name, ((group_id, chunk),), widths)
            sync.trace = self._causal.child(round_ctx)
            packet = Packet(
                swishmem=SwiShmemHeader(
                    op=SwiShmemOp.EWO_SYNC, register_group=group_id, dst_node=target
                ),
                swishmem_payload=sync,
                trace=sync.trace,
                uid=next(self.sim.packet_ids),
            )
            if self.switch.generate_packet(packet, target):
                state.stats.sync_packets_sent += 1
                state.stats.sync_entries_sent += len(chunk)
                if obs.on:
                    obs.emit("ewo.sync.sent", self.switch.name, bytes=packet.wire_size)

    def _pick_sync_target(self, group_id: int) -> Optional[str]:
        registry = self.switch.multicast
        if not registry.has(group_id):
            # The group can vanish mid-round when a re-level promotes it
            # to SRO and deletes the multicast fan-out.
            return None
        others = registry.get(group_id).others(self.switch.name)
        if not others:
            return None
        return self._sync_rng.choice(others)

    def _full_state_entries(self, state: EwoGroupState) -> List[EwoEntry]:
        """All state we know — every replica's slots, not just ours —
        keys sorted by ``repr`` (``sorted_keys``), each cell's entries in
        its wire order (the cell type's ``sync_entries``)."""
        return list(starmap(EwoEntry, state.cell_type.sync_entries(state.cells, state.sorted_keys())))

    # ------------------------------------------------------------------
    def stats_for(self, group_id: int) -> EwoStats:
        return self.groups[group_id].stats

    def local_state(self, group_id: int) -> Dict[Any, Any]:
        """Readable view of the local replica (for convergence checks)."""
        return {key: cell.read() for key, cell in self.groups[group_id].cells.items()}
