"""The Eventual Write Optimized protocol (paper section 6.2).

EWO registers have cheap reads *and* writes: everything is local, and
replication is asynchronous.

* **Writes** apply to the local replica immediately and never hold the
  output packet.  The broadcast is "egress mirroring and the multicast
  engine" (section 7), and a switch mirrors a packet once, after the
  whole pass: when a packet's pass ends (``end_pass``), each group it
  wrote sends one small ``EwoUpdate`` carrying only this switch's new
  version numbers and values, in write order.  On the wire the update
  copies are enqueued first and the output packet after them, at the
  same simulated instant.  A write outside a pass (window tasks,
  operators) is broadcast at once.  ``ewo_batch_size`` is the number
  of queued entries below which a group's broadcast is held back,
  trading bandwidth for staleness (experiment A2).

* **Merging** is per the group's mode and lives in ``repro.crdt``: a
  replica is a dict of cells — ``LwwRegister`` ((timestamp, switch-id)
  versions), ``GCounter`` (per-switch slot vector, element-wise max) or
  ``ORSet`` — picked by ``MERGE_TYPES``; the engine moves wire entries.

* **Periodic synchronization** replaces retransmission: the switch's
  packet generator iterates the register state every ``sync_period`` and
  ships the *full* known state (all replicas' slots, not just our own)
  to a randomly selected group member.  Full-state gossip is what makes
  the protocol self-healing under loss and failure: "any switch that did
  receive the update can then synchronize the other switches" (6.3).

No failover protocol exists because none is needed: the controller just
drops failed switches from the multicast group; recovery adds the switch
back and waits one sync round.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, TYPE_CHECKING

from repro.core.registers import EwoMode, RegisterSpec
from repro.crdt.clock import HybridClock, Timestamp
from repro.crdt.gcounter import GCounter
from repro.crdt.lww import LwwRegister
from repro.crdt.orset import ORSet
from repro.net.headers import SwiShmemHeader, SwiShmemOp
from repro.net.packet import Packet
from repro.protocols.messages import EwoEntry, EwoSync, EwoUpdate

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemManager

__all__ = ["EwoEngine", "EwoGroupState", "EwoStats", "MERGE_TYPES", "merge_replicas"]

#: Entries per sync packet, keeping sync packets around an MTU.
SYNC_ENTRIES_PER_PACKET = 48


class MergeType(NamedTuple):
    """What one EWO mode needs: a ``repro.crdt`` cell and its memory
    cost.  (An absent key reads as an empty cell does.)"""

    #: (spec, replicas, my_slot) -> an empty cell for this replica.
    new_cell: Callable[[RegisterSpec, int, int], Any]
    #: (spec, replicas) -> bytes budgeted per key.
    bytes_per_key: Callable[[RegisterSpec, int], int]


#: The single per-mode dispatch: adding a mode is a cell class with the
#: four cell methods plus one row here.
MERGE_TYPES: Dict[EwoMode, MergeType] = {
    EwoMode.LWW: MergeType(
        lambda spec, replicas, my_slot: LwwRegister(spec.default),
        lambda spec, replicas: Timestamp.wire_size + spec.value_bytes,
    ),
    # "One register array for each switch in the replica group" (paper
    # section 7): version + value per slot.
    EwoMode.COUNTER: MergeType(
        lambda spec, replicas, my_slot: GCounter(replicas, my_slot),
        lambda spec, replicas: replicas * (4 + spec.value_bytes),
    ),
    # The open-question accounting: each element costs add tags (and,
    # after removal, tombstones).  Budget for value_bytes elements per
    # key, two tags each (live + tombstone).
    EwoMode.ORSET: MergeType(
        lambda spec, replicas, my_slot: ORSet(node_id=my_slot),
        lambda spec, replicas: spec.value_bytes * 2 * ORSet.TAG_BYTES,
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
        self.clock = clock
        self.stats = EwoStats()
        self._pending_entries: List[EwoEntry] = []
        #: Chaos hook (``FaultInjector.stale_replica``): until this sim
        #: time, incoming merges are silently dropped — the replica's
        #: apply unit is "stuck", so it serves increasingly stale state
        #: while looking perfectly healthy.
        self.chaos_frozen_until = 0.0
        self.chaos_frozen_drops = 0
        new_cell, bytes_per_key = MERGE_TYPES[spec.ewo_mode]
        replicas = len(self.members)
        budget.allocate(f"ewo-store:{spec.name}", spec.capacity * bytes_per_key(spec, replicas))
        #: () -> an empty cell of the group's merge type, for this replica.
        self.new_cell = partial(new_cell, spec, replicas, my_slot)
        #: key -> cell.  A key gets a cell when a local write, a seed or
        #: a remote merge (even a stale one) first names it; reads never
        #: create one.
        self.cells: Dict[Any, Any] = {}
        #: What a key with no cell reads as.
        self.absent = self.new_cell().read()

    def cell_for(self, key: Any) -> Any:
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = self.new_cell()
        return cell

    def wipe(self) -> None:
        """Lose everything a restarted pipeline loses."""
        self.cells.clear()
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
        #: order; ``end_pass`` mirrors each once and empties it.
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
        resumed handoff can replay the command.  Straggler
        ``EwoUpdate``/``EwoSync`` packets that arrive after removal are
        already ignored by ``handle_update``.
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
        """CRDT counter increment on our own slot; returns the global sum."""
        state = self._group(spec, EwoMode.COUNTER)
        cell = state.cell_for(key)
        self._local_write(state, "increment", key, state.my_slot, cell.increment(amount))
        return cell.read()

    def set_add(self, spec: RegisterSpec, key: Any, element: Any) -> None:
        """OR-Set add: tag locally, ship the (element, tag) delta."""
        state = self._group(spec, EwoMode.ORSET)
        tag = state.cell_for(key).add(element)
        self._local_write(state, "set_add", key, ("add", tag), element)

    def set_remove(self, spec: RegisterSpec, key: Any, element: Any) -> bool:
        """OR-Set remove: tombstone the observed tags and ship them."""
        state = self._group(spec, EwoMode.ORSET)
        orset = state.cell_for(key)
        observed = tuple(sorted(orset.element_state(element)[0]))
        if not orset.remove(element):
            return False
        self._local_write(state, "set_remove", key, ("rm", observed), element)
        return True

    def set_contains(self, spec: RegisterSpec, key: Any, element: Any) -> bool:
        state = self._group(spec, EwoMode.ORSET)
        state.stats.local_reads += 1
        orset = state.cells.get(key)
        return orset is not None and element in orset

    def _group(self, spec: RegisterSpec, mode: EwoMode) -> EwoGroupState:
        """The state of ``spec``'s group, for an operation only ``mode``
        groups take; on any other kind of group it is a TypeError."""
        state = self.groups.get(spec.group_id)  # None: an SRO/ERO group
        if state is None or spec.ewo_mode is not mode:
            raise TypeError(
                f"group {spec.name!r} is not an EWO {mode.value} group (LWW groups "
                f"take write(), counters increment(), OR-Sets add()/discard()/"
                f"contains(), SRO/ERO registers write()/fetch_add())"
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
        """The packet pass is over: one egress mirror per group it
        wrote, in first-write order, carrying everything the group has
        pending — the pass's own entries plus any that earlier passes
        left under ``ewo_batch_size``.  The manager calls this before it
        disposes of the output packet, so on a shared egress channel the
        update copies precede the packet that caused them."""
        if not self._pass_written:
            return
        written, self._pass_written = self._pass_written, {}
        for group_id, state in written.items():
            if len(state._pending_entries) >= state.spec.ewo_batch_size:
                self.flush(group_id)

    def flush(self, group_id: int) -> int:
        """Broadcast queued entries to the replica group.  Returns copies sent."""
        state = self.groups[group_id]
        if not state._pending_entries:
            return 0
        entries = state._pending_entries
        state._pending_entries = []
        directory = getattr(self.manager.deployment, "directory", None)
        if directory is not None and state.spec.partial_replication:
            return self._flush_partial(state, entries, directory)
        update = EwoUpdate(
            group=group_id,
            origin=self.switch.name,
            entries=entries,
            key_bytes=state.spec.key_bytes,
            value_bytes=state.spec.value_bytes,
        )
        state.stats.updates_sent += len(update.entries)
        state.stats.update_packets_sent += 1
        update.trace = self._causal.root()
        packet = Packet(
            swishmem=SwiShmemHeader(op=SwiShmemOp.EWO_UPDATE, register_group=group_id),
            swishmem_payload=update,
            trace=update.trace,
        )
        if self.obs.on:
            self.obs.emit(
                "ewo.update.broadcast",
                self.switch.name,
                update.trace,
                group=group_id,
                entries=len(update.entries),
                bytes=packet.wire_size,
            )
        return self.switch.multicast_to_group(packet, group_id)

    def _flush_partial(self, state: EwoGroupState, entries: List[EwoEntry], directory) -> int:
        """Section 9 extension: replicate each key only to its directory-
        assigned replicas, instead of to the whole group."""
        group_id = state.spec.group_id
        live = set(self.switch.multicast.get(group_id).members) if self.switch.multicast else set(state.members)
        per_target: Dict[str, List[EwoEntry]] = {}
        for entry in entries:
            replicas = directory.replicas_of(group_id, entry.key)
            for target in replicas:
                if target != self.switch.name and target in live:
                    per_target.setdefault(target, []).append(entry)
        copies = 0
        for target in sorted(per_target):
            update = EwoUpdate(
                group=group_id,
                origin=self.switch.name,
                entries=per_target[target],
                key_bytes=state.spec.key_bytes,
                value_bytes=state.spec.value_bytes,
            )
            update.trace = self._causal.root()
            if self.obs.on:
                self.obs.emit(
                    "ewo.update.send",
                    self.switch.name,
                    update.trace,
                    group=group_id,
                    target=target,
                    entries=len(update.entries),
                )
            packet = Packet(
                swishmem=SwiShmemHeader(
                    op=SwiShmemOp.EWO_UPDATE, register_group=group_id, dst_node=target
                ),
                swishmem_payload=update,
                trace=update.trace,
            )
            if self.switch.forward_to_node(packet, target):
                copies += 1
                state.stats.updates_sent += len(update.entries)
                state.stats.update_packets_sent += 1
                if self.obs.on:
                    self.obs.emit("ewo.update.sent", self.switch.name, bytes=packet.wire_size)
        return copies

    # ------------------------------------------------------------------
    # Merge path (receiving side)
    # ------------------------------------------------------------------
    def handle_update(self, update: EwoUpdate) -> None:
        state = self.groups.get(update.group)
        if state is None:
            return
        if state.chaos_frozen_until > self.sim.now:
            # Fault injection: the apply unit is frozen; the packet is
            # consumed but nothing merges (silent staleness).
            state.chaos_frozen_drops += len(update.entries)
            return
        is_sync = isinstance(update, EwoSync)
        if is_sync:
            state.stats.sync_packets_received += 1
        applied = stale = 0
        obs = self.obs
        #: (key, applied) per entry, in entry order, while watched.
        outcomes = []
        for entry in update.entries:
            state.stats.updates_received += 1
            merged = self._merge_entry(state, entry)
            if merged:
                state.stats.merges_applied += 1
                applied += 1
            else:
                state.stats.merges_stale += 1
                stale += 1
            if obs.on:
                outcomes.append((entry.key, merged))
        if obs.on:
            # One event per received packet: its fan-in span (merges from
            # many origins parent into each origin's broadcast/sync
            # span) and every entry's merge outcome.
            obs.emit(
                "ewo.merge",
                self.switch.name,
                update.trace,
                group=update.group,
                origin=update.origin,
                sync=is_sync,
                applied=applied,
                stale=stale,
                outcomes=outcomes,
            )

    def _merge_entry(self, state: EwoGroupState, entry: EwoEntry) -> bool:
        """Merge one wire entry into its key's cell; True if it advanced.
        An unseen key gets its cell here even if the merge is stale, but
        not from a malformed entry (the cell's ValueError): that is stale
        and names nothing."""
        stamp = entry.version
        if isinstance(stamp, Timestamp):
            # The hybrid clock is per switch, not per cell: witness
            # first, so the next local write beats what we just saw.
            state.clock.witness(stamp)
        cell = state.cells.get(entry.key)
        if cell is None:
            cell = state.new_cell()
        try:
            merged = cell.apply(stamp, entry.value)
        except ValueError:
            return False
        state.cells[entry.key] = cell
        return merged

    # ------------------------------------------------------------------
    # Periodic synchronization (paper 6.2 / 7)
    # ------------------------------------------------------------------
    def sync_tick(self, group_id: int) -> int:
        """One packet-generator round: gossip full state to a random member.

        Returns the number of sync packets emitted.
        """
        state = self.groups.get(group_id)
        if state is None or self.switch.failed:
            return 0
        target = self._pick_sync_target(group_id)
        if target is None:
            return 0
        packets, _ = self._sync_to(state, group_id, target, forced=False)
        return packets

    def force_sync(self, group_id: int, target: str) -> Tuple[int, int]:
        """Targeted full-state sync toward ``target`` (anti-entropy repair).

        The scrubber calls this on every live member when a replica is
        found diverged: an immediate, directed merge-sync round instead
        of waiting for the random gossip walk to reach the victim.
        Returns ``(packets, bytes)`` so the coordinator can account
        repair bandwidth.
        """
        state = self.groups.get(group_id)
        if state is None or self.switch.failed or target == self.switch.name:
            return (0, 0)
        return self._sync_to(state, group_id, target, forced=True)

    def _sync_to(
        self, state: EwoGroupState, group_id: int, target: str, forced: bool
    ) -> Tuple[int, int]:
        """Ship full known state to ``target`` in MTU-sized sync packets."""
        entries = self._full_state_entries(state)
        directory = getattr(self.manager.deployment, "directory", None)
        if directory is not None and state.spec.partial_replication:
            # partial replication: gossip to the target only the keys it
            # is a replica of
            entries = [
                e for e in entries
                if target in directory.replicas_of(group_id, e.key)
            ]
        packets = 0
        sync_bytes = 0
        round_ctx = self._causal.root() if entries else None
        obs = self.obs
        if obs.on:
            name = self.switch.name
            if forced:
                obs.emit(
                    "ewo.sync.force", name, round_ctx, group=group_id, target=target,
                    entries=len(entries),
                )
            else:
                obs.emit(
                    "ewo.sync.round", name, round_ctx, group=group_id, target=target,
                    entries=len(entries),
                )
        for start in range(0, len(entries), SYNC_ENTRIES_PER_PACKET):
            chunk = entries[start : start + SYNC_ENTRIES_PER_PACKET]
            sync = EwoSync(
                group=group_id,
                origin=self.switch.name,
                entries=chunk,
                key_bytes=state.spec.key_bytes,
                value_bytes=state.spec.value_bytes,
            )
            sync.trace = self._causal.child(round_ctx)
            packet = Packet(
                swishmem=SwiShmemHeader(
                    op=SwiShmemOp.EWO_SYNC, register_group=group_id, dst_node=target
                ),
                swishmem_payload=sync,
                trace=sync.trace,
            )
            if self.switch.generate_packet(packet, target):
                packets += 1
                sync_bytes += packet.wire_size
                state.stats.sync_packets_sent += 1
                state.stats.sync_entries_sent += len(chunk)
                if obs.on:
                    obs.emit("ewo.sync.sent", self.switch.name, bytes=packet.wire_size)
        return packets, sync_bytes

    def _pick_sync_target(self, group_id: int) -> Optional[str]:
        registry = self.switch.multicast
        if registry is None or not registry.has(group_id):
            # The group can vanish mid-round when a re-level promotes it
            # to SRO and deletes the multicast fan-out.
            return None
        others = registry.get(group_id).others(self.switch.name)
        if not others:
            return None
        return self._sync_rng.choice(others)

    def _full_state_entries(self, state: EwoGroupState) -> List[EwoEntry]:
        """All state we know — every replica's slots, not just ours —
        keys sorted by ``repr``, each cell's entries in its wire order."""
        return [
            EwoEntry(key=key, version=version, value=value)
            for key in sorted(state.cells, key=repr)
            for version, value in state.cells[key].entries()
        ]

    # ------------------------------------------------------------------
    def stats_for(self, group_id: int) -> EwoStats:
        return self.groups[group_id].stats

    def local_state(self, group_id: int) -> Dict[Any, Any]:
        """Readable view of the local replica (for convergence checks)."""
        return {key: cell.read() for key, cell in self.groups[group_id].cells.items()}
