"""The read-optimized replication protocols: SRO and ERO (paper section 6.1).

SRO adapts chain replication to the in-switch setting:

* **Writes** never apply immediately at the writer.  The output packet
  P' and the write set Q are punted to the writer's control plane, which
  buffers P' in DRAM, sends a ``WriteRequest`` to the chain head, and
  retries on timeout (the data plane cannot buffer or run timers).

* The **head** assigns a per-slot sequence number (slots may be shared
  between keys, section 7), applies the write, sets the pending bit, and
  propagates a ``ChainUpdate`` down the chain.  Each member applies
  in-order updates, sets its pending bit, and forwards; duplicates are
  forwarded without re-applying, gaps are dropped (the writer's retry
  recovers them).

* The **tail** (last member) applies and emits ``WriteAck`` packets to
  the writer — whose control plane releases the buffered output — and to
  every other member, which clear their pending bits.  Ack processing is
  pure data plane (paper section 3.3's atomic multi-location write).

* **Reads** are local when the key's pending bit is clear.  Otherwise
  the input packet is forwarded to the read tail and re-processed there
  against the latest committed state (the CRAQ-derived optimization).

**ERO** shares the entire write path but always reads locally: no
pending bits are kept (saving their memory), reads have bounded latency,
and consistency drops to eventual during write propagation.

SRO writes have *register semantics* (full-value overwrite), which makes
the at-least-once delivery of the retry path safe: re-applying a write
under a fresh sequence number is idempotent with respect to the stored
value.  The head additionally keeps a token dedup table so a retry whose
original request did arrive re-propagates the original sequence number
instead of double-sequencing.

Failure handling (section 6.3) lives in ``repro.protocols.failover``;
this engine exposes the hooks it needs: descriptor swaps, catch-up mode
(gap-tolerant apply), and control-plane snapshots.

Groups declared with ``dataplane_write_buffering`` take the section 9
variant instead of the control-plane punt: the output packet is held by
recirculation and the data plane itself retransmits.  Of that hold only
the *retransmitting* passes are simulated (one kernel event each); the
passes between them are counted by arithmetic when the hold is next
touched — see :class:`_DataplaneHold`.
"""

from __future__ import annotations

import itertools

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.chain import ChainDescriptor
from repro.core.pending import PendingTable
from repro.core.registers import Consistency, FetchAdd, ReadForwarded, RegisterSpec
from repro.net.headers import SwiShmemHeader, SwiShmemOp
from repro.net.packet import Packet
from repro.protocols.messages import ChainUpdate, WriteAck, WriteRequest, WriteToken
from repro.switch.pisa import RECIRCULATION_LATENCY

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemManager

__all__ = ["SroEngine", "SroGroupState", "SroStats"]

#: Control-plane retry timeout for unacknowledged writes.
DEFAULT_WRITE_TIMEOUT = 2e-3
#: Exponential backoff cap.
MAX_WRITE_TIMEOUT = 50e-3
#: Give up after this many attempts (a write that cannot commit through
#: a repaired chain indicates a partitioned deployment).
MAX_WRITE_ATTEMPTS = 25


def _retry_horizon() -> float:
    """Upper bound on how long after first send a retry can still arrive.

    Sum of every backoff interval the writer can sleep through before
    giving up, stretched by the maximum jitter factor (1.5x).  A dedup
    entry older than this belongs to a write whose retries have all
    fired (or whose writer gave up), so evicting it cannot cause a
    duplicate re-sequencing.
    """
    total, timeout = 0.0, DEFAULT_WRITE_TIMEOUT
    for _ in range(MAX_WRITE_ATTEMPTS):
        total += min(MAX_WRITE_TIMEOUT, timeout)
        timeout *= 2
    return 1.5 * total


#: See :func:`_retry_horizon`.
RETRY_HORIZON = _retry_horizon()


@dataclass
class _OutstandingWrite:
    """Writer-side control-plane state for one in-flight write."""

    request: WriteRequest
    timer: Any = None
    started_at: float = 0.0
    attempts: int = 0
    #: Number of writes from the same packet still unacked (the output
    #: packet releases when the *last* one commits).
    barrier: Optional["_PacketBarrier"] = None


@dataclass
class _PacketBarrier:
    """Joins the multiple writes of one packet's write set Q."""

    token: Optional[WriteToken]
    remaining: int
    #: committed values by key (fetch-add results ride the acks)
    results: Dict[Any, Any] = field(default_factory=dict)
    #: called with (output_packet, results) just before the output is
    #: released — the hook sequencer-style NFs use to stamp the packet
    on_release: Optional[Any] = None


@dataclass
class _DataplaneHold:
    """An output packet 'buffered' by recirculation (section 9 variant).

    The packet never leaves the pipeline: every RECIRCULATION_LATENCY it
    takes another pass (costing a pipeline slot, which we account), and
    every ``DP_RESEND_EVERY``-th pass the data plane retransmits the
    write requests it is waiting on — buffering and retransmission with
    no CPU involvement.

    **Simulated vs accounted.**  Only a retransmitting pass does
    anything, so only it is a kernel event: ``armed`` is that one event,
    re-armed from itself and cancelled when the hold ends.  The 63
    passes in between touch nothing but counters, and are charged
    (``recirculations``, ``SroEngine.dp_recirculations``,
    ``SwitchStats.recirculated_packets``) when the hold is next touched:
    by the armed event, or by whatever ends the hold — the ack, give-up,
    ``remove_group``, a switch crash.  Until then the three counters lag
    a live hold by at most ``DP_RESEND_EVERY - 1`` passes.

    **Pass instants.**  Pass *k* is at the hold's start plus
    RECIRCULATION_LATENCY added *k* times, one addition at a time
    (:func:`_pass_instant`, :func:`_passes_before`): that is the float a
    per-pass event chain would have reached, and ``start + k *
    RECIRCULATION_LATENCY`` is not.  The armed event is scheduled *at*
    that float (``Simulator.schedule_at`` lands on it exactly), so every
    resend and give-up instant, and hence every simulated time, is the
    one a pass-by-pass simulation produces.

    **Ties.**  A pass counts when it is strictly before the touching
    instant; the armed pass counts itself; a pass landing exactly on the
    instant the hold ends does not.  That is the ``(time, seq)`` order
    of a per-pass chain whenever the ending event was scheduled more
    than one pass ahead — an ack (link latency), a control-plane command
    (CPU op latency), a scheduled crash — since the pass it ties with
    would have been scheduled only one pass ahead, with a higher seq.
    The armed event itself was scheduled 64 passes ahead, so in an exact
    float tie with an ack the retransmission goes first.
    """

    token: WriteToken
    packet: Optional[Any]
    dst_node: Optional[str]
    write_tokens: List[WriteToken]
    #: Instant of the last pass already charged (the hold's start, then
    #: each retransmitting pass).
    counted_through: float
    recirculations: int = 0
    resends: int = 0
    #: The kernel event of the next retransmitting pass.
    armed: Any = None


#: Recirculations between data-plane retransmissions of an unacked write
#: (64 passes x 800 ns ~ 51 us, a few chain RTTs).
DP_RESEND_EVERY = 64
#: Give up after this many data-plane retransmissions.
DP_MAX_RESENDS = 200


def _pass_instant(start: float, passes: int) -> float:
    """The instant ``passes`` recirculations after ``start``, by repeated
    addition (at C speed; ``reduce`` is a left fold)."""
    return reduce(add, itertools.repeat(RECIRCULATION_LATENCY, passes), start)


def _passes_before(start: float, instant: float) -> int:
    """How many passes after ``start`` land strictly before ``instant``."""
    passes = 0
    at = start + RECIRCULATION_LATENCY
    while at < instant:
        at += RECIRCULATION_LATENCY
        passes += 1
    return passes


class SroStats:
    """Per-group protocol counters on one switch."""

    __slots__ = (
        "writes_initiated",
        "writes_committed",
        "writes_failed",
        "retries",
        "local_reads",
        "forwarded_reads",
        "tail_reads",
        "chain_updates_seen",
        "duplicate_updates",
        "out_of_order_drops",
        "reorder_stashed",
        "reorder_applied",
        "fenced_updates",
        "acks_seen",
        "write_latency_sum",
        "write_latency_samples",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def record_write_latency(self, latency: float) -> None:
        self.write_latency_sum += latency
        self.write_latency_samples += 1

    @property
    def mean_write_latency(self) -> float:
        if not self.write_latency_samples:
            return 0.0
        return self.write_latency_sum / self.write_latency_samples

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.__slots__}


class SroGroupState:
    """One register group's replica state on one switch."""

    def __init__(self, spec: RegisterSpec, budget, chain: ChainDescriptor) -> None:
        self.spec = spec
        self.chain = chain
        #: The backing store.  For ``control_plane_state`` groups this
        #: models a P4 table; otherwise a register array.  Either way the
        #: data-plane memory footprint is capacity * (key + value) bytes.
        budget.allocate(
            f"sro-store:{spec.name}", spec.capacity * (spec.key_bytes + spec.value_bytes)
        )
        self.store: Dict[Any, Any] = {}
        track_pending = spec.consistency is Consistency.SRO
        self.pending = PendingTable(
            spec.name, spec.effective_pending_slots(), budget
        )
        self.track_pending = track_pending
        # Head-side dedup: token -> (seq, slot, assigned value, epoch,
        # remembered-at).  The assigned value matters for fetch-add
        # retries: re-sequencing a duplicate must re-propagate the
        # original result, not add again.  The epoch (the chain version
        # at remember time) bounds the table's lifetime: entries from
        # configurations two or more reconfigurations old are eagerly
        # evicted on descriptor install — but only once they are also
        # past the writer retry horizon, because under churn (lossy
        # control links flapping the leader) versions can advance far
        # faster than a writer's backoff schedule drains.  The FIFO
        # capacity bound backstops both.
        self.dedup: "OrderedDict[WriteToken, Tuple[int, int, Any, int, float]]" = OrderedDict()
        self.dedup_capacity = max(64, spec.capacity // 4)
        self.dedup_evictions = 0
        budget.allocate(
            f"sro-dedup:{spec.name}", self.dedup_capacity * (12 + spec.value_bytes)
        )
        #: Catch-up mode: gap-tolerant apply during recovery (section 6.3).
        self.catching_up = False
        #: Bounded reorder stash: (slot, seq) -> ChainUpdate held until
        #: its gap fills.  A delayed/reordered update used to be dropped
        #: on arrival, leaving every later sequence number to heal one
        #: writer-retry round at a time — under bursty write-per-packet
        #: load a single reordered packet convoyed the whole slot behind
        #: exponential backoffs until writers exhausted their attempts
        #: and wedged the chain permanently.  Holding the update for the
        #: one missing predecessor instead heals in transit.  Modeled as
        #: recirculation (the update keeps a pipeline pass, like the
        #: section 9 buffering variant), so it costs no register budget;
        #: FIFO-bounded, stale entries are evicted first.
        self.reorder: "OrderedDict[Tuple[int, int], Any]" = OrderedDict()
        self.reorder_capacity = 64
        self.stats = SroStats()
        #: Chaos hook (``FaultInjector.drop_chain_applies``): while > 0,
        #: this member's dataplane silently loses chain-update applies
        #: (the update still cuts through to the successor).
        self.chaos_drop_applies = 0
        self.chaos_dropped_applies = 0
        #: Chaos hook (``FaultInjector.stale_replica``): until this sim
        #: time, chain applies are silently lost the same way — a frozen
        #: apply unit serving increasingly stale state.
        self.chaos_frozen_until = 0.0
        self.chaos_frozen_drops = 0

    def wipe(self) -> None:
        """Lose everything a restarted pipeline loses — the reorder
        stash too: it is recirculating packets, not memory."""
        self.store.clear()
        self.pending.reset()
        self.dedup.clear()
        self.reorder.clear()

    def canonical_items(self) -> List[Tuple[Any, Any]]:
        """(key, (value, applied seq of the key's slot)) pairs — what the
        scrubber digests.  The seq is folded in because a member whose
        value matches but whose apply progress has a hole (a dropped
        apply whose value a later repair restored) would otherwise
        digest clean while its in-order apply check refuses every
        subsequent seq — wedging the chain permanently.  Mid-flight skew
        (head applied, tail not yet) is transient and absorbed by the
        scrubber's confirm-rounds requirement."""
        pending = self.pending
        return [
            (key, (value, pending.applied_seq(pending.slot_of(key))))
            for key, value in self.store.items()
        ]

    def remember_token(
        self, token: WriteToken, seq: int, slot: int, value: Any, now: float
    ) -> int:
        """Record a sequenced token; returns FIFO evictions made for room."""
        if token in self.dedup:
            return 0
        evicted = 0
        if len(self.dedup) >= self.dedup_capacity:
            self.dedup.popitem(last=False)
            self.dedup_evictions += 1
            evicted = 1
        self.dedup[token] = (seq, slot, value, self.chain.version, now)
        return evicted

    def evict_dedup_epochs(self, current_version: int, now: float) -> int:
        """Epoch-based eviction: drop tokens remembered two or more chain
        configurations ago AND past the writer retry horizon.  Such a
        token's write is either long committed (the writer was acked or
        gave up) and no retry can still arrive, so re-sequencing cannot
        happen.  The epoch-distance condition alone is not enough:
        leader churn can advance versions every few milliseconds while
        a backed-off writer legitimately retries for much longer."""
        stale = [
            token
            for token, entry in self.dedup.items()
            if entry[3] < current_version - 1 and now - entry[4] > RETRY_HORIZON
        ]
        for token in stale:
            del self.dedup[token]
        self.dedup_evictions += len(stale)
        return len(stale)


class SroEngine:
    """Per-switch SRO/ERO protocol engine."""

    def __init__(self, manager: "SwiShmemManager") -> None:
        self.manager = manager
        self.switch = manager.switch
        self.sim = manager.sim
        self.groups: Dict[int, SroGroupState] = {}
        self._outstanding: Dict[WriteToken, _OutstandingWrite] = {}
        # Per-engine token sequence (not the module-global counter):
        # tokens already embed the writer name, so a per-switch sequence
        # keeps them unique within a deployment while making same-seed
        # replays produce byte-identical tokens — and hence identical
        # flight-recorder span trees — regardless of what else ran in
        # the process beforehand.
        self._token_seq = itertools.count(1)
        self.write_timeout = DEFAULT_WRITE_TIMEOUT
        # Seeded jitter for retry backoff: after a loss burst kills many
        # writes in the same instant, pure exponential backoff would
        # retry them all in the same instant too (a thundering herd at
        # the head).  A per-switch named stream keeps replays
        # byte-identical per seed.
        self._backoff_rng = manager.rng.stream(f"sro-backoff:{self.switch.name}")
        #: The deployment's observability spine (repro.obs.spine).
        self.obs = manager.obs
        # Causal contexts are stamped unconditionally (pure counters,
        # digest-neutral); only the emits below are gated.
        self._causal = manager.causal
        self._dedup_evictions_reported = 0
        # Data-plane write-buffering state and accounting (section 9).
        self._dp_holds: Dict[WriteToken, _DataplaneHold] = {}
        self.dp_holds_created = 0
        self.dp_recirculations = 0
        self.dp_resends = 0
        self.dp_drops = 0

    # ------------------------------------------------------------------
    # Group lifecycle
    # ------------------------------------------------------------------
    def add_group(self, spec: RegisterSpec, chain: ChainDescriptor) -> SroGroupState:
        state = SroGroupState(spec, self.switch.memory, chain)
        self.groups[spec.group_id] = state
        return state

    def remove_group(self, group_id: int) -> int:
        """Detach a group from this engine (re-level teardown).

        The re-leveling coordinator only switches a drained group, so in
        the normal path nothing is in flight; if a write *is* still
        outstanding (a crashed writer's abandoned retry), its timer is
        cancelled and any buffered packet dropped, mirroring
        ``_give_up``.  Frees the group's memory budget.  Removing an
        absent group is a no-op so a resumed handoff can replay the
        command.  Returns the number of abandoned writes.
        """
        state = self.groups.pop(group_id, None)
        if state is None:
            return 0
        doomed = [
            token
            for token, outstanding in self._outstanding.items()
            if outstanding.request.group == group_id
        ]
        for token in doomed:
            outstanding = self._outstanding.pop(token)
            if outstanding.timer is not None:
                outstanding.timer.cancel()
            barrier = outstanding.barrier
            if barrier is not None and barrier.token is not None:
                hold = self._dp_holds.pop(barrier.token, None)
                if hold is not None:
                    self._dp_end(hold)
                self.switch.control.drop_buffered(barrier.token)
        obs = self.obs
        if obs.on:
            obs.emit("sro.outstanding", self.switch.name, outstanding=len(self._outstanding))
            still_pending = state.pending.pending_count()
            if state.track_pending and still_pending:
                obs.emit("sro.pending.clear", self.switch.name, cleared=still_pending)
        budget = self.switch.memory
        budget.release(f"sro-store:{state.spec.name}")
        budget.release(f"sro-dedup:{state.spec.name}")
        budget.release(f"pending:{state.spec.name}")
        return len(doomed)

    def quiesced(self, group_id: int) -> bool:
        """True when the group has no write in flight on this switch:
        no pending bit set and no outstanding writer state.  The drain
        phase of a re-level polls this on every member."""
        state = self.groups.get(group_id)
        if state is None:
            return True
        if state.pending.pending_count():
            return False
        return not any(
            outstanding.request.group == group_id
            for outstanding in self._outstanding.values()
        )

    def set_track_pending(self, group_id: int, value: bool) -> None:
        """Flip SRO<->ERO pending-bit tracking for a live group.

        Turning tracking off (SRO -> ERO) clears every pending bit so
        reads stop forwarding on stale in-flight markers."""
        state = self.groups[group_id]
        if state.track_pending == value:
            return
        state.track_pending = value
        if not value:
            cleared = state.pending.clear_all()
            if cleared and self.obs.on:
                self.obs.emit("sro.pending.clear", self.switch.name, cleared=cleared)

    def set_chain(self, group_id: int, chain: ChainDescriptor) -> None:
        """Install a new chain descriptor (controller reconfiguration)."""
        state = self.groups[group_id]
        if chain.version >= state.chain.version:
            advanced = chain.version > state.chain.version
            state.chain = chain
            if advanced and state.dedup:
                evicted = state.evict_dedup_epochs(chain.version, self.sim.now)
                if evicted and self.obs.on:
                    self._dedup_evictions_reported += evicted
                    self.obs.emit(
                        "sro.dedup",
                        self.switch.name,
                        occupancy=sum(len(g.dedup) for g in self.groups.values()),
                        evicted=evicted,
                    )

    def set_catching_up(self, group_id: int, value: bool) -> None:
        self.groups[group_id].catching_up = value

    # ------------------------------------------------------------------
    # Read path (paper 6.1 "Reads")
    # ------------------------------------------------------------------
    def read(self, spec: RegisterSpec, key: Any, default: Any, packet: Optional[Packet]) -> Any:
        state = self.groups[spec.group_id]
        at_tail = (
            packet is not None
            and spec.group_id in packet.meta.get("at_tail_groups", ())
        )
        if self.switch.name == state.chain.read_tail or at_tail:
            state.stats.tail_reads += 1
            if self.obs.on:
                self.obs.emit("sro.read.tail", self.switch.name)
            return state.store.get(key, default if default is not None else spec.default)
        if state.track_pending:
            slot = state.pending.slot_of(key)
            if state.pending.is_pending(slot):
                if packet is None:
                    # Control-plane read with a write in flight: serve the
                    # local copy (peek semantics); only data-plane reads
                    # forward packets.
                    state.stats.local_reads += 1
                    if self.obs.on:
                        self.obs.emit("sro.read.local", self.switch.name)
                    return state.store.get(key, default if default is not None else spec.default)
                state.stats.forwarded_reads += 1
                self._forward_read(state, packet)
                raise ReadForwarded(spec.group_id, key, state.chain.read_tail)
        state.stats.local_reads += 1
        if self.obs.on:
            self.obs.emit("sro.read.local", self.switch.name)
        return state.store.get(key, default if default is not None else spec.default)

    def _forward_read(self, state: SroGroupState, packet: Packet) -> None:
        """Encapsulate the input packet toward the read tail (CRAQ read)."""
        packet.swishmem = SwiShmemHeader(
            op=SwiShmemOp.READ_FORWARD,
            register_group=state.spec.group_id,
            dst_node=state.chain.read_tail,
        )
        packet.swishmem_payload = None
        packet.trace = self._causal.root()
        if self.obs.on:
            self.obs.emit(
                "sro.read.forward",
                self.switch.name,
                packet.trace,
                group=state.spec.group_id,
                next_hop=state.chain.read_tail,
            )
        self.switch.forward_to_node(packet, state.chain.read_tail)

    def handle_read_forward(self, packet: Packet, group_id: int) -> bool:
        """At the read tail: decapsulate and let the NF re-process locally.

        Returns False so the switch continues to the NF handlers — with
        the packet marked so this group's reads are served locally.
        """
        state = self.groups.get(group_id)
        if state is None:
            return True  # not replicated here (misrouted); drop
        if self.switch.name != state.chain.read_tail:
            # Chain moved under the packet; chase the current tail.
            if packet.trace is not None:
                packet.trace = self._causal.child(packet.trace)
                if self.obs.on:
                    self.obs.emit(
                        "sro.read.chase",
                        self.switch.name,
                        packet.trace,
                        group=group_id,
                        next_hop=state.chain.read_tail,
                    )
            packet.swishmem.dst_node = state.chain.read_tail
            self.switch.forward_to_node(packet, state.chain.read_tail)
            return True
        if self.obs.on:
            self.obs.emit("sro.read.arrive", self.switch.name, packet.trace, group=group_id)
        packet.swishmem = None
        # Replaced, not updated in place: meta values are shared by
        # packet copies (see the copy contract in repro.net.packet).
        packet.meta["at_tail_groups"] = packet.meta.get(
            "at_tail_groups", frozenset()
        ) | {group_id}
        return False

    # ------------------------------------------------------------------
    # Write path, writer side (paper 6.1 "Writes")
    # ------------------------------------------------------------------
    def _build_request(
        self, spec: RegisterSpec, key: Any, value: Any, origin: str
    ) -> WriteRequest:
        """Build a request, translating FetchAdd markers into RMW requests."""
        rmw_delta = value.amount if isinstance(value, FetchAdd) else None
        request = WriteRequest(
            group=spec.group_id,
            key=key,
            value=None if rmw_delta is not None else value,
            token=WriteToken(self.switch.name, next(self._token_seq)),
            key_bytes=spec.key_bytes,
            value_bytes=spec.value_bytes,
            rmw_delta=rmw_delta,
        )
        # Every SRO write starts a fresh trace rooted at the writer.
        request.trace = self._causal.root()
        if self.obs.on:
            self.obs.emit(
                "sro.write.initiate",
                self.switch.name,
                request.trace,
                group=spec.group_id,
                key=key,
                token=str(request.token),
                origin=origin,
                op="overwrite" if rmw_delta is None else "fetch_add",
            )
        return request

    def initiate_writes(
        self,
        writes: List[Tuple[RegisterSpec, Any, Any]],
        output_packet: Optional[Packet],
        output_dst: Optional[str],
        on_release=None,
        origin: str = "dataplane",
    ) -> None:
        """Punt P' and the write set Q to the control plane.

        ``writes`` is [(spec, key, value)].  The output packet (if any)
        is buffered until every write in the set commits.  ``origin``
        records who initiated the set — ``"dataplane"`` for packet
        passes, ``"control"`` for management-API writes — purely for the
        access profiler (the protocol treats both identically).

        Groups declared with ``dataplane_write_buffering`` take the
        recirculation path instead (no CPU); a mixed write set falls
        back to the conservative control-plane path for everything.
        """
        if not writes:
            return
        if all(spec.dataplane_write_buffering for spec, _, _ in writes):
            self._initiate_dataplane(writes, output_packet, output_dst, on_release, origin)
            return
        barrier_token = WriteToken(self.switch.name, next(self._token_seq))
        barrier = _PacketBarrier(
            barrier_token, remaining=len(writes), on_release=on_release
        )
        if output_packet is not None and output_dst is not None:
            self.switch.control.buffer_packet(barrier_token, output_packet, output_dst)
        else:
            barrier.token = None  # nothing to release
        for spec, key, value in writes:
            state = self.groups[spec.group_id]
            state.stats.writes_initiated += 1
            request = self._build_request(spec, key, value, origin)
            outstanding = _OutstandingWrite(
                request=request, started_at=self.sim.now, barrier=barrier
            )
            self._outstanding[request.token] = outstanding
            self.manager.on_write_initiated(spec, key, value, request.token)
            # The punt itself costs one control-plane op.
            self.switch.control.submit(
                self._send_write_request, request.token, label="sro-write-send"
            )
        if self.obs.on:
            self.obs.emit("sro.outstanding", self.switch.name, outstanding=len(self._outstanding))

    # ------------------------------------------------------------------
    # Data-plane write buffering (section 9 open question, realized)
    # ------------------------------------------------------------------
    def _initiate_dataplane(
        self,
        writes: List[Tuple[RegisterSpec, Any, Any]],
        output_packet: Optional[Packet],
        output_dst: Optional[str],
        on_release=None,
        origin: str = "dataplane",
    ) -> None:
        if self.switch.failed:
            # A dead pipeline makes no pass: nothing to send, hold or
            # count (no packet reaches it; only a driver's direct
            # ``register_write`` can).
            return
        barrier_token = WriteToken(self.switch.name, next(self._token_seq))
        barrier = _PacketBarrier(
            barrier_token, remaining=len(writes), on_release=on_release
        )
        write_tokens: List[WriteToken] = []
        for spec, key, value in writes:
            state = self.groups[spec.group_id]
            state.stats.writes_initiated += 1
            request = self._build_request(spec, key, value, origin)
            outstanding = _OutstandingWrite(
                request=request, started_at=self.sim.now, barrier=barrier
            )
            self._outstanding[request.token] = outstanding
            write_tokens.append(request.token)
            self.manager.on_write_initiated(spec, key, value, request.token)
            self._dp_send_request(request)
        if self.obs.on:
            self.obs.emit("sro.outstanding", self.switch.name, outstanding=len(self._outstanding))
        # A hold always exists: it is both the output buffer *and* the
        # data-plane retransmission timer.  Writes with no output packet
        # (control-plane-originated) recirculate a generated marker
        # packet instead, discarded at release.
        hold = _DataplaneHold(
            token=barrier_token,
            packet=output_packet,
            dst_node=output_dst if output_packet is not None else None,
            write_tokens=write_tokens,
            counted_through=self.sim.now,
        )
        self._dp_holds[barrier_token] = hold
        self.dp_holds_created += 1
        self._dp_arm(hold)

    def _dp_send_request(self, request: WriteRequest) -> None:
        """Emit a write request from the data plane — no CPU involved."""
        state = self.groups.get(request.group)
        if state is None:
            return
        head = state.chain.head
        self._stamp_send(request, head, dataplane=True)
        if head == self.switch.name:
            self.sim.call_soon(self._receive_write_request, request, label="sro-dp-self-head")
            return
        packet = Packet(
            swishmem=SwiShmemHeader(
                op=SwiShmemOp.WRITE_REQUEST, register_group=request.group, dst_node=head
            ),
            swishmem_payload=request,
            trace=request.trace,
        )
        self.switch.forward_to_node(packet, head)

    def _dp_charge(self, hold: _DataplaneHold, passes: int) -> None:
        """Account ``passes`` recirculations of a held packet."""
        hold.recirculations += passes
        self.dp_recirculations += passes
        self.switch.stats.recirculated_packets += passes

    def _dp_arm(self, hold: _DataplaneHold) -> None:
        """Schedule the hold's next retransmitting pass, the only pass
        that is a kernel event."""
        hold.armed = self.sim.schedule_at(
            _pass_instant(hold.counted_through, DP_RESEND_EVERY),
            self._dp_resend,
            hold,
            label="sro-dp-hold",
        )

    def _dp_settle(self, hold: _DataplaneHold) -> None:
        """Charge the passes made since the last charged one, strictly
        before now."""
        self._dp_charge(hold, _passes_before(hold.counted_through, self.sim.now))

    def _dp_end(self, hold: _DataplaneHold) -> None:
        """The held packet (already out of ``_dp_holds``) leaves the
        pipeline: charge its last passes and disarm it."""
        self._dp_settle(hold)
        hold.armed.cancel()

    def _dp_resend(self, hold: _DataplaneHold) -> None:
        """The armed event: the ``DP_RESEND_EVERY``-th pass since the
        last charged one.  Nothing touches a live hold in between, so
        the whole stretch is charged here, this pass included."""
        self._dp_charge(hold, DP_RESEND_EVERY)
        hold.counted_through = self.sim.now
        hold.resends += 1
        self.dp_resends += 1
        if hold.resends > DP_MAX_RESENDS:
            self._dp_give_up(hold)
            return
        for write_token in hold.write_tokens:
            outstanding = self._outstanding.get(write_token)
            if outstanding is not None:
                state = self.groups[outstanding.request.group]
                state.stats.retries += 1
                if self.obs.on:
                    self.obs.emit("sro.write.retry", self.switch.name)
                self._dp_send_request(outstanding.request)
        self._dp_arm(hold)

    def _dp_give_up(self, hold: _DataplaneHold) -> None:
        # Called from the armed event: every pass is charged, nothing is armed.
        del self._dp_holds[hold.token]
        self.dp_drops += 1
        for write_token in hold.write_tokens:
            outstanding = self._outstanding.pop(write_token, None)
            if outstanding is not None:
                state = self.groups[outstanding.request.group]
                state.stats.writes_failed += 1
        if self.obs.on:
            self.obs.emit("sro.outstanding", self.switch.name, outstanding=len(self._outstanding))
        if hold.packet is not None:
            self.switch.drop(hold.packet, reason="dp-write-giveup")

    def pipeline_lost(self) -> None:
        """The switch crashed: held packets are pipeline contents and go
        with it, each charged the passes it made before this instant;
        the writes they waited on are abandoned (nothing is left to
        retransmit, give up on, or release them)."""
        if not self._dp_holds:
            return
        for hold in self._dp_holds.values():
            self._dp_end(hold)
            for write_token in hold.write_tokens:
                self._outstanding.pop(write_token, None)
        self._dp_holds.clear()
        if self.obs.on:
            self.obs.emit("sro.outstanding", self.switch.name, outstanding=len(self._outstanding))

    def _send_write_request(self, token: WriteToken) -> None:
        outstanding = self._outstanding.get(token)
        if outstanding is None:
            return  # already committed
        request = outstanding.request
        state = self.groups[request.group]
        outstanding.attempts += 1
        request.attempt = outstanding.attempts - 1
        if outstanding.attempts > MAX_WRITE_ATTEMPTS:
            self._give_up(outstanding)
            return
        head = state.chain.head
        self._stamp_send(request, head, dataplane=False)
        packet = Packet(
            swishmem=SwiShmemHeader(
                op=SwiShmemOp.WRITE_REQUEST, register_group=request.group, dst_node=head
            ),
            swishmem_payload=request,
            trace=request.trace,
        )
        if head == self.switch.name:
            # We are the head: hand the request to our own data plane.
            self.sim.call_soon(self._receive_write_request, request, label="sro-self-head")
        else:
            self.switch.inject_from_cpu(packet, head)
        timeout = min(
            MAX_WRITE_TIMEOUT, self.write_timeout * (2 ** (outstanding.attempts - 1))
        )
        if outstanding.attempts > 1:
            # Desynchronize retries: writes killed together by one loss
            # burst must not all re-fire in the same instant at the head.
            # First sends keep their deterministic deadline; only retry
            # deadlines jitter, so fault-free runs draw nothing.
            timeout = min(
                MAX_WRITE_TIMEOUT, timeout * self._backoff_rng.uniform(0.5, 1.5)
            )
        outstanding.timer = self.switch.control.set_timer(
            timeout, self._retry, token, label="sro-retry"
        )

    def _retry(self, token: WriteToken) -> None:
        outstanding = self._outstanding.get(token)
        if outstanding is None:
            return
        state = self.groups[outstanding.request.group]
        state.stats.retries += 1
        if self.obs.on:
            self.obs.emit("sro.write.retry", self.switch.name)
        self._send_write_request(token)

    def _give_up(self, outstanding: _OutstandingWrite) -> None:
        request = outstanding.request
        state = self.groups[request.group]
        state.stats.writes_failed += 1
        self._outstanding.pop(request.token, None)
        if self.obs.on:
            self.obs.emit(
                "sro.write.give_up", self.switch.name, outstanding=len(self._outstanding)
            )
        if outstanding.timer is not None:
            outstanding.timer.cancel()
        barrier = outstanding.barrier
        if barrier is not None and barrier.token is not None:
            self.switch.control.drop_buffered(barrier.token)

    def _stamp_send(self, request: WriteRequest, head: str, dataplane: bool) -> None:
        """Derive a per-attempt send span; the head parents to the attempt
        that actually reached it (retries form a causal chain)."""
        parent = request.trace if request.trace is not None else self._causal.root()
        request.trace = self._causal.child(parent)
        if self.obs.on:
            self.obs.emit(
                "sro.write.send",
                self.switch.name,
                request.trace,
                group=request.group,
                key=request.key,
                next_hop=head,
                attempt=request.attempt,
                dataplane=dataplane,
            )

    # ------------------------------------------------------------------
    # Write path, chain side
    # ------------------------------------------------------------------
    def _receive_write_request(self, request: WriteRequest) -> None:
        """Head duty: sequence (or re-propagate) and start propagation."""
        state = self.groups.get(request.group)
        if state is None:
            return
        ctx = (
            self._causal.child(request.trace)
            if request.trace is not None
            else self._causal.root()
        )
        if state.chain.head != self.switch.name:
            # We are no longer head (reconfiguration raced the request);
            # drop it — the writer's retry will target the new head.
            if self.obs.on:
                self.obs.emit(
                    "sro.head.stale_drop",
                    self.switch.name,
                    ctx,
                    group=request.group,
                    key=request.key,
                    current_head=state.chain.head,
                )
            return
        remembered = state.dedup.get(request.token)
        if remembered is not None:
            seq, slot, value = remembered[:3]
        else:
            slot = state.pending.slot_of(request.key)
            seq = state.pending.assign_seq(slot)
            if request.rmw_delta is not None:
                # linearizable fetch-add: the head is the serialization
                # point, so reading its local copy here is correct
                current = state.store.get(request.key)
                value = (current if current is not None else 0) + request.rmw_delta
            else:
                value = request.value
            state.remember_token(request.token, seq, slot, value, self.sim.now)
            if self.obs.on:
                evictions = sum(g.dedup_evictions for g in self.groups.values())
                evicted = max(0, evictions - self._dedup_evictions_reported)
                self._dedup_evictions_reported += evicted
                self.obs.emit(
                    "sro.dedup",
                    self.switch.name,
                    occupancy=sum(len(g.dedup) for g in self.groups.values()),
                    evicted=evicted,
                )
        if self.obs.on:
            self.obs.emit(
                "sro.head.sequence",
                self.switch.name,
                ctx,
                group=request.group,
                key=request.key,
                seq=seq,
                slot=slot,
                epoch=state.chain.version,
                dedup_hit=remembered is not None,
            )
        update = ChainUpdate(
            group=request.group,
            key=request.key,
            value=value,
            seq=seq,
            slot=slot,
            token=request.token,
            chain=tuple(state.chain.members),
            key_bytes=request.key_bytes,
            value_bytes=request.value_bytes,
            epoch=state.chain.version,
            trace=ctx,
        )
        self._process_chain_update(update)

    def handle_chain_update(self, update: ChainUpdate) -> None:
        """A ChainUpdate packet arrived from the network."""
        state = self.groups.get(update.group)
        if state is None:
            return
        if state.spec.control_plane_state:
            # P4 tables are control-plane-writable only: the apply and
            # forward pass through this switch's CPU (paper 6.1).
            self.switch.control.submit(
                self._process_chain_update, update, label="sro-cp-apply"
            )
        else:
            self._process_chain_update(update)

    def _process_chain_update(self, update: ChainUpdate) -> None:
        state = self.groups.get(update.group)
        if state is None or self.switch.failed:
            return
        frozen = state.chaos_frozen_until > self.sim.now
        if state.chaos_drop_applies > 0 or frozen:
            # Fault injection: this member's dataplane silently loses the
            # apply (a register-write fault, section 6.3's motivating
            # failure) — either a counted drop or a frozen apply unit
            # (``stale_replica``).  The update still cuts through to the
            # successor — un-restamped, so the flight recorder sees *no*
            # span from this node and the post-mortem names it as the
            # losing hop.
            if frozen:
                # One "stale" DivergenceEvent is logged at thaw time by
                # the injector; per-drop events would double-count.
                state.chaos_frozen_drops += 1
            else:
                from repro.protocols.antientropy import DivergenceEvent

                state.chaos_drop_applies -= 1
                state.chaos_dropped_applies += 1
                self.manager.deployment.divergence_log.append(
                    DivergenceEvent(
                        group=update.group,
                        switch=self.switch.name,
                        kind="apply-drop",
                        key=update.key,
                        at=self.sim.now,
                        detail=f"{self.switch.name} dropped seq {update.seq}",
                    )
                )
            successor = update.next_hop_after(self.switch.name)
            if successor is not None:
                packet = Packet(
                    swishmem=SwiShmemHeader(
                        op=SwiShmemOp.CHAIN_UPDATE,
                        register_group=update.group,
                        dst_node=successor,
                    ),
                    swishmem_payload=update,
                    trace=update.trace,
                )
                self.switch.forward_to_node(packet, successor)
            elif update.chain and update.chain[-1] == self.switch.name:
                self._emit_acks(state, update, None)
            return
        ctx = (
            self._causal.child(update.trace)
            if update.trace is not None
            else self._causal.root()
        )
        obs = self.obs
        stats = state.stats
        stats.chain_updates_seen += 1
        if update.epoch < state.chain.version:
            # Fencing: this update was sequenced by a head operating on a
            # configuration the controller has since replaced (e.g. a
            # suspected-but-alive head after a false positive).  Reject it
            # outright — the writer's retry will go through the current
            # head under the current epoch.
            stats.fenced_updates += 1
            if obs.on:
                obs.emit(
                    "sro.chain.fenced",
                    self.switch.name,
                    ctx,
                    group=update.group,
                    key=update.key,
                    seq=update.seq,
                    update_epoch=update.epoch,
                    local_epoch=state.chain.version,
                )
            return
        slot = update.slot
        applied = state.pending.applied_seq(slot)
        is_tail = update.chain and update.chain[-1] == self.switch.name
        if update.seq <= applied:
            # Duplicate of something we already applied: do not re-apply,
            # but keep it flowing so downstream members converge.
            stats.duplicate_updates += 1
            if obs.on:
                obs.emit(
                    "sro.chain.duplicate",
                    self.switch.name,
                    ctx,
                    group=update.group,
                    key=update.key,
                    seq=update.seq,
                    applied=applied,
                )
        elif state.pending.is_next_in_order(slot, update.seq):
            state.store[update.key] = update.value
            state.pending.mark_applied(slot, update.seq)
            pending_set = state.track_pending and not is_tail
            if pending_set:
                raised = not state.pending.is_pending(slot)
                state.pending.set_pending(slot, update.seq)
            if obs.on:
                obs.emit(
                    "sro.chain.apply",
                    self.switch.name,
                    ctx,
                    group=update.group,
                    key=update.key,
                    seq=update.seq,
                    slot=slot,
                    tail=bool(is_tail),
                )
                if pending_set:
                    obs.emit(
                        "sro.pending.set",
                        self.switch.name,
                        ctx,
                        group=update.group,
                        key=update.key,
                        seq=update.seq,
                        slot=slot,
                        raised=raised,
                    )
        elif state.catching_up:
            # Recovery: gaps are covered by the snapshot replay, so the
            # catching-up switch applies out-of-order (paper 6.3).
            state.store[update.key] = update.value
            state.pending.force_applied(slot, update.seq)
            if obs.on:
                obs.emit(
                    "sro.chain.catchup",
                    self.switch.name,
                    ctx,
                    group=update.group,
                    key=update.key,
                    seq=update.seq,
                    slot=slot,
                    catchup=True,
                )
        else:
            # A gap: a predecessor's update is missing.  Stash this one
            # (bounded) and apply it the moment the gap fills — either
            # the predecessor's delayed packet or its writer's retry.
            # Only a full stash degrades to the old drop-and-wait-for-
            # retry behavior.
            stash_key = (slot, update.seq)
            if stash_key not in state.reorder:
                if len(state.reorder) >= state.reorder_capacity:
                    _, evicted = state.reorder.popitem(last=False)
                    stats.out_of_order_drops += 1
                    if obs.on:
                        # Parents to the evicted update's stash span:
                        # its write now waits for the writer's retry.
                        obs.emit(
                            "sro.chain.reorder_overflow",
                            self.switch.name,
                            evicted.trace,
                            group=evicted.group,
                            key=evicted.key,
                            seq=evicted.seq,
                            capacity=state.reorder_capacity,
                        )
                state.reorder[stash_key] = update
                stats.reorder_stashed += 1
                # Re-stamp the update onto the stash span: when the gap
                # fills, its apply parents to the stash on this node, so
                # the critical-path analyzer sees the residency as a
                # wait (split against leaderless windows) instead of an
                # impossibly slow network hop.
                if obs.on:
                    obs.emit(
                        "sro.chain.reorder_stash",
                        self.switch.name,
                        ctx,
                        group=update.group,
                        key=update.key,
                        seq=update.seq,
                        applied=applied,
                    )
                update.trace = ctx
            return
        successor = update.next_hop_after(self.switch.name)
        if successor is not None:
            # Re-stamp the update with this hop's forward span so the
            # next member parents to it — a forward span with no child
            # from ``next_hop`` is a lost hop in the post-mortem.
            update.trace = self._causal.child(ctx)
            if obs.on:
                obs.emit(
                    "sro.chain.forward",
                    self.switch.name,
                    update.trace,
                    group=update.group,
                    key=update.key,
                    seq=update.seq,
                    next_hop=successor,
                )
            packet = Packet(
                swishmem=SwiShmemHeader(
                    op=SwiShmemOp.CHAIN_UPDATE,
                    register_group=update.group,
                    dst_node=successor,
                ),
                swishmem_payload=update,
                trace=update.trace,
            )
            self.switch.forward_to_node(packet, successor)
        elif is_tail:
            self._emit_acks(state, update, ctx)
        if state.reorder:
            # The apply above may have filled the gap a stashed
            # successor was waiting on: purge entries made stale by the
            # advance, then re-process the next in-order update as if
            # its packet just arrived (it applies and keeps draining).
            now_applied = state.pending.applied_seq(slot)
            stale_keys = [
                stash_key
                for stash_key in state.reorder
                if stash_key[0] == slot and stash_key[1] <= now_applied
            ]
            for stash_key in stale_keys:
                del state.reorder[stash_key]
            follow = state.reorder.pop((slot, now_applied + 1), None)
            if follow is not None:
                stats.reorder_applied += 1
                self._process_chain_update(follow)

    def _emit_acks(
        self, state: SroGroupState, update: ChainUpdate, ctx: Any = None
    ) -> None:
        """Tail duty: acknowledge to the writer and the other members."""
        ack = WriteAck(
            group=update.group,
            key=update.key,
            seq=update.seq,
            slot=update.slot,
            token=update.token,
            key_bytes=update.key_bytes,
            value=update.value,
            value_bytes=update.value_bytes,
        )
        targets = set(update.chain) | {update.token.writer}
        targets.discard(self.switch.name)
        parent = ctx if ctx is not None else update.trace
        if parent is not None:
            # One commit span at the tail; every ack receiver parents to
            # it.  The ack object is shared across the fan-out packets,
            # so receivers derive children without re-stamping it.
            ack.trace = self._causal.child(parent)
            if self.obs.on:
                self.obs.emit(
                    "sro.ack.emit",
                    self.switch.name,
                    ack.trace,
                    group=update.group,
                    key=update.key,
                    seq=update.seq,
                    targets=",".join(sorted(targets)),
                )
        for target in sorted(targets):
            packet = Packet(
                swishmem=SwiShmemHeader(
                    op=SwiShmemOp.WRITE_ACK, register_group=update.group, dst_node=target
                ),
                swishmem_payload=ack,
                trace=ack.trace,
            )
            self.switch.forward_to_node(packet, target)
        # The tail itself may also be the writer.
        self.handle_write_ack(ack)

    def handle_write_ack(self, ack: WriteAck) -> None:
        """Data-plane ack processing: clear pending, release the writer."""
        state = self.groups.get(ack.group)
        if state is None:
            return
        state.stats.acks_seen += 1
        cleared = False
        if state.track_pending:
            cleared = state.pending.clear_pending(ack.slot, ack.seq)
        ctx = self._causal.child(ack.trace) if ack.trace is not None else None
        outstanding = self._outstanding.pop(ack.token, None)
        obs = self.obs
        if obs.on:
            obs.emit(
                "sro.ack.deliver",
                self.switch.name,
                ctx,
                group=ack.group,
                key=ack.key,
                seq=ack.seq,
                pending_cleared=cleared,
                writer=outstanding is not None,
            )
        if outstanding is None:
            return
        if outstanding.timer is not None:
            outstanding.timer.cancel()
        state.stats.writes_committed += 1
        latency = self.sim.now - outstanding.started_at
        state.stats.record_write_latency(latency)
        if obs.on:
            obs.emit(
                "sro.write.commit",
                self.switch.name,
                ctx,
                group=ack.group,
                key=ack.key,
                seq=ack.seq,
                latency_us=round(latency * 1e6, 3),
                latency=latency,
                outstanding=len(self._outstanding),
            )
        self.manager.on_write_committed(state.spec, outstanding.request.key, ack)
        barrier = outstanding.barrier
        if barrier is None:
            return
        barrier.results[ack.key] = ack.value
        barrier.remaining -= 1
        if barrier.remaining == 0 and barrier.token is not None:
            hold = self._dp_holds.pop(barrier.token, None)
            if hold is not None:
                self._dp_end(hold)
                # data-plane release: the recirculating packet exits the
                # pipeline toward its destination (marker packets for
                # output-less writes simply vanish), no CPU touch
                if hold.packet is not None and hold.dst_node is not None:
                    if barrier.on_release is not None:
                        barrier.on_release(hold.packet, barrier.results)
                    self.switch.forward_to_node(hold.packet, hold.dst_node)
            else:
                if barrier.on_release is not None:
                    buffered = self.switch.control.peek_buffered(barrier.token)
                    if buffered is not None:
                        barrier.on_release(buffered, barrier.results)
                self.switch.control.release_packet(barrier.token)

    # ------------------------------------------------------------------
    # Recovery hooks (used by repro.protocols.failover)
    # ------------------------------------------------------------------
    def snapshot(self, group_id: int) -> List[Tuple[Any, Any, int, int]]:
        """Control-plane snapshot: [(key, value, slot, seq_at_snapshot)].

        Carries each key's slot sequence at snapshot time so replayed
        writes cannot overwrite newer values (paper 6.3).
        """
        state = self.groups[group_id]
        entries = []
        for key in sorted(state.store, key=repr):
            slot = state.pending.slot_of(key)
            entries.append((key, state.store[key], slot, state.pending.applied_seq(slot)))
        return entries

    def seed_group(self, group_id: int, entries: List[Tuple[Any, Any]]) -> None:
        """Install merged values into a fresh chain group (re-level
        promotion).  Seqs are assigned per slot in entry order, so every
        member seeding the same list lands identical (store,
        applied_seq) state."""
        pending = self.groups[group_id].pending
        seq_by_slot: Dict[int, int] = {}
        for key, value in entries:
            slot = pending.slot_of(key)
            seq = seq_by_slot[slot] = seq_by_slot.get(slot, 0) + 1
            self.apply_snapshot_write(key, value, slot, seq, group_id)

    def apply_snapshot_write(self, key: Any, value: Any, slot: int, seq: int, group_id: int) -> bool:
        """Apply one replayed snapshot entry under the seq guard."""
        state = self.groups.get(group_id)
        if state is None:
            return False
        if seq >= state.pending.applied_seq(slot):
            state.store[key] = value
            state.pending.force_applied(slot, seq)
            return True
        return False

    # ------------------------------------------------------------------
    def stats_for(self, group_id: int) -> SroStats:
        return self.groups[group_id].stats
