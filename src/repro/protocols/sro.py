"""The read-optimized replication protocols: SRO and ERO (paper section 6.1).

SRO adapts chain replication to the in-switch setting:

* **Writes** never apply immediately at the writer.  The output packet
  P' is held while the writes of the packet's write set Q go to the
  chain head as ``WriteRequest``s and are retransmitted until acked; P'
  is released when the last one commits.  One write-set record
  (``_WriteSet``) carries that lifecycle — start, send, retransmit,
  give up, release, abandon — on either of two hold media, fixed when
  the set starts:

  - the **control plane** (section 6.1, the default): P' is punted to
    the CPU, buffered in DRAM and re-injected at release; every send
    is a CPU op and every write has its own backoff timer
    (``MAX_WRITE_ATTEMPTS`` sends);
  - the **data plane** (section 9, when every group in Q is declared
    with ``dataplane_write_buffering``): P' recirculates in the
    pipeline, and one armed pass per set retransmits every unacked
    write with no CPU involved (``DP_MAX_RESENDS`` resends).  Of that
    hold only the *retransmitting* passes are simulated (one kernel
    event each); the passes between are counted by arithmetic when the
    hold is next touched — see :class:`_WriteSet`.

* The **chain side** is one case table (``Row``), each case one
  transaction over a group's registers on one switch:

  - the **head** sequences a write per slot (slots may be shared between
    keys, section 7), re-sends a retried token's original sequence, or
    drops a request that reached a former head;
  - a **member**, the head included, fences an update from an older
    epoch, passes a duplicate on, applies the next sequence number (its
    pending bit set) and forwards it, applies past a gap while catching
    up, and otherwise holds it in a bounded stash until the gap fills;
  - the **tail** applies without a pending bit and acks to the writer,
    which releases the held output, and to the other members, which
    clear their bits (pure data plane: section 3.3).

* **Reads** are local when the key's pending bit is clear.  Otherwise a
  data-plane read forwards its input packet to the read tail, which
  re-processes it against the latest committed state (CRAQ-derived).

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
"""

from __future__ import annotations

import itertools

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, TYPE_CHECKING,
)

from repro.core.chain import ChainDescriptor
from repro.core.pending import PendingTable
from repro.core.registers import Consistency, FetchAdd, ReadForwarded, RegisterSpec
from repro.net.headers import SwiShmemHeader, SwiShmemOp
from repro.net.packet import Packet
from repro.protocols.messages import TAIL, ChainUpdate, WriteAck, WriteRequest, WriteToken
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
    """Writer-side state for one in-flight write of a write set."""

    request: WriteRequest
    write_set: "_WriteSet"
    #: The backoff timer (control-plane medium only).
    timer: Any = None
    started_at: float = 0.0
    #: Sends so far (control-plane medium only: a data-plane hold counts
    #: its resends per set instead).
    attempts: int = 0
    #: False once the write committed, failed or was abandoned (left
    #: ``SroEngine._outstanding``): a send still queued on the CPU is
    #: void.
    live: bool = True


@dataclass
class _WriteSet:
    """One packet's write set Q and its output P' on the writer, from
    the punt to the last ack.  The output is released when the *last*
    write commits.

    ``dataplane`` is the hold medium, fixed when the set starts: the
    control plane (section 6.1) parks the output in DRAM and gives each
    write a CPU backoff timer; the data plane (section 9) keeps the
    output in the pipeline by recirculation, and one armed pass per set
    retransmits every write still unacked — buffering and retransmission
    with no CPU involvement.

    **Simulated vs accounted** (data plane).  Only a retransmitting pass
    does anything, so only it is a kernel event: ``armed`` is that one
    event, re-armed from itself and cancelled when the hold ends.  The
    63 passes in between touch nothing but counters, and are charged
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
    dataplane: bool
    #: Writes still unacked.
    remaining: int
    #: called with (output_packet, results) just before the output is
    #: released — the hook sequencer-style NFs use to stamp the packet
    on_release: Optional[Any] = None
    #: The output and where it goes (None: nothing to release; a
    #: data-plane hold then recirculates a marker packet, discarded at
    #: release).  The control-plane medium also parks it in DRAM.
    packet: Optional[Any] = None
    dst_node: Optional[str] = None
    #: The set's writes, by token: a record that referred back to its
    #: set would make a cycle, left for the garbage collector to free.
    writes: List[WriteToken] = field(default_factory=list)
    #: committed values by key (fetch-add results ride the acks)
    results: Dict[Any, Any] = field(default_factory=dict)
    #: Data plane: the instant of the last pass already charged (the
    #: hold's start, then each retransmitting pass).
    counted_through: float = 0.0
    recirculations: int = 0
    resends: int = 0
    #: Data plane: the kernel event of the next retransmitting pass.
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
        "writes_abandoned",
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
        # remembered-at); see the dedup-hit row.  The epoch (the chain
        # version at remember time) bounds the table's lifetime: entries from
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
        #: Read off the installed descriptor by ``SroEngine.set_chain``.
        self.catching_up = False
        #: Bounded reorder stash: (slot, seq) -> ChainUpdate held until
        #: its gap fills (the stash rows below): dropping it instead can
        #: wedge the slot for good once its writers run out of retries.
        #: Modeled as recirculation (the update keeps a
        #: pipeline pass, like the section 9 buffering variant), so it
        #: costs no register budget; FIFO-bounded.
        self.reorder: "OrderedDict[Tuple[int, int], Any]" = OrderedDict()
        self.reorder_capacity = 64
        self.stats = SroStats()

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

    def next_stashed(self, slot: int) -> Optional[ChainUpdate]:
        """Drop the stashed updates of ``slot`` that its applied seq has
        passed and take out the next in-order one, if it waits here."""
        applied = self.pending.applied_seq(slot)
        reorder = self.reorder
        for stash_key in [k for k in reorder if k[0] == slot and k[1] <= applied]:
            del reorder[stash_key]
        follow = reorder.pop((slot, applied + 1), None)
        if follow is not None:
            self.stats.reorder_applied += 1
        return follow


# ----------------------------------------------------------------------
# The chain side as one case table (paper 6.1)
# ----------------------------------------------------------------------
#: What happens after a row (``Row.then``): nothing more; the head hands
#: its sequenced update to this switch's member rows; a member passes the
#: update on by role (forward or ack) and then drains the stash.
STOP, PASS, DRAIN = range(3)


class Row(NamedTuple):
    """One case of the chain side.  ``run`` is its transaction over one
    group's ``SroGroupState`` — it sees that and the message, never the
    simulator, a packet or the spine — and returns a note; ``report``
    emits the case's event kinds from the note, in order, and runs only
    while the spine is on.  A member row runs on ``(state, update,
    applied, role, ctx)``: the slot's applied seq, the update's
    ``role_at`` this switch and this step's span.  A head row runs on
    ``(state, request, now)`` and notes ``(seq, slot, value, dedup_hit)``."""

    name: str
    then: int
    run: Callable[..., Any]
    report: Callable[..., None]


def _fenced(state, update, applied, role, ctx):
    """From a replaced configuration's head: rejected (the writer retries)."""
    state.stats.fenced_updates += 1


def _report_fenced(engine, ctx, state, update, applied, role, note):
    engine.obs.emit(
        "sro.chain.fenced", engine.switch.name, ctx, group=update.group, key=update.key,
        seq=update.seq, update_epoch=update.epoch, local_epoch=state.chain.version,
    )


def _duplicate(state, update, applied, role, ctx):
    """Applied here already: passed on, not re-applied, for downstream."""
    state.stats.duplicate_updates += 1


def _report_duplicate(engine, ctx, state, update, applied, role, note):
    engine.obs.emit(
        "sro.chain.duplicate", engine.switch.name, ctx, group=update.group, key=update.key,
        seq=update.seq, applied=applied,
    )


def _in_order(state, update, applied, role, ctx):
    """Apply, and set the slot's pending bit unless this member is the
    tail or the group is ERO; notes whether the bit rose (None: unset)."""
    state.store[update.key] = update.value
    state.pending.mark_applied(update.slot, update.seq)
    if state.track_pending and role is not TAIL:
        return state.pending.set_pending(update.slot, update.seq)
    return None


def _report_in_order(engine, ctx, state, update, applied, role, note):
    engine.obs.emit(
        "sro.chain.apply", engine.switch.name, ctx, group=update.group, key=update.key,
        seq=update.seq, slot=update.slot, tail=role is TAIL,
    )
    if note is not None:
        engine.obs.emit(
            "sro.pending.set", engine.switch.name, ctx, group=update.group, key=update.key,
            seq=update.seq, slot=update.slot, raised=note,
        )


def _catch_up(state, update, applied, role, ctx):
    """A gap while catching up: the snapshot replay covers it (6.3)."""
    state.store[update.key] = update.value
    state.pending.force_applied(update.slot, update.seq)


def _report_catch_up(engine, ctx, state, update, applied, role, note):
    engine.obs.emit(
        "sro.chain.catchup", engine.switch.name, ctx, group=update.group, key=update.key,
        seq=update.seq, slot=update.slot, catchup=True,
    )


def _stashed(state, update, applied, role, ctx):
    """A copy of an update already in the stash: nothing to do."""


def _stash(state, update, applied, role, ctx):
    """A gap: held until the predecessor's late packet or retry fills it.
    Re-stamped with the stash span, so its apply parents to the stash
    (the critical path reads the stay as a wait, not a slow hop)."""
    state.reorder[(update.slot, update.seq)] = update
    state.stats.reorder_stashed += 1
    update.trace = ctx


def _report_stash(engine, ctx, state, update, applied, role, note):
    engine.obs.emit(
        "sro.chain.reorder_stash", engine.switch.name, ctx, group=update.group,
        key=update.key, seq=update.seq, applied=applied,
    )


def _stash_full(state, update, applied, role, ctx):
    """Evict the stash's oldest update (its write now waits for its
    writer's retry), then stash; notes the evicted update."""
    _, evicted = state.reorder.popitem(last=False)
    state.stats.out_of_order_drops += 1
    _stash(state, update, applied, role, ctx)
    return evicted


def _report_stash_full(engine, ctx, state, update, applied, role, note):
    engine.obs.emit(  # parented to the evicted update's stash span
        "sro.chain.reorder_overflow", engine.switch.name, note.trace, group=note.group,
        key=note.key, seq=note.seq, capacity=state.reorder_capacity,
    )
    _report_stash(engine, ctx, state, update, applied, role, note)


FENCED = Row("fenced", STOP, _fenced, _report_fenced)
DUPLICATE = Row("duplicate", DRAIN, _duplicate, _report_duplicate)
IN_ORDER = Row("in_order", DRAIN, _in_order, _report_in_order)
CATCH_UP = Row("catch_up", DRAIN, _catch_up, _report_catch_up)
STASHED = Row("stashed", STOP, _stashed, lambda *_: None)  # no event
STASH_FULL = Row("stash_full", STOP, _stash_full, _report_stash_full)
STASH = Row("stash", STOP, _stash, _report_stash)


def chain_row(state: SroGroupState, update: ChainUpdate, applied: int) -> Row:
    """The member row of ``update`` where ``state``'s slot has applied
    ``applied``: by epoch, then seq, then (past a gap) catch-up and the
    stash."""
    if update.epoch < state.chain.version:
        return FENCED
    seq = update.seq
    if seq <= applied:
        return DUPLICATE
    if seq == applied + 1:
        return IN_ORDER
    if state.catching_up:
        return CATCH_UP
    if (update.slot, seq) in state.reorder:
        return STASHED
    if len(state.reorder) >= state.reorder_capacity:
        return STASH_FULL
    return STASH


def _stale_head(state, request, now):
    """Not head any more (a reconfiguration raced the request): dropped."""


def _report_stale_head(engine, ctx, state, request, note):
    engine.obs.emit(
        "sro.head.stale_drop", engine.switch.name, ctx, group=request.group, key=request.key,
        current_head=state.chain.head,
    )


def _dedup_hit(state, request, now):
    """A retry of a sequenced token: its seq, slot and value again (a
    fetch-add must not add twice)."""
    seq, slot, value = state.dedup[request.token][:3]
    return seq, slot, value, True


def _sequence(state, request, now):
    """Assign the slot's next seq and remember the token.  A fetch-add
    adds to the head's own copy: the head is the serialization point."""
    slot = state.pending.slot_of(request.key)
    seq = state.pending.assign_seq(slot)
    value = request.value
    if request.rmw_delta is not None:
        current = state.store.get(request.key)
        value = (current if current is not None else 0) + request.rmw_delta
    state.remember_token(request.token, seq, slot, value, now)
    return seq, slot, value, False


def _report_sequenced(engine, ctx, state, request, note):
    seq, slot, _, dedup_hit = note
    if not dedup_hit:
        evictions = occupancy = 0
        for group in engine.groups.values():
            evictions += group.dedup_evictions
            occupancy += len(group.dedup)
        evicted = max(0, evictions - engine._dedup_evictions_reported)
        engine._dedup_evictions_reported += evicted
        engine.obs.emit("sro.dedup", engine.switch.name, occupancy=occupancy, evicted=evicted)
    engine.obs.emit(
        "sro.head.sequence", engine.switch.name, ctx, group=request.group, key=request.key,
        seq=seq, slot=slot, epoch=state.chain.version, dedup_hit=dedup_hit,
    )


STALE_HEAD = Row("stale_head", STOP, _stale_head, _report_stale_head)
DEDUP_HIT = Row("dedup_hit", PASS, _dedup_hit, _report_sequenced)
SEQUENCE = Row("sequence", PASS, _sequence, _report_sequenced)


def head_row(state: SroGroupState, request: WriteRequest, node: str) -> Row:
    """The head row of ``request`` at ``node``."""
    if state.chain.head != node:
        return STALE_HEAD
    if request.token in state.dedup:
        return DEDUP_HIT
    return SEQUENCE


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
        # Live data-plane holds (section 9; a crash takes them) and
        # their accounting.
        self._dp_holds: Dict[WriteToken, _WriteSet] = {}
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
        outstanding (a crashed writer's abandoned retry), it is abandoned
        (``_abandon``).  Frees the group's memory budget.  Removing an
        absent group is a no-op so a resumed handoff can replay the
        command.  Returns the number of abandoned writes.
        """
        state = self.groups.get(group_id)
        if state is None:
            return 0
        doomed = [
            token
            for token, outstanding in self._outstanding.items()
            if outstanding.request.group == group_id
        ]
        self._abandon(doomed)
        del self.groups[group_id]
        obs = self.obs
        if obs.on:
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
        if chain.supersedes(state.chain):
            advanced = chain.version > state.chain.version
            state.chain = chain
            state.catching_up = self.switch.name in chain.catching_up
            if advanced and state.dedup:
                evicted = state.evict_dedup_epochs(chain.version, self.sim.now)
                if evicted and self.obs.on:
                    self._dedup_evictions_reported += evicted
                    self.obs.emit(
                        "sro.dedup", self.switch.name,
                        occupancy=sum(len(g.dedup) for g in self.groups.values()),
                        evicted=evicted,
                    )

    # ------------------------------------------------------------------
    # Read path (paper 6.1 "Reads")
    # ------------------------------------------------------------------
    def read(self, spec: RegisterSpec, key: Any, default: Any, packet: Optional[Packet]) -> Any:
        """The read rows.  *Tail*: at the read tail, or for a packet the
        read tail marked at-tail.  *Forward*: a data-plane read of a key
        whose pending bit is set re-runs at the read tail (CRAQ).
        *Local*: any other read — a control-plane read with a write in
        flight included (peek semantics)."""
        state = self.groups[spec.group_id]
        if self.switch.name == state.chain.read_tail or (
            packet is not None and spec.group_id in packet.at_tail_groups
        ):
            state.stats.tail_reads += 1
            if self.obs.on:
                self.obs.emit("sro.read.tail", self.switch.name)
        elif (
            packet is not None
            and state.track_pending
            and state.pending.is_pending(state.pending.slot_of(key))
        ):
            state.stats.forwarded_reads += 1
            self._forward_read(state, packet)
            raise ReadForwarded(spec.group_id, key, state.chain.read_tail)
        else:
            state.stats.local_reads += 1
            if self.obs.on:
                self.obs.emit("sro.read.local", self.switch.name)
        return state.store.get(key, default if default is not None else spec.default)

    def _forward_read(self, state: SroGroupState, packet: Packet) -> None:
        """Encapsulate the input packet toward the read tail (CRAQ read)."""
        group, read_tail = state.spec.group_id, state.chain.read_tail
        packet.swishmem = SwiShmemHeader(
            op=SwiShmemOp.READ_FORWARD, register_group=group, dst_node=read_tail
        )
        packet.swishmem_payload = None
        packet.trace = self._causal.root()
        if self.obs.on:
            self.obs.emit(
                "sro.read.forward", self.switch.name, packet.trace, group=group,
                next_hop=read_tail,
            )
        self.switch.forward_to_node(packet, read_tail)

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
                        "sro.read.chase", self.switch.name, packet.trace, group=group_id,
                        next_hop=state.chain.read_tail,
                    )
            packet.swishmem.dst_node = state.chain.read_tail
            self.switch.forward_to_node(packet, state.chain.read_tail)
            return True
        if self.obs.on:
            self.obs.emit("sro.read.arrive", self.switch.name, packet.trace, group=group_id)
        packet.swishmem = None
        # Replaced, not updated in place: packet copies share the set.
        packet.at_tail_groups = packet.at_tail_groups | {group_id}
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
        """Start a write set: hold P' until every write in Q commits.

        ``writes`` is [(spec, key, value)]; the output packet may be
        None (nothing to release).  ``origin`` records who initiated the
        set — ``"dataplane"`` for packet passes, ``"control"`` for
        management-API writes — purely for the access profiler (the
        protocol treats both identically).

        The hold medium is the data plane when every group is declared
        with ``dataplane_write_buffering`` (no CPU); any other set,
        mixed ones included, takes the conservative control-plane punt.
        """
        if not writes:
            return
        if self.switch.failed:
            # A dead switch has no pipeline pass and no CPU on either
            # medium: nothing to send, hold or count (no packet reaches
            # it; only a driver's direct ``register_write`` can).
            return
        dataplane = all(spec.dataplane_write_buffering for spec, _, _ in writes)
        now = self.sim.now
        write_set = _WriteSet(
            WriteToken(self.switch.name, next(self._token_seq)),
            dataplane,
            len(writes),
            on_release,
            counted_through=now,
        )
        if output_packet is not None and output_dst is not None:
            write_set.packet, write_set.dst_node = output_packet, output_dst
            if not dataplane:
                self.switch.control.buffer_packet(write_set.token, output_packet, output_dst)
        for spec, key, value in writes:
            state = self.groups[spec.group_id]
            state.stats.writes_initiated += 1
            request = self._build_request(spec, key, value, origin)
            outstanding = _OutstandingWrite(request, write_set, started_at=now)
            self._outstanding[request.token] = outstanding
            write_set.writes.append(request.token)
            self.manager.on_write_initiated(spec, key, value, request.token)
            if dataplane:
                self._send(outstanding)
            else:
                # The punt itself costs one control-plane op.
                self.switch.control.submit(self._send, outstanding, label="sro-write-send")
        if self.obs.on:
            self.obs.emit("sro.outstanding", self.switch.name, outstanding=len(self._outstanding))
        if dataplane:
            # The hold is both the output buffer *and* the set's
            # retransmission timer, so it exists even with no output.
            self._dp_holds[write_set.token] = write_set
            self.dp_holds_created += 1
            self._dp_arm(write_set)

    def _send(self, outstanding: _OutstandingWrite) -> None:
        """Send one attempt of a write to its chain head: from the CPU,
        arming the write's backoff timer (control plane), or straight
        from the pipeline, whose hold is the timer (data plane)."""
        if not outstanding.live:
            return  # already committed, failed or abandoned
        request = outstanding.request
        dataplane = outstanding.write_set.dataplane
        if not dataplane:
            outstanding.attempts += 1
            request.attempt = outstanding.attempts - 1
            if outstanding.attempts > MAX_WRITE_ATTEMPTS:
                self._give_up(outstanding.write_set, (request.token,))
                return
        head = self.groups[request.group].chain.head
        self._stamp_send(request, head, dataplane)
        if head == self.switch.name:
            # We are the head: hand the request to our own data plane.
            self.sim.post(0.0, self._receive_write_request, request)
        else:
            packet = Packet(
                swishmem=SwiShmemHeader(
                    op=SwiShmemOp.WRITE_REQUEST, register_group=request.group, dst_node=head
                ),
                swishmem_payload=request,
                trace=request.trace,
                uid=next(self.sim.packet_ids),
            )
            if dataplane:
                self.switch.forward_to_node(packet, head)
            else:
                self.switch.inject_from_cpu(packet, head)
        if dataplane:
            return
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
            timeout, self._retransmit, request.token, label="sro-retry"
        )

    def _retransmit(self, token: WriteToken) -> None:
        """Send an unacked write again: its backoff timer expired
        (control plane) or its hold's retransmitting pass came round
        (data plane)."""
        outstanding = self._outstanding.get(token)
        if outstanding is None:
            return
        self.groups[outstanding.request.group].stats.retries += 1
        if self.obs.on:
            self.obs.emit("sro.write.retry", self.switch.name)
        self._send(outstanding)

    def _give_up(self, write_set: _WriteSet, failed: Iterable[WriteToken]) -> None:
        """Fail the ``failed`` writes still outstanding for good and drop
        the set's output: one write out of attempts (control plane), or
        every write still unacked when the hold runs out of resends
        (data plane)."""
        for token in failed:
            outstanding = self._outstanding.pop(token, None)
            if outstanding is None:
                continue
            outstanding.live = False
            self.groups[outstanding.request.group].stats.writes_failed += 1
            if self.obs.on:
                self.obs.emit(
                    "sro.write.give_up", self.switch.name, outstanding=len(self._outstanding)
                )
            if outstanding.timer is not None:
                outstanding.timer.cancel()
        self._unhold(write_set)
        if write_set.dataplane:
            self.dp_drops += 1
            if write_set.packet is not None:
                self.switch.drop(write_set.packet, reason="dp-write-giveup")

    def _unhold(self, write_set: _WriteSet) -> None:
        """Take the output out of its hold unsent: a live data-plane hold
        is charged its last passes and disarmed; the control plane drops
        its DRAM copy."""
        if write_set.dataplane:
            if self._dp_holds.pop(write_set.token, None) is not None:
                self._dp_settle(write_set)
                write_set.armed.cancel()
        elif write_set.packet is not None:
            self.switch.control.drop_buffered(write_set.token)

    def _abandon(self, writes: Iterable[WriteToken]) -> None:
        """Forget the ``writes`` still outstanding without failing them —
        their group was removed, or a crash took their writer — leaving
        no timer, hold or buffered output behind."""
        for token in writes:
            outstanding = self._outstanding.pop(token, None)
            if outstanding is None:
                continue
            outstanding.live = False
            self.groups[outstanding.request.group].stats.writes_abandoned += 1
            if outstanding.timer is not None:
                outstanding.timer.cancel()
            self._unhold(outstanding.write_set)
        if self.obs.on:
            self.obs.emit("sro.outstanding", self.switch.name, outstanding=len(self._outstanding))

    def pipeline_lost(self) -> None:
        """The switch crashed, CPU included: every outstanding write is
        abandoned (nothing is left to retransmit, give up on, or release
        it); a held packet goes with the pipeline, charged the passes it
        made before this instant."""
        if self._outstanding:
            self._abandon(list(self._outstanding))

    # ------------------------------------------------------------------
    # The data-plane hold's passes (section 9)
    # ------------------------------------------------------------------
    def _dp_charge(self, write_set: _WriteSet, passes: int) -> None:
        """Account ``passes`` recirculations of a held packet."""
        write_set.recirculations += passes
        self.dp_recirculations += passes
        self.switch.stats.recirculated_packets += passes

    def _dp_arm(self, write_set: _WriteSet) -> None:
        """Schedule the hold's next retransmitting pass, the only pass
        that is a kernel event."""
        write_set.armed = self.sim.schedule_at(
            _pass_instant(write_set.counted_through, DP_RESEND_EVERY),
            self._dp_resend,
            write_set,
            label="sro-dp-hold",
        )

    def _dp_settle(self, write_set: _WriteSet) -> None:
        """Charge the passes made since the last charged one, strictly
        before now."""
        self._dp_charge(write_set, _passes_before(write_set.counted_through, self.sim.now))

    def _dp_resend(self, write_set: _WriteSet) -> None:
        """The armed event: the ``DP_RESEND_EVERY``-th pass since the
        last charged one.  Nothing touches a live hold in between, so
        the whole stretch is charged here, this pass included."""
        self._dp_charge(write_set, DP_RESEND_EVERY)
        write_set.counted_through = self.sim.now
        write_set.resends += 1
        self.dp_resends += 1
        if write_set.resends > DP_MAX_RESENDS:
            self._give_up(write_set, write_set.writes)
            return
        for token in write_set.writes:
            self._retransmit(token)
        self._dp_arm(write_set)

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
    # Write path, chain side: the dispatchers of the case table
    # ------------------------------------------------------------------
    def _receive_write_request(self, request: WriteRequest) -> None:
        """The head dispatcher: run and report ``request``'s head row,
        and hand a sequenced write to this switch's member rows."""
        state = self.groups.get(request.group)
        if state is None:
            return
        causal = self._causal
        ctx = causal.child(request.trace) if request.trace is not None else causal.root()
        row = head_row(state, request, self.switch.name)
        note = row.run(state, request, self.sim.now)
        if self.obs.on:
            row.report(self, ctx, state, request, note)
        if row.then == STOP:
            return
        seq, slot, value, _ = note
        self._process_chain_update(ChainUpdate(
            group=request.group, key=request.key, value=value, seq=seq, slot=slot,
            token=request.token, chain=tuple(state.chain.members),
            key_bytes=request.key_bytes, value_bytes=request.value_bytes,
            epoch=state.chain.version, trace=ctx,
        ))

    def handle_chain_update(self, update: ChainUpdate) -> None:
        """A ChainUpdate packet arrived from the network."""
        state = self.groups.get(update.group)
        if state is not None and state.spec.control_plane_state:
            # P4 tables are control-plane-writable only: the apply and
            # forward pass through this switch's CPU (paper 6.1).
            self.switch.control.submit(self._process_chain_update, update, label="sro-cp-apply")
        else:
            self._process_chain_update(update)

    def _process_chain_update(self, update: ChainUpdate) -> None:
        """The member dispatcher: classify ``update`` from one read of
        its slot's applied seq, run and report the row, then, unless the
        row stops, forward or ack by role and drain the stash."""
        state = self.groups.get(update.group)
        if state is None or self.switch.failed:
            return
        causal = self._causal
        ctx = causal.child(update.trace) if update.trace is not None else causal.root()
        state.stats.chain_updates_seen += 1
        applied = state.pending.applied_seq(update.slot)
        role = update.role_at(self.switch.name)
        row = chain_row(state, update, applied)
        note = row.run(state, update, applied, role, ctx)
        obs = self.obs
        if obs.on:
            row.report(self, ctx, state, update, applied, role, note)
        if row.then == STOP:
            return
        if role is TAIL:
            self._emit_acks(update, ctx)
        elif role is not None:
            # Re-stamp the update with this hop's forward span so the
            # next member parents to it — a forward span with no child
            # from ``next_hop`` is a lost hop in the post-mortem.
            update.trace = causal.child(ctx)
            if obs.on:
                obs.emit(
                    "sro.chain.forward", self.switch.name, update.trace, group=update.group,
                    key=update.key, seq=update.seq, next_hop=role,
                )
            self._forward_update(update, role)
        if row.then == DRAIN and state.reorder:
            # The row may have filled the gap a stashed update waits on:
            # it is processed as if its packet just arrived.
            follow = state.next_stashed(update.slot)
            if follow is not None:
                self._process_chain_update(follow)

    def relay(self, update: ChainUpdate) -> None:
        """Pass ``update`` on un-applied: to the successor as received
        (not re-stamped: no span), or acknowledged at the tail."""
        role = update.role_at(self.switch.name)
        if role is TAIL:
            self._emit_acks(update, None)
        elif role is not None:
            self._forward_update(update, role)

    def _forward_update(self, update: ChainUpdate, successor: str) -> None:
        """Send ``update`` to ``successor`` as it stands."""
        packet = Packet(
            swishmem=SwiShmemHeader(
                op=SwiShmemOp.CHAIN_UPDATE, register_group=update.group, dst_node=successor
            ),
            swishmem_payload=update, trace=update.trace, uid=next(self.sim.packet_ids),
        )
        self.switch.forward_to_node(packet, successor)

    def _emit_acks(self, update: ChainUpdate, ctx: Any = None) -> None:
        """Tail duty: acknowledge to the writer and the other members."""
        ack = WriteAck(
            group=update.group, key=update.key, seq=update.seq, slot=update.slot,
            token=update.token, key_bytes=update.key_bytes, value=update.value,
            value_bytes=update.value_bytes,
        )
        targets = sorted({*update.chain, update.token.writer} - {self.switch.name})
        parent = ctx if ctx is not None else update.trace
        if parent is not None:
            # One commit span at the tail; every ack receiver parents to
            # it.  The ack object is shared across the fan-out packets,
            # so receivers derive children without re-stamping it.
            ack.trace = self._causal.child(parent)
            if self.obs.on:
                self.obs.emit(
                    "sro.ack.emit", self.switch.name, ack.trace, group=update.group,
                    key=update.key, seq=update.seq, targets=",".join(targets),
                )
        for target in targets:
            packet = Packet(
                swishmem=SwiShmemHeader(
                    op=SwiShmemOp.WRITE_ACK, register_group=update.group, dst_node=target
                ),
                swishmem_payload=ack,
                trace=ack.trace,
                uid=next(self.sim.packet_ids),
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
        ctx = self._causal.child(ack.trace)
        outstanding = self._outstanding.pop(ack.token, None)
        obs = self.obs
        if obs.on:
            obs.emit(
                "sro.ack.deliver", self.switch.name, ctx, group=ack.group, key=ack.key,
                seq=ack.seq, pending_cleared=cleared, writer=outstanding is not None,
            )
        if outstanding is None:
            return
        outstanding.live = False
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
        write_set = outstanding.write_set
        write_set.results[ack.key] = ack.value
        write_set.remaining -= 1
        if write_set.remaining:
            return
        # The last ack: the output leaves its hold toward its destination
        # (a data-plane marker packet simply vanishes).
        if write_set.dataplane:
            self._unhold(write_set)
        packet = write_set.packet
        if packet is None:
            return
        if write_set.on_release is not None:
            write_set.on_release(packet, write_set.results)
        if write_set.dataplane:
            self.switch.forward_to_node(packet, write_set.dst_node)
        else:
            self.switch.control.release_packet(write_set.token)

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
