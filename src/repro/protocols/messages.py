"""Wire formats for SwiShmem replication traffic.

Every message rides inside a packet's :class:`~repro.net.headers.SwiShmemHeader`
as ``swishmem_payload``.  Messages carry an explicit ``wire_size`` so
link-level bandwidth accounting (the section 6.2 overhead experiment)
charges realistic byte counts: keys and values are sized by the register
group's declared widths, not by Python object sizes.

Message flow summary (paper section 6):

========================  =======================================================
``WriteRequest``          writer's control plane -> chain head (SRO write)
``ChainUpdate``           hop-by-hop down the chain, per-slot sequence numbers
``WriteAck``              tail -> writer (release buffered output packet) and
                          tail -> other members (clear pending bits)
``EwoMirror``             every EWO replication packet: one or more
                          ``(group, entries)`` sections — fresh writes (a
                          counter entry: no slot, the writer's own) or,
                          under the ``EWO_SYNC`` op, a full-state answer
                          to a probe (every replica's slots, 4 B each)
``EwoSyncProbe``          periodic packet-generator digest to a random member
``SnapshotWrite``         snapshot replay toward a recovering switch (6.3)
``SnapshotAck``           recovering switch -> snapshot source
``Heartbeat``             every switch -> controller host switch (liveness)
``LeaseRenewal``          leader replica -> standby replicas (management net)
``ControllerCommand``     leader replica -> switch control plane (epoch-fenced)
``ReconstructQuery``      new leader -> every switch (state reconstruction)
``ReconstructReply``      switch -> new leader (installed chain descriptors)
``ScrubDigestQuery``      scrub coordinator -> member (digest-tree nodes)
``ScrubDigestReply``      member -> coordinator (requested node digests)
``ScrubKeyQuery``         coordinator -> member (per-key hashes of buckets)
``ScrubKeyReply``         member -> coordinator (key-hash listing)
``ScrubRepair``           authority member -> diverged member (data plane)
========================  =======================================================

The management-plane messages (from ``Heartbeat`` down, except
``ScrubRepair``) ride the out-of-band management network (scheduled
callbacks paying ``config_latency``), not the data plane.  The scrub
messages still carry ``wire_size`` (the scrubber accounts its
management-plane bytes); lease, command and reconstruction messages are
not accounted anywhere and carry none.
``ScrubRepair`` is the one anti-entropy message on the data plane: the
actual state re-propagation, subject to loss and chaos like any
replication packet.

Every data-plane message is a :class:`~repro.net.headers.WireRecord` —
a flat record whose field values are immutable, declared with
:func:`~repro.net.headers.fixed_record` (fixed slots, no ``__dict__``) —
so ``Packet.clone()`` gives each multicast, mirror or duplicate copy
its own message object (``request.attempt`` and ``update.trace`` are
reassigned in flight) while keys, values, tokens, chain tuples and EWO
entries are shared.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Any, NamedTuple, Optional, Sequence, Tuple

from repro.crdt.clock import Timestamp
from repro.net.headers import WireRecord, fixed_record

if TYPE_CHECKING:
    from repro.core.chain import ChainDescriptor

__all__ = [
    "WriteToken",
    "WriteRequest",
    "ChainUpdate",
    "TAIL",
    "WriteAck",
    "EwoEntry",
    "entries_bytes",
    "EwoSyncProbe",
    "EwoMirror",
    "SnapshotWrite",
    "SnapshotAck",
    "Heartbeat",
    "LeaseRenewal",
    "ControllerCommand",
    "ReconstructQuery",
    "ReconstructReply",
    "ScrubDigestQuery",
    "ScrubDigestReply",
    "ScrubKeyQuery",
    "ScrubKeyReply",
    "ScrubRepair",
]

#: Fixed per-message framing bytes beyond key/value payload:
#: message type (1) + group (2) + sequence (4) + token (4) + writer id (2).
_BASE_MSG_BYTES = 13

#: :meth:`ChainUpdate.role_at` of the last member (no node name equals it).
TAIL: Any = object()


def _trace_field() -> Any:
    """Causal trace context slot (:class:`repro.obs.causal.TraceContext`),
    ``None`` unless a flight recorder is attached.

    Simulator-side bookkeeping, like ``Packet.trace``: excluded from
    ``wire_size`` (stamping must never perturb serialization delay or
    chaos digests), from equality, and from repr.
    """
    return field(default=None, compare=False, repr=False)


class WriteToken(NamedTuple):
    """Identifies one in-flight SRO write for dedup, retry, and ack matching.

    ``(writer, number)`` is globally unique; the head keeps a small
    dedup table keyed by tokens so control-plane retries do not double-
    apply (they re-propagate the original sequence number instead).
    A named tuple: tokens are hashed at every dedup, retry and ack, and
    a tuple hashes and compares in C.
    """

    writer: str
    number: int

    def __str__(self) -> str:
        return f"{self.writer}#{self.number}"


@fixed_record
class WriteRequest(WireRecord):
    """SRO write submitted by the writer's control plane to the chain head."""

    group: int
    key: Any
    value: Any
    token: WriteToken
    key_bytes: int = 8
    value_bytes: int = 8
    #: Retry attempt number (0 on first send) — for diagnostics only.
    attempt: int = 0
    #: Read-modify-write: the head computes ``current + rmw_delta`` at
    #: sequencing time instead of using ``value`` (linearizable
    #: fetch-add — the in-network sequencer of paper section 9).
    rmw_delta: Optional[int] = None
    #: Causal trace context (zero wire cost — see :func:`_trace_field`).
    trace: Any = _trace_field()

    @property
    def wire_size(self) -> int:
        return _BASE_MSG_BYTES + self.key_bytes + self.value_bytes


@fixed_record
class ChainUpdate(WireRecord):
    """A sequenced write propagating down the chain.

    ``chain`` embeds the member list, per the paper's "write request
    packet headers may incorporate an IP list of the chain nodes" —
    so forwarding needs no per-switch chain routing state.
    """

    group: int
    key: Any
    value: Any
    seq: int
    slot: int
    token: WriteToken
    chain: Tuple[str, ...]
    key_bytes: int = 8
    value_bytes: int = 8
    #: Fencing epoch: the chain descriptor version the head sequenced
    #: under.  Members reject updates from an older configuration, so a
    #: suspected-but-alive head cannot commit through a repaired chain
    #: (section 6.3 split-brain protection).
    epoch: int = 0
    #: Causal trace context, re-stamped by each hop before forwarding.
    trace: Any = _trace_field()

    @property
    def wire_size(self) -> int:
        # chain IP list: 4 bytes per member; epoch: 2 bytes
        return _BASE_MSG_BYTES + self.key_bytes + self.value_bytes + 4 * len(self.chain) + 2

    def role_at(self, node: str) -> Any:
        """``TAIL`` if ``node`` is the chain's last member (it acks), else
        the member after it (it forwards), or None if not a member."""
        chain = self.chain
        if chain and chain[-1] == node:
            return TAIL
        try:
            return chain[chain.index(node) + 1]
        except ValueError:
            return None


@fixed_record
class WriteAck(WireRecord):
    """Commit acknowledgement generated by the chain tail.

    ``value`` carries the committed value back to the writer — needed by
    fetch-add callers (the assigned sequence number), harmless filler
    for blind writes.
    """

    group: int
    key: Any
    seq: int
    slot: int
    token: WriteToken
    key_bytes: int = 8
    value: Any = None
    value_bytes: int = 8
    trace: Any = _trace_field()

    @property
    def wire_size(self) -> int:
        return _BASE_MSG_BYTES + self.key_bytes + self.value_bytes


class EwoEntry(NamedTuple):
    """One register's worth of EWO state.

    For counter-mode groups, ``value`` is one replica slot's count
    (element-wise-max merge) and ``version`` names the slot: ``None`` in
    an update, where the slot is the writer's own (paper
    section 6.2: "only this switch's new version numbers and values"),
    and the receiver takes it from the message's ``origin`` — the
    writer id the framing already carries — so it costs 0 bytes; the
    replica slot index in a sync answer, which ships every replica's
    slots, at 4 bytes.  For LWW-mode groups, ``version`` is a :class:`Timestamp`
    and ``value`` the register value.

    Immutable (a named tuple, built in one call per EWO write): one
    entry object is shared by every multicast copy of the mirror that
    carries it.  On the wire an entry is its key and
    value at the group's widths plus its version (:func:`entries_bytes`).
    """

    key: Any
    version: Any
    value: Any


#: An entry version's wire bytes, by its type: a counter update's
#: ``None`` (the writer's slot, named once in the framing) is 0, an LWW
#: :class:`Timestamp` its 10; any other version is a sync's counter slot.
_VERSION_BYTES = {type(None): 0, Timestamp: Timestamp.wire_size}
_SLOT_BYTES = 4
_VERSION = attrgetter("version")


def entries_bytes(entries: Sequence[EwoEntry], key_bytes: int, value_bytes: int) -> int:
    """What ``entries`` cost on the wire at the given widths: key and
    value per entry, plus each version by its type — summed in C, with
    no frame per entry, for any mix of versions."""
    return len(entries) * (key_bytes + value_bytes) + sum(
        map(_VERSION_BYTES.get, map(type, map(_VERSION, entries)), repeat(_SLOT_BYTES))
    )


#: Per section after a mirror's first: group (2) + entry count (2).
_SECTION_BYTES = 4


@fixed_record
class EwoMirror(WireRecord):
    """Every EWO replication packet's message (paper sections 6.2 and
    7): one or more immutable ``(group, entries)`` sections from one
    switch, ``origin``.

    A switch clones the *packet* once at egress and the multicast engine
    copies that clone to the replica set, so the groups a pass wrote
    leave together when they share a fan-out: sections in first-write
    order, entries in write order.  A group alone in its fan-out, a
    control-plane write's flush and a partial-replication target's
    share leave as a one-section mirror; so does each chunk of a sync
    answer, which the header's ``EWO_SYNC`` op (not this message) marks.
    An update's counter entry names no slot: every section's writer is
    ``origin``, whichever member relays the copy; a sync answer's names
    each replica's.  On the wire it is one framing for the packet plus
    a group id and an entry count for every section after the first.
    """

    origin: str
    #: Any iterables are accepted; they are frozen into tuples, which
    #: every copy of the message then shares.
    sections: Tuple[Tuple[int, Tuple[EwoEntry, ...]], ...]
    #: ``(key_bytes, value_bytes)`` per section, default 8 and 8: they
    #: size the entries on the wire, and receivers never need them.
    widths: InitVar[Optional[Sequence[Tuple[int, int]]]] = None
    trace: Any = _trace_field()
    #: Summed once here, not per copy per hop: the sections and widths
    #: it depends on never change after construction.
    wire_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self, widths) -> None:
        # One loop freezes and sizes the sections, with no frame per
        # section but its ``entries_bytes``.
        sections = ()
        size = _BASE_MSG_BYTES
        if widths is None:
            widths = repeat((8, 8))
        for (group, entries), (key_bytes, value_bytes) in zip(self.sections, widths):
            if sections:
                size += _SECTION_BYTES
            entries = tuple(entries)
            sections += ((group, entries),)
            size += entries_bytes(entries, key_bytes, value_bytes)
        self.sections = sections
        self.wire_size = size


#: A state digest on the wire: 64 bits.
_DIGEST_BYTES = 8


@fixed_record
class EwoSyncProbe(WireRecord):
    """One periodic sync round's opening (paper section 6.2): the
    prober's 64-bit digest of the state a full sync would ship.  The
    member it reaches answers with its own full state (one-section
    :class:`EwoMirror` chunks under the ``EWO_SYNC`` op) only if its
    digest differs.

    ``digest`` holds what the hash is taken over
    (``EwoGroupState.digest``), compared whole: a collision-free
    64-bit hash, charged 8 bytes on the wire."""

    group: int
    origin: str
    digest: Any = field(repr=False)
    trace: Any = _trace_field()
    wire_size: int = field(default=_BASE_MSG_BYTES + _DIGEST_BYTES, init=False, repr=False)


@fixed_record
class SnapshotWrite(WireRecord):
    """Recovery replay of one key from a control-plane snapshot (6.3).

    Carries the sequence number captured at snapshot time "to prevent
    overwriting new values with old ones": receivers apply only if the
    snapshot seq is newer than their local seq for the key's slot.
    """

    group: int
    key: Any
    value: Any
    seq: int
    slot: int
    source: str
    key_bytes: int = 8
    value_bytes: int = 8
    #: Identifies the transfer this entry belongs to.  A duplicate ack
    #: from an older, superseded transfer to the same target must not
    #: complete a newer one, so both sides echo the id and the source
    #: drops mismatches.
    transfer_id: int = 0
    trace: Any = _trace_field()

    @property
    def wire_size(self) -> int:
        return _BASE_MSG_BYTES + self.key_bytes + self.value_bytes + 4


@fixed_record
class SnapshotAck(WireRecord):
    """Recovering switch confirms application of one snapshot write."""

    group: int
    key: Any
    seq: int
    source: str
    key_bytes: int = 8
    transfer_id: int = 0
    trace: Any = _trace_field()

    @property
    def wire_size(self) -> int:
        return _BASE_MSG_BYTES + self.key_bytes + 4


@fixed_record
class Heartbeat(WireRecord):
    """Periodic liveness beacon (controller failure detection).

    Emitted by every switch's packet generator toward the controller's
    host switch.  ``sent_at`` is the sender's wall-clock emit time, so
    the detector can distinguish a fresh beacon from one the nemesis
    delayed in flight.
    """

    origin: str
    seq: int
    sent_at: float
    trace: Any = _trace_field()

    @property
    def wire_size(self) -> int:
        # origin id (2) + seq (4) + timestamp (6) on top of framing
        return _BASE_MSG_BYTES + 12


@dataclass(frozen=True)
class LeaseRenewal:
    """Leadership lease advertisement, leader -> standby replicas.

    A standby's takeover deadline is computed from ``expires_at`` (the
    leader's own self-fencing time), never from receipt time, so the
    successor provably activates after the incumbent has stopped.
    """

    epoch: int
    replica: int
    expires_at: float
    sent_at: float


@dataclass(frozen=True)
class ControllerCommand:
    """One epoch-fenced configuration command, leader -> switch.

    Switches track the highest controller epoch they have ever obeyed
    and reject commands stamped with a lower one — a deposed leader's
    in-flight reconfiguration cannot be applied after its successor has
    taken over (section 6.3's split-brain protection, lifted from the
    chain to the controller itself).
    """

    epoch: int
    #: "set_chain" | "relevel_fence" | "relevel_switch" | "relevel_unfence".
    #: A member's catch-up status rides the descriptor ``set_chain``
    #: installs; no command of its own sets it.
    kind: str
    group: int
    payload: Any = None
    #: Frozen, so the trace is supplied at construction time.
    trace: Any = _trace_field()


@dataclass(frozen=True)
class ReconstructQuery:
    """New leader asks one switch for its replication view (all groups)."""

    epoch: int
    replica: int
    sent_at: float
    trace: Any = _trace_field()


@dataclass(frozen=True)
class ScrubDigestQuery:
    """Scrub coordinator asks one member for digest-tree nodes.

    ``indexes`` names the nodes wanted at ``level`` (0 = root): a round
    starts with the root and walks only the divergent subtrees, so the
    exchange stays proportional to the divergence, not the store.
    """

    group: int
    round_id: int
    epoch: int
    level: int
    indexes: Tuple[int, ...]
    sent_at: float = 0.0

    @property
    def wire_size(self) -> int:
        # round id (4) + epoch (4) + level (1) + 2 bytes per index
        return _BASE_MSG_BYTES + 9 + 2 * len(self.indexes)


@dataclass(frozen=True)
class ScrubDigestReply:
    """One member's digests for the requested tree nodes."""

    group: int
    round_id: int
    switch: str
    level: int
    #: (index, 64-bit digest) pairs.
    nodes: Tuple[Tuple[int, int], ...]
    chain_version: int = 0

    @property
    def wire_size(self) -> int:
        # round id (4) + level (1) + version (4) + per node: index (2) + digest (8)
        return _BASE_MSG_BYTES + 9 + 10 * len(self.nodes)


@dataclass(frozen=True)
class ScrubKeyQuery:
    """Coordinator asks a member for the per-key hashes of divergent buckets."""

    group: int
    round_id: int
    epoch: int
    buckets: Tuple[int, ...]

    @property
    def wire_size(self) -> int:
        return _BASE_MSG_BYTES + 8 + 2 * len(self.buckets)


@dataclass(frozen=True)
class ScrubKeyReply:
    """A member's (key, entry-hash) listing for the queried buckets."""

    group: int
    round_id: int
    switch: str
    #: (key, 64-bit entry hash) pairs across all queried buckets.
    entries: Tuple[Tuple[Any, int], ...]
    key_bytes: int = 8

    @property
    def wire_size(self) -> int:
        return _BASE_MSG_BYTES + 8 + (self.key_bytes + 8) * len(self.entries)


@fixed_record
class ScrubRepair(WireRecord):
    """Authoritative state of one key re-propagated to a diverged replica.

    An SRO/ERO repair is shaped like a :class:`SnapshotWrite` (``value``
    at the authority's applied ``seq`` for the key's ``slot``, under the
    same monotone guard) plus the chain ``epoch`` the scrub round was
    fenced on; an EWO repair carries the authority's cell ``entries``.
    ``decided`` is False when the scrub vote tied: the victim then
    applies only over a strictly older seq or stamp.
    """

    group: int
    key: Any
    source: str
    value: Any = None
    seq: int = 0
    slot: int = 0
    epoch: int = 0
    round_id: int = 0
    key_bytes: int = 8
    value_bytes: int = 8
    #: An EWO repair's ``(version, value)`` cell entries; empty for SRO.
    entries: Tuple[Tuple[Any, Any], ...] = ()
    decided: bool = True
    trace: Any = _trace_field()

    @property
    def wire_size(self) -> int:
        # slot/seq and the decided bit ride _BASE_MSG_BYTES framing;
        # epoch (2) + round id (4); an EWO entry's version is a stamp or a
        # counter slot (4)
        if not self.entries:
            return _BASE_MSG_BYTES + self.key_bytes + self.value_bytes + 6
        return _BASE_MSG_BYTES + self.key_bytes + 6 + sum(
            (Timestamp.wire_size if type(version) is Timestamp else 4) + self.value_bytes
            for version, _ in self.entries
        )


@dataclass(frozen=True)
class ReconstructReply:
    """A switch's answer to a :class:`ReconstructQuery`.

    ``groups`` carries the :class:`~repro.core.chain.ChainDescriptor`
    the switch has installed for each SRO group it replicates (its
    ``chain_id`` is the group), in group order — enough for a fresh
    leader to adopt any descriptor that supersedes its stale local copy
    whole, spot members it lists as catching up, and re-drive their
    catch-up.
    """

    switch: str
    epoch: int
    groups: Tuple[ChainDescriptor, ...]
    sent_at: float
    trace: Any = _trace_field()
