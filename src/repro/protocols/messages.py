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
``EwoUpdate``             asynchronous broadcast of fresh EWO writes
``EwoSync``               periodic packet-generator sync to a random member
``SnapshotWrite``         snapshot replay toward a recovering switch (6.3)
``SnapshotAck``           recovering switch -> snapshot source
``Heartbeat``             every switch -> controller host switch (liveness)
``LeaseRenewal``          leader replica -> standby replicas (management net)
``ControllerCommand``     leader replica -> switch control plane (epoch-fenced)
``ReconstructQuery``      new leader -> every switch (state reconstruction)
``ReconstructReply``      switch -> new leader (per-group chain view)
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
a flat record whose field values are immutable — so ``Packet.clone()``
gives each multicast, mirror or duplicate copy its own message object
(``request.attempt`` and ``update.trace`` are reassigned in flight)
while keys, values, tokens, chain tuples and EWO entries are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.crdt.clock import Timestamp
from repro.net.headers import WireRecord

__all__ = [
    "WriteToken",
    "WriteRequest",
    "ChainUpdate",
    "WriteAck",
    "EwoEntry",
    "EwoUpdate",
    "EwoSync",
    "SnapshotWrite",
    "SnapshotAck",
    "Heartbeat",
    "LeaseRenewal",
    "ControllerCommand",
    "ReconstructQuery",
    "GroupView",
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


def _trace_field() -> Any:
    """Causal trace context slot (:class:`repro.obs.causal.TraceContext`).

    Simulator-side bookkeeping, like ``Packet.meta``: excluded from
    ``wire_size`` (stamping must never perturb serialization delay or
    chaos digests), from equality, and from repr.
    """
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class WriteToken:
    """Identifies one in-flight SRO write for dedup, retry, and ack matching.

    ``(writer, number)`` is globally unique; the head keeps a small
    dedup table keyed by tokens so control-plane retries do not double-
    apply (they re-propagate the original sequence number instead).
    """

    writer: str
    number: int

    def __str__(self) -> str:
        return f"{self.writer}#{self.number}"


@dataclass
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


@dataclass
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

    def next_hop_after(self, node: str) -> Optional[str]:
        """The chain member after ``node``, or None if ``node`` is last."""
        try:
            index = self.chain.index(node)
        except ValueError:
            return None
        if index + 1 < len(self.chain):
            return self.chain[index + 1]
        return None


@dataclass
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


@dataclass(frozen=True)
class EwoEntry:
    """One register's worth of EWO state.

    For counter-mode groups, ``version`` is the replica slot index and
    ``value`` that slot's count (element-wise-max merge).  For LWW-mode
    groups, ``version`` is a :class:`Timestamp` and ``value`` the
    register value.

    Immutable: one entry object is shared by every multicast copy of
    the update that carries it.
    """

    key: Any
    version: Any
    value: Any

    #: Bytes per OR-Set tag on the wire (matches ORSet.TAG_BYTES).
    ORSET_TAG_BYTES = 10

    def wire_bytes(self, key_bytes: int, value_bytes: int) -> int:
        if isinstance(self.version, Timestamp):
            version_bytes = Timestamp.wire_size
        elif isinstance(self.version, tuple):
            # OR-Set delta: kind byte + 10 bytes per tag carried
            tag_count = sum(
                len(part) if isinstance(part, (tuple, frozenset, set)) else 1
                for part in self.version[1:]
            )
            version_bytes = 1 + self.ORSET_TAG_BYTES * tag_count
        else:
            version_bytes = 4
        return key_bytes + value_bytes + version_bytes


@dataclass
class EwoUpdate(WireRecord):
    """Asynchronous broadcast of fresh local writes (paper section 6.2).

    "small write update packets containing only this switch's new
    version numbers and values" — entries hold only the writer's own
    slots / newly stamped values.
    """

    group: int
    origin: str
    #: Any iterable is accepted; it is frozen into a tuple, which every
    #: copy of the message then shares.
    entries: Tuple[EwoEntry, ...] = ()
    key_bytes: int = 8
    value_bytes: int = 8
    trace: Any = _trace_field()
    #: Summed once here, not per copy per hop: the entries and widths
    #: it depends on never change after construction.
    wire_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.entries = tuple(self.entries)
        self.wire_size = _BASE_MSG_BYTES + sum(
            e.wire_bytes(self.key_bytes, self.value_bytes) for e in self.entries
        )


@dataclass
class EwoSync(EwoUpdate):
    """Periodic packet-generator sync (paper sections 6.2 and 7).

    Unlike :class:`EwoUpdate`, a sync carries *all* state the sender
    knows — every replica's slots — which is what makes the protocol
    self-healing: "any switch that did receive the update can then
    synchronize the other switches".
    """


@dataclass
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


@dataclass
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


@dataclass
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
    kind: str  # "set_chain" | "set_catching_up" | "relevel_fence" | "relevel_switch" | "relevel_unfence"
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
class GroupView:
    """One SRO group's state as reported by a switch."""

    group: int
    chain_version: int
    members: Tuple[str, ...]
    catching_up: bool


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


@dataclass
class ScrubRepair(WireRecord):
    """Authoritative state re-propagated to a diverged chain member.

    Shaped like a :class:`SnapshotWrite`: carries the authority's
    current applied ``seq`` for the key's slot so the victim applies
    under the same monotone guard ("never overwrite newer with older"),
    plus the chain ``epoch`` the scrub round was fenced on — a repair
    planned before a failover must not resurrect pre-failover state.
    """

    group: int
    key: Any
    value: Any
    seq: int
    slot: int
    source: str
    epoch: int = 0
    round_id: int = 0
    key_bytes: int = 8
    value_bytes: int = 8
    trace: Any = _trace_field()

    @property
    def wire_size(self) -> int:
        # slot/seq ride _BASE_MSG_BYTES framing; epoch (2) + round id (4)
        return _BASE_MSG_BYTES + self.key_bytes + self.value_bytes + 6


@dataclass(frozen=True)
class ReconstructReply:
    """A switch's answer to a :class:`ReconstructQuery`.

    ``groups`` carries one :class:`GroupView` per SRO group the switch
    replicates — enough for a fresh leader to rebuild chain membership,
    spot members stranded mid-catch-up, and adopt any descriptor newer
    than its stale local copy.
    """

    switch: str
    epoch: int
    groups: Tuple[GroupView, ...]
    sent_at: float
    trace: Any = _trace_field()
