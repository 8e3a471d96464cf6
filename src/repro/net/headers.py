"""Packet header definitions.

The reproduction models real header stacks so that (a) the PISA parser
has something to parse, (b) bandwidth accounting uses true on-wire sizes,
and (c) the SwiShmem replication messages ride in a header of their own,
exactly as an in-switch implementation would encapsulate them.

Headers are lightweight records rather than byte buffers: the
simulator never needs to serialize to real bytes, only to know sizes and
field values.  Each header class reports its wire size via ``wire_size``.

Every header — and every packet-borne protocol message of
``repro.protocols.messages`` — is a :class:`WireRecord`: a flat record
of immutable values, which is what lets ``Packet.clone()`` copy it one
level deep.  Each is declared with :func:`fixed_record`, as are
``Packet`` itself and an end host's ``ReceivedPacket``: a dataclass
with fixed slots and no per-instance ``__dict__``, like the
fixed-layout header vector a PISA parser fills.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Tuple

__all__ = [
    "WireRecord",
    "fixed_record",
    "EthernetHeader",
    "IPv4Header",
    "TcpHeader",
    "UdpHeader",
    "TcpFlags",
    "SwiShmemOp",
    "SwiShmemHeader",
    "FiveTuple",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_SWISHMEM",
]

PROTO_TCP = 6
PROTO_UDP = 17
#: IANA-unassigned protocol number used for SwiShmem replication traffic.
PROTO_SWISHMEM = 0xFD


class WireRecord:
    """Base of everything a packet carries by reference: the headers
    here and the messages in ``repro.protocols.messages``.

    A wire record is a *flat* :func:`fixed_record`.  Its fields may be
    reassigned (``ipv4.ttl -= 1``, ``update.trace = ctx``), but every
    value they hold — strings, numbers, enums, tuples, frozen
    dataclasses, register keys and values — is immutable and only ever
    replaced, never mutated in place.  One level of copying therefore
    yields a record that is fully independent of the original while
    sharing every leaf, and ``Packet.clone()`` relies on exactly that.

    ``copy()`` is that one level: :func:`fixed_record` generates it for
    each class as straight-line code that assigns every slot, so it
    costs one Python call and no detour through ``copy.copy``'s pickle
    protocol (it runs for every header of every fan-out copy).
    """

    __slots__ = ()


def fixed_record(cls):
    """Declare ``cls`` a dataclass whose instances have fixed slots.

    Applies ``@dataclass``, then rebuilds the class with ``__slots__``
    taken from its fields — what ``dataclass(slots=True)`` does on
    Python 3.10+, written out so it runs on 3.9.  An ``init=False``
    field with a default (a header's ``wire_size``) is a per-class
    constant and stays a class attribute; every other field is a slot.
    A subclass declares only the slots its bases lack.  A
    :class:`WireRecord` also gets its generated ``copy()``.
    """
    cls = dataclass(cls)
    names = tuple(f.name for f in fields(cls) if f.init or f.default is MISSING)
    inherited = set()
    for base in cls.__mro__[1:]:
        inherited.update(getattr(base, "__slots__", ()))
    namespace = dict(cls.__dict__)
    for name in names:
        namespace.pop(name, None)
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    namespace["__slots__"] = tuple(name for name in names if name not in inherited)
    slotted = type(cls)(cls.__name__, cls.__bases__, namespace)
    slotted.__qualname__ = cls.__qualname__
    if issubclass(slotted, WireRecord):
        # Compiled under a code filename of its own, so a profile counts
        # each class's copy apart (pstats keys by file, line and name).
        body = "".join(f"    duplicate.{name} = self.{name}\n" for name in names)
        source = f"def copy(self):\n    duplicate = _new(_cls)\n{body}    return duplicate\n"
        scope = {"_new": object.__new__, "_cls": slotted}
        exec(compile(source, f"<fixed_record {cls.__qualname__}.copy>", "exec"), scope)
        slotted.copy = scope["copy"]
        slotted.copy.__qualname__ = f"{cls.__qualname__}.copy"
    return slotted


@fixed_record
class EthernetHeader(WireRecord):
    """Simplified Ethernet II header."""

    src_mac: str = "00:00:00:00:00:00"
    dst_mac: str = "00:00:00:00:00:00"
    ethertype: int = 0x0800  # IPv4

    wire_size: int = field(default=14, init=False, repr=False)


@fixed_record
class IPv4Header(WireRecord):
    """IPv4 header (options not modeled)."""

    src: str = "0.0.0.0"
    dst: str = "0.0.0.0"
    protocol: int = PROTO_TCP
    ttl: int = 64
    dscp: int = 0
    identification: int = 0

    wire_size: int = field(default=20, init=False, repr=False)


class TcpFlags(enum.IntFlag):
    """TCP control flags relevant to the stateful NFs."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


@fixed_record
class TcpHeader(WireRecord):
    """TCP header (no options)."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: TcpFlags = TcpFlags.NONE

    wire_size: int = field(default=20, init=False, repr=False)


@fixed_record
class UdpHeader(WireRecord):
    """UDP header."""

    src_port: int = 0
    dst_port: int = 0

    wire_size: int = field(default=8, init=False, repr=False)


class SwiShmemOp(enum.Enum):
    """Operations carried by the SwiShmem replication header (paper section 6).

    SRO chain protocol:
      WRITE_REQUEST  — control plane of the writer switch -> chain head
      CHAIN_UPDATE   — propagated hop by hop down the chain
      WRITE_ACK      — tail -> writer (release buffered packet) and
                       tail -> chain members (clear pending bits)
      READ_FORWARD   — pending-bit hit: packet forwarded to tail for
                       processing against the latest committed value

    EWO protocol (both data ops carry an ``EwoMirror``; the op alone
    says which it is):
      EWO_UPDATE     — asynchronous multicast of fresh (version, value)
                       pairs
      EWO_SYNC_PROBE — periodic packet-generator digest of a member's
                       group state, sent to a random member
      EWO_SYNC       — that member's full state, sent back only when
                       its digest differs (scrub repair rides in
                       SCRUB_REPAIR, not here)

    Recovery (section 6.3):
      SNAPSHOT_WRITE — snapshot replay toward a recovering switch
      SNAPSHOT_ACK   — recovering switch confirms one replayed entry

    Failure detection (section 6.3):
      HEARTBEAT      — periodic liveness beacon from every switch toward
                       the controller's host switch (data-plane packet
                       generator traffic; loss/partition affects it like
                       any other packet)

    Anti-entropy (repro.protocols.antientropy):
      SCRUB_REPAIR   — authoritative state of one key re-propagated to
                       a diverged replica located by digest scrub
    """

    WRITE_REQUEST = "write_request"
    CHAIN_UPDATE = "chain_update"
    WRITE_ACK = "write_ack"
    READ_FORWARD = "read_forward"
    EWO_UPDATE = "ewo_update"
    EWO_SYNC = "ewo_sync"
    EWO_SYNC_PROBE = "ewo_sync_probe"
    SNAPSHOT_WRITE = "snapshot_write"
    SNAPSHOT_ACK = "snapshot_ack"
    HEARTBEAT = "heartbeat"
    SCRUB_REPAIR = "scrub_repair"


@fixed_record
class SwiShmemHeader(WireRecord):
    """SwiShmem replication header.

    ``payload`` carries the protocol message object (see
    ``repro.protocols.messages``); its ``wire_size`` is accounted
    separately as payload bytes.

    ``dst_node`` addresses the packet to one specific switch: protocol
    packets often transit other SwiShmem switches on the way (a chain
    successor is not always a direct neighbor), and a transit switch
    must *forward* rather than consume them.  On the wire this is the
    destination switch's loopback IP.

    ``relay`` names the group members a multicast copy must still reach
    through ``dst_node``: the multicast engine sends one copy per
    first-hop link, so a member whose path runs through another member
    rides in that member's copy, and the member sends it on
    (``PisaSwitch.relay``).  On the wire it is a bitstring with one bit
    per group member, in the shape of BIER's (RFC 8279):
    ``relay_bytes`` = ceil(members / 8) on a copy that carries one, 0
    on every other packet, counted by ``Packet.wire_size``.
    """

    op: SwiShmemOp = SwiShmemOp.EWO_UPDATE
    register_group: int = 0
    dst_node: Optional[str] = None
    relay: Tuple[str, ...] = ()
    relay_bytes: int = 0

    #: op(1) + group(2) + length(2) + checksum(2) + flags(1) + dst IP(4)
    wire_size: int = field(default=12, init=False, repr=False)


@dataclass(frozen=True)
class FiveTuple:
    """Canonical connection identifier used by all stateful NFs."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int = PROTO_TCP

    def reverse(self) -> "FiveTuple":
        """The tuple of the reverse direction of the same connection."""
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
        )

    def as_tuple(self) -> Tuple[str, str, int, int, int]:
        return (self.src_ip, self.dst_ip, self.src_port, self.dst_port, self.protocol)

    def __str__(self) -> str:
        proto = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(self.protocol, str(self.protocol))
        return f"{proto}:{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port}"
