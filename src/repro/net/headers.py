"""Packet header definitions.

The reproduction models real header stacks so that (a) the PISA parser
has something to parse, (b) bandwidth accounting uses true on-wire sizes,
and (c) the SwiShmem replication messages ride in a header of their own,
exactly as an in-switch implementation would encapsulate them.

Headers are lightweight dataclasses rather than byte buffers: the
simulator never needs to serialize to real bytes, only to know sizes and
field values.  Each header class reports its wire size via ``wire_size``.

Every header — and every protocol message of
``repro.protocols.messages`` — is a :class:`WireRecord`: a flat record
of immutable values, which is what lets ``Packet.clone()`` copy it one
level deep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "WireRecord",
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

    A wire record is a *flat* dataclass.  Its fields may be reassigned
    (``ipv4.ttl -= 1``, ``update.trace = ctx``), but every value they
    hold — strings, numbers, enums, tuples, frozen dataclasses, register
    keys and values — is immutable and only ever replaced, never
    mutated in place.  One level of copying therefore yields a record
    that is fully independent of the original while sharing every leaf,
    and ``Packet.clone()`` relies on exactly that.
    """

    def copy(self):
        """An independent record with the same field values — what
        ``copy.copy`` returns, without its detour through the pickle
        protocol (this runs for every header of every fan-out copy)."""
        duplicate = object.__new__(type(self))
        duplicate.__dict__.update(self.__dict__)
        return duplicate


@dataclass
class EthernetHeader(WireRecord):
    """Simplified Ethernet II header."""

    src_mac: str = "00:00:00:00:00:00"
    dst_mac: str = "00:00:00:00:00:00"
    ethertype: int = 0x0800  # IPv4

    wire_size: int = field(default=14, init=False, repr=False)


@dataclass
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


@dataclass
class TcpHeader(WireRecord):
    """TCP header (no options)."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: TcpFlags = TcpFlags.NONE

    wire_size: int = field(default=20, init=False, repr=False)


@dataclass
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

    EWO protocol:
      EWO_UPDATE     — asynchronous multicast of (version, value) pairs
      EWO_SYNC       — periodic packet-generator sync of a register range

    Recovery (section 6.3):
      SNAPSHOT_WRITE — snapshot replay toward a recovering switch
      SNAPSHOT_ACK   — recovering switch confirms one replayed entry

    Failure detection (section 6.3):
      HEARTBEAT      — periodic liveness beacon from every switch toward
                       the controller's host switch (data-plane packet
                       generator traffic; loss/partition affects it like
                       any other packet)

    Anti-entropy (repro.protocols.antientropy):
      SCRUB_REPAIR   — authoritative (key, value, seq) re-propagated to
                       a diverged chain member located by digest scrub
    """

    WRITE_REQUEST = "write_request"
    CHAIN_UPDATE = "chain_update"
    WRITE_ACK = "write_ack"
    READ_FORWARD = "read_forward"
    EWO_UPDATE = "ewo_update"
    EWO_SYNC = "ewo_sync"
    SNAPSHOT_WRITE = "snapshot_write"
    SNAPSHOT_ACK = "snapshot_ack"
    HEARTBEAT = "heartbeat"
    SCRUB_REPAIR = "scrub_repair"


@dataclass
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
    """

    op: SwiShmemOp = SwiShmemOp.EWO_UPDATE
    register_group: int = 0
    dst_node: Optional[str] = None

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
