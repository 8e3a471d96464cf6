"""The packet model.

A :class:`Packet` is a parsed header stack plus a payload size and a
mutable metadata dict.  The metadata dict plays the role of PISA
per-packet metadata: the parser and pipeline stages communicate through
it, and it is discarded when the packet leaves the switch.

Copy contract
-------------

A packet is copied when it fans out — multicast, egress mirroring, a
nemesis duplicate — because each copy travels its own path, exactly as
hardware would re-serialize and re-parse it.  :meth:`Packet.clone` is a
structural copy, not a deep one.  It copies exactly the levels the code
assigns to in flight and shares everything below them:

* **Fresh per copy** — the :class:`Packet` itself (new ``uid``); every
  present header (``ipv4.ttl`` is decremented per hop, the multicast
  engine stamps ``swishmem.dst_node`` per copy); the
  ``swishmem_payload`` message (``request.attempt`` and
  ``update.trace`` are reassigned by retries and by each chain hop);
  the ``meta`` dict; the INT hop list (``int_data.push``).
* **Shared** — every value *inside* those records: strings, numbers,
  enums, the frozen ``TraceContext`` and ``WriteToken``, chain member
  tuples, the ``EwoUpdate.entries`` tuple and its frozen ``EwoEntry``
  objects, frozen INT hop records, ``meta`` values, and register keys
  and values.

Sharing is safe because none of those is ever mutated in place.
Every header and message is a ``WireRecord`` (``repro.net.headers``):
a flat record whose fields are reassigned but whose values are
immutable.  Register values in particular are treated as immutable
*values* everywhere in the system — SRO already hands the one
``ChainUpdate.value`` object to the store of every chain member — so a
program that wants to change a register writes a new value rather than
mutating the old one.  Likewise a ``meta`` entry is replaced, not
updated in place.  Anything new that a packet carries by reference
must either be such a value or be given its own copy in ``clone()``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.net.headers import (
    EthernetHeader,
    FiveTuple,
    IPv4Header,
    PROTO_TCP,
    PROTO_UDP,
    SwiShmemHeader,
    TcpFlags,
    TcpHeader,
    UdpHeader,
)

__all__ = ["Packet", "make_tcp_packet", "make_udp_packet"]

_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """A packet in flight.

    Only the headers that are present are non-None; the deparser
    recomputes ``wire_size`` from whatever stack the pipeline left
    behind.
    """

    eth: Optional[EthernetHeader] = None
    ipv4: Optional[IPv4Header] = None
    tcp: Optional[TcpHeader] = None
    udp: Optional[UdpHeader] = None
    swishmem: Optional[SwiShmemHeader] = None
    #: Protocol message object for SwiShmem packets (not bytes; sized via
    #: its own ``wire_size`` attribute).
    swishmem_payload: Any = None
    payload_size: int = 0
    #: Stand-in for payload content: a workload-chosen digest that NFs
    #: (e.g. the IPS) hash as if they had read the payload bytes.
    payload_digest: Optional[int] = None
    uid: int = field(default_factory=lambda: next(_packet_ids))
    #: Per-packet metadata, reset at each switch (PISA metadata).
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Time the packet was first created (set by the injector).
    created_at: float = 0.0
    #: INT telemetry stack (``repro.obs.inttel.IntTelemetry``).  Unlike
    #: ``meta`` this survives hops — it is an on-wire header stack that
    #: INT-enabled switches append to and the sink strips.
    int_data: Any = None
    #: Causal trace context (``repro.obs.causal.TraceContext``).  Rides
    #: alongside ``int_data`` but — unlike it — contributes zero wire
    #: bytes: it is simulator bookkeeping, so stamping it can never
    #: change serialization delay, timing, or chaos-replay digests.
    trace: Any = None

    @property
    def wire_size(self) -> int:
        """Total on-wire bytes, used for serialization-delay accounting."""
        size = self.payload_size
        for header in (self.eth, self.ipv4, self.tcp, self.udp, self.swishmem):
            if header is not None:
                size += header.wire_size
        if self.swishmem_payload is not None:
            size += self.swishmem_payload.wire_size
        if self.int_data is not None:
            size += self.int_data.wire_size
        return size

    def five_tuple(self) -> Optional[FiveTuple]:
        """Extract the connection five-tuple, or None for non-L4 packets."""
        if self.ipv4 is None:
            return None
        if self.tcp is not None:
            return FiveTuple(
                self.ipv4.src, self.ipv4.dst, self.tcp.src_port, self.tcp.dst_port, PROTO_TCP
            )
        if self.udp is not None:
            return FiveTuple(
                self.ipv4.src, self.ipv4.dst, self.udp.src_port, self.udp.dst_port, PROTO_UDP
            )
        return None

    def clone(self) -> "Packet":
        """An independently mutable copy with a fresh uid (multicast,
        mirror and nemesis-duplicate copies) — see the module docstring
        for what is copied and what is shared."""
        eth, ipv4, tcp, udp = self.eth, self.ipv4, self.tcp, self.udp
        swishmem, payload, int_data = self.swishmem, self.swishmem_payload, self.int_data
        return Packet(
            eth=None if eth is None else eth.copy(),
            ipv4=None if ipv4 is None else ipv4.copy(),
            tcp=None if tcp is None else tcp.copy(),
            udp=None if udp is None else udp.copy(),
            swishmem=None if swishmem is None else swishmem.copy(),
            swishmem_payload=None if payload is None else payload.copy(),
            payload_size=self.payload_size,
            payload_digest=self.payload_digest,
            uid=next(_packet_ids),
            meta=dict(self.meta),
            created_at=self.created_at,
            int_data=None if int_data is None else int_data.copy(),
            trace=self.trace,
        )

    def __str__(self) -> str:
        parts = [f"pkt#{self.uid}"]
        if self.swishmem is not None:
            parts.append(f"swishmem:{self.swishmem.op.value}")
        tup = self.five_tuple()
        if tup is not None:
            parts.append(str(tup))
        elif self.ipv4 is not None:
            parts.append(f"ip:{self.ipv4.src}->{self.ipv4.dst}")
        parts.append(f"{self.wire_size}B")
        return " ".join(parts)


def make_tcp_packet(
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    flags: TcpFlags = TcpFlags.NONE,
    payload_size: int = 0,
    seq: int = 0,
) -> Packet:
    """Build a TCP packet with a full Ethernet/IPv4/TCP stack."""
    return Packet(
        eth=EthernetHeader(),
        ipv4=IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_TCP),
        tcp=TcpHeader(src_port=src_port, dst_port=dst_port, flags=flags, seq=seq),
        payload_size=payload_size,
    )


def make_udp_packet(
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    payload_size: int = 0,
) -> Packet:
    """Build a UDP packet with a full Ethernet/IPv4/UDP stack."""
    return Packet(
        eth=EthernetHeader(),
        ipv4=IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_UDP),
        udp=UdpHeader(src_port=src_port, dst_port=dst_port),
        payload_size=payload_size,
    )
