"""The packet model.

A :class:`Packet` is a parsed header stack, a payload size, and two
declared PISA metadata fields that every switch pass sets afresh.

Copy contract
-------------

A packet is copied when it fans out — multicast, egress mirroring, a
nemesis duplicate — because each copy travels its own path, exactly as
hardware would re-serialize and re-parse it.  :meth:`Packet.clone` is a
structural copy, not a deep one.  It copies exactly the levels the code
assigns to in flight and shares everything below them:

* **Fresh per copy** — the :class:`Packet` itself (a new ``uid`` from
  its world's ``Simulator.packet_ids``); every present header
  (``ipv4.ttl`` is decremented per hop, the multicast engine stamps
  ``swishmem.dst_node`` and the relay targets per copy); the
  ``swishmem_payload`` message (``request.attempt`` and
  ``update.trace`` are reassigned by retries and by each chain hop).
* **Shared** — every value *inside* those records: strings, numbers,
  enums, the frozen ``TraceContext``, the ``WriteToken`` named tuple,
  chain member tuples, a header's ``relay`` tuple, the
  ``EwoMirror.sections`` tuples and their ``EwoEntry`` named tuples,
  register keys and values, and
  the metadata values ``ingress_node`` and ``at_tail_groups`` (a
  frozenset).

Sharing is safe because none of those is ever mutated in place.
Every header and message is a ``WireRecord`` (``repro.net.headers``):
a flat record whose fields are reassigned but whose values are
immutable, so its generated ``copy()`` assigns each slot once.
Register values in particular are treated as immutable
*values* everywhere in the system — SRO already hands the one
``ChainUpdate.value`` object to the store of every chain member — so a
program that wants to change a register writes a new value rather than
mutating the old one.  Likewise ``at_tail_groups`` is replaced, not
updated in place.  Anything new that a packet carries by reference
must either be such a value or be given its own copy in ``clone()``.

The packet, its headers and its message are all fixed records
(``repro.net.headers.fixed_record``), with no ``__dict__``: nothing
can hang an undeclared attribute on a packet in flight.  A new
per-packet field is declared, copied in ``clone()`` and classified
above, or it does not exist.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional

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
    fixed_record,
)

__all__ = ["Packet", "make_tcp_packet", "make_udp_packet"]

#: The one empty ``at_tail_groups`` (``frozenset()`` is a new object per call).
NO_GROUPS: FrozenSet[int] = frozenset()


@fixed_record
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
    #: Taken from the world's sequence (``Simulator.packet_ids``) by
    #: whoever makes the packet in a world; a packet built outside one
    #: keeps 0 until ``EndHost.inject`` admits it.
    uid: int = 0
    #: PISA metadata, set afresh by every switch pass: the neighbour the
    #: packet came from, and the SRO groups whose tail it has reached.
    ingress_node: Optional[str] = None
    at_tail_groups: FrozenSet[int] = NO_GROUPS
    #: Time the packet was first created (set by the injector).
    created_at: float = 0.0
    #: Causal trace context (``repro.obs.causal.TraceContext``), or
    #: ``None`` while no flight recorder is attached.  Unlike the
    #: headers it contributes zero wire bytes: it is simulator
    #: bookkeeping, so stamping it can never change serialization
    #: delay, timing, or chaos-replay digests.
    trace: Any = None

    @property
    def wire_size(self) -> int:
        """Total on-wire bytes, used for serialization-delay accounting."""
        size = self.payload_size
        for header in (self.eth, self.ipv4, self.tcp, self.udp):
            if header is not None:
                size += header.wire_size
        swishmem = self.swishmem
        if swishmem is not None:
            size += swishmem.wire_size + swishmem.relay_bytes
        if self.swishmem_payload is not None:
            size += self.swishmem_payload.wire_size
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

    def clone(self, uid: int) -> "Packet":
        """An independently mutable copy with the fresh ``uid`` its
        world drew for it (multicast, mirror and nemesis-duplicate
        copies) — see the module docstring for what is copied and what
        is shared."""
        eth, ipv4, tcp, udp = self.eth, self.ipv4, self.tcp, self.udp
        swishmem, payload = self.swishmem, self.swishmem_payload
        return Packet(
            eth=None if eth is None else eth.copy(),
            ipv4=None if ipv4 is None else ipv4.copy(),
            tcp=None if tcp is None else tcp.copy(),
            udp=None if udp is None else udp.copy(),
            swishmem=None if swishmem is None else swishmem.copy(),
            swishmem_payload=None if payload is None else payload.copy(),
            payload_size=self.payload_size,
            payload_digest=self.payload_digest,
            uid=uid,
            ingress_node=self.ingress_node,
            at_tail_groups=self.at_tail_groups,
            created_at=self.created_at,
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
