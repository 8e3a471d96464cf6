"""End hosts and IP address management.

End hosts are the traffic sources and sinks around the NF switches:
clients behind the ingress, destination servers (DIPs) behind the
egress.  A host records everything it receives (with timestamps) so
experiments can measure end-to-end latency, per-connection consistency,
and delivery counts.

:class:`AddressBook` maps IP addresses to node names; switches consult
it when making final forwarding decisions.  In a real deployment this is
the fabric's L3 routing state — here a single authoritative map keeps
the simulation honest and simple.

A host is single-homed: it resolves its uplink once per link set (a new
link attached to it resolves again) rather than on every packet it
sends.  A responder's reply flags come from :data:`_REPLY_FLAGS`, a
table built at import from the reply rules, instead of flag arithmetic
per packet.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.headers import TcpFlags, fixed_record
from repro.net.link import Link, Node
from repro.net.packet import Packet, make_tcp_packet
from repro.sim.engine import Simulator

__all__ = ["AddressBook", "EndHost", "ReceivedPacket"]


class AddressBook:
    """Authoritative IP -> node-name mapping for the deployment."""

    def __init__(self) -> None:
        #: IP -> node name.  The switch forwarding path probes it
        #: directly (one dict lookup per packet); everything else uses
        #: :meth:`lookup` and :meth:`register`.
        self.ip_to_node: Dict[str, str] = {}

    def register(self, ip: str, node_name: str) -> None:
        existing = self.ip_to_node.get(ip)
        if existing is not None and existing != node_name:
            raise ValueError(f"IP {ip} already assigned to {existing}")
        self.ip_to_node[ip] = node_name

    def lookup(self, ip: str) -> Optional[str]:
        return self.ip_to_node.get(ip)


def _reply_flags(flags: TcpFlags, has_payload: bool) -> Optional[TcpFlags]:
    """What a responder answers a segment with, or None for no answer."""
    if flags & TcpFlags.RST:
        return None
    if flags & TcpFlags.SYN and not flags & TcpFlags.ACK:
        return TcpFlags.SYN | TcpFlags.ACK
    if flags & TcpFlags.FIN:
        return TcpFlags.FIN | TcpFlags.ACK
    if has_payload:
        return TcpFlags.ACK
    return None  # pure ACKs are not answered (no ACK storms)


#: ``_REPLY_FLAGS[flags][has_payload]``: :func:`_reply_flags` for every
#: value of the five TCP flag bits, resolved once at import.
_REPLY_FLAGS: Tuple[Tuple[Optional[TcpFlags], Optional[TcpFlags]], ...] = tuple(
    (_reply_flags(TcpFlags(bits), False), _reply_flags(TcpFlags(bits), True))
    for bits in range(32)
)


@fixed_record
class ReceivedPacket:
    """A delivery record kept by an end host."""

    time: float
    packet: Packet
    from_node: str

    @property
    def latency(self) -> float:
        """End-to-end latency if the packet carries its creation time."""
        return self.time - self.packet.created_at


class EndHost(Node):
    """A client or server machine attached to the fabric by one link.

    If ``responder=True`` the host behaves as a minimal TCP-ish server:
    it answers SYN with SYN|ACK and data with ACK, which gives the
    stateful NFs (NAT, firewall) realistic bidirectional traffic.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        ip: str,
        address_book: Optional[AddressBook] = None,
        responder: bool = False,
    ) -> None:
        super().__init__(name)
        self.sim = sim
        self.ip = ip
        self.responder = responder
        self.received: List[ReceivedPacket] = []
        self.sent_count = 0
        #: Optional per-packet callback for experiment-specific logic.
        self.on_receive: Optional[Callable[[Packet, str], None]] = None
        #: The uplink's neighbor name, once resolved for this link set.
        self._uplink: Optional[str] = None
        #: Ephemeral source ports, a per-host sequence: 30000 in every world.
        self.ephemeral_ports = itertools.count(30000)
        if address_book is not None:
            address_book.register(ip, name)

    def attach_link(self, link: Link, neighbor: str) -> None:
        super().attach_link(link, neighbor)
        self._uplink = None

    # ------------------------------------------------------------------
    def uplink_neighbor(self) -> str:
        """The single switch this host hangs off (hosts are single-homed)."""
        if self._uplink is None:
            neighbors = self.neighbors()
            if len(neighbors) != 1:
                raise RuntimeError(
                    f"host {self.name} expected exactly one uplink, has {neighbors}"
                )
            self._uplink = neighbors[0]
        return self._uplink

    def inject(self, packet: Packet) -> bool:
        """Send a locally generated packet into the fabric; it takes
        the world's next packet uid."""
        packet.uid = next(self.sim.packet_ids)
        packet.created_at = self.sim.now
        self.sent_count += 1
        uplink = self._uplink
        if uplink is None:
            uplink = self.uplink_neighbor()
        return self.send(packet, uplink)

    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet, from_node: str) -> None:
        self.received.append(ReceivedPacket(self.sim.now, packet, from_node))
        if self.on_receive is not None:
            self.on_receive(packet, from_node)
        if self.responder and packet.tcp is not None and packet.ipv4 is not None:
            self._respond(packet)

    def _respond(self, packet: Packet) -> None:
        reply_flags = _REPLY_FLAGS[packet.tcp.flags][packet.payload_size > 0]
        if reply_flags is None:
            return
        reply = make_tcp_packet(
            src_ip=self.ip,
            dst_ip=packet.ipv4.src,
            src_port=packet.tcp.dst_port,
            dst_port=packet.tcp.src_port,
            flags=reply_flags,
        )
        self.inject(reply)
