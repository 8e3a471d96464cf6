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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.net.headers import TcpFlags
from repro.net.link import Node
from repro.net.packet import Packet, make_tcp_packet
from repro.sim.engine import Simulator

__all__ = ["AddressBook", "EndHost", "ReceivedPacket"]


class AddressBook:
    """Authoritative IP -> node-name mapping for the deployment."""

    def __init__(self) -> None:
        self._ip_to_node: Dict[str, str] = {}

    def register(self, ip: str, node_name: str) -> None:
        existing = self._ip_to_node.get(ip)
        if existing is not None and existing != node_name:
            raise ValueError(f"IP {ip} already assigned to {existing}")
        self._ip_to_node[ip] = node_name

    def lookup(self, ip: str) -> Optional[str]:
        return self._ip_to_node.get(ip)


@dataclass
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
        if address_book is not None:
            address_book.register(ip, name)

    # ------------------------------------------------------------------
    def uplink_neighbor(self) -> str:
        """The single switch this host hangs off (hosts are single-homed)."""
        neighbors = self.neighbors()
        if len(neighbors) != 1:
            raise RuntimeError(
                f"host {self.name} expected exactly one uplink, has {neighbors}"
            )
        return neighbors[0]

    def inject(self, packet: Packet) -> bool:
        """Send a locally generated packet into the fabric."""
        packet.created_at = self.sim.now
        self.sent_count += 1
        return self.send(packet, self.uplink_neighbor())

    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet, from_node: str) -> None:
        self.received.append(ReceivedPacket(self.sim.now, packet, from_node))
        if self.on_receive is not None:
            self.on_receive(packet, from_node)
        if self.responder and packet.tcp is not None and packet.ipv4 is not None:
            self._respond(packet)

    def _respond(self, packet: Packet) -> None:
        flags = packet.tcp.flags
        if flags & TcpFlags.RST:
            return
        if flags & TcpFlags.SYN and not flags & TcpFlags.ACK:
            reply_flags = TcpFlags.SYN | TcpFlags.ACK
        elif flags & TcpFlags.FIN:
            reply_flags = TcpFlags.FIN | TcpFlags.ACK
        elif packet.payload_size > 0:
            reply_flags = TcpFlags.ACK
        else:
            return  # pure ACKs are not answered (no ACK storms)
        reply = make_tcp_packet(
            src_ip=self.ip,
            dst_ip=packet.ipv4.src,
            src_port=packet.tcp.dst_port,
            dst_port=packet.tcp.src_port,
            flags=reply_flags,
        )
        self.inject(reply)
