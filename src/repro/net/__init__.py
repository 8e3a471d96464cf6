"""Network substrate: packets, headers, links, topologies, routing, multicast."""

from repro.net.endhost import AddressBook, EndHost, ReceivedPacket
from repro.net.headers import (
    EthernetHeader,
    FiveTuple,
    IPv4Header,
    PROTO_SWISHMEM,
    PROTO_TCP,
    PROTO_UDP,
    SwiShmemHeader,
    SwiShmemOp,
    TcpFlags,
    TcpHeader,
    UdpHeader,
    WireRecord,
)
from repro.net.link import Channel, Link, LinkStats, Node
from repro.net.multicast import MulticastGroup, MulticastRegistry
from repro.net.packet import Packet, make_tcp_packet, make_udp_packet
from repro.net.routing import RoutingTable, ecmp_hash, shortest_paths
from repro.net.topology import (
    Topology,
    build_full_mesh,
    build_leaf_spine,
    build_nf_cluster,
)

__all__ = [
    "AddressBook",
    "EndHost",
    "ReceivedPacket",
    "EthernetHeader",
    "FiveTuple",
    "IPv4Header",
    "PROTO_SWISHMEM",
    "PROTO_TCP",
    "PROTO_UDP",
    "SwiShmemHeader",
    "SwiShmemOp",
    "TcpFlags",
    "TcpHeader",
    "UdpHeader",
    "WireRecord",
    "Channel",
    "Link",
    "LinkStats",
    "Node",
    "MulticastGroup",
    "MulticastRegistry",
    "Packet",
    "make_tcp_packet",
    "make_udp_packet",
    "RoutingTable",
    "ecmp_hash",
    "shortest_paths",
    "Topology",
    "build_full_mesh",
    "build_leaf_spine",
    "build_nf_cluster",
]
