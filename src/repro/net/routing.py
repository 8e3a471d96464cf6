"""Routing: shortest paths, ECMP next-hop selection, and forwarding tables.

Routing here is deliberately simple — the paper treats the fabric's
routing as given — but two aspects matter for the experiments:

* **Multipath / ECMP** (section 3.2): when several equal-cost next hops
  exist, the choice is made by hashing the packet's five-tuple.  The hash
  salt is configurable so experiments can *re-route* flows mid-run (the
  paper's "a flow is routed through a different switch" scenario) by
  changing the salt, emulating adaptive routing or path reassignment
  after a failure.

* **Recomputation on failure** (section 6.3): routes are computed against
  the live adjacency (failed nodes and downed links excluded), so calling
  :meth:`RoutingTable.recompute` after a fault models the controller
  "reprogramming the routing of the failed switch neighbors".

A switch does not ask this table per packet.  It resolves each
destination once into the channels of its equal-cost first hops (its
*egress table*, ``PisaSwitch.forward_to_node``) and picks among them
with :meth:`RoutingTable.flow_hash`, which computes :func:`ecmp_hash`
once per flow and remembers it.  :attr:`RoutingTable.version` moves on
every :meth:`~RoutingTable.recompute` and :meth:`~RoutingTable.set_salt`,
which is how those egress tables know to resolve again.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Dict, List, Tuple

from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.net.packet import Packet
from repro.net.topology import Topology

__all__ = ["RoutingTable", "ecmp_hash", "shortest_paths"]


def shortest_paths(adjacency: Dict[str, List[str]], source: str) -> Dict[str, List[str]]:
    """BFS all-shortest-path next hops from ``source``.

    Returns, for every reachable destination, the sorted list of
    *first hops* that lie on some shortest path — i.e. the ECMP set.
    """
    dist: Dict[str, int] = {source: 0}
    first_hops: Dict[str, set] = {source: set()}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency.get(node, ()):
            candidate = dist[node] + 1
            if neighbor not in dist:
                dist[neighbor] = candidate
                first_hops[neighbor] = (
                    {neighbor} if node == source else set(first_hops[node])
                )
                queue.append(neighbor)
            elif candidate == dist[neighbor]:
                extra = {neighbor} if node == source else first_hops[node]
                first_hops[neighbor] |= extra
    return {dst: sorted(hops) for dst, hops in first_hops.items() if dst != source}


def ecmp_hash(packet: Packet, salt: int = 0) -> int:
    """Deterministic flow hash: equal for all packets of one five-tuple.

    Uses SHA-1 over the five-tuple plus a salt so that the mapping is
    stable across runs but can be perturbed (path reassignment) by
    changing the salt.
    """
    tup = packet.five_tuple()
    if tup is not None:
        key = f"{salt}:{tup.as_tuple()}"
    elif packet.swishmem is not None:
        # Protocol packets have no five-tuple; hash the replication
        # "flow" (op, group, destination) instead.  Never hash the uid:
        # it numbers packets, not flows, so the packets of one flow
        # would spread over paths, and a path would hang on how many
        # packets the world made before this one.
        sw = packet.swishmem
        key = f"{salt}:sw:{sw.op.value}:{sw.register_group}:{sw.dst_node}"
    else:
        key = f"{salt}:none"
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class RoutingTable:
    """Per-node next-hop table over a topology, with ECMP.

    One instance is shared by all nodes of a topology (it is effectively
    the fabric's routing state).  :meth:`hops_for` lists the equal-cost
    first hops from a node toward a destination node name, and
    :meth:`flow_hash` picks among them for a packet.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self._salt = 0
        #: Bumped by :meth:`recompute` and :meth:`set_salt`; a switch
        #: resolves its egress table again when it moves.
        self.version = 0
        #: node -> destination -> list of equal-cost first hops
        self._tables: Dict[str, Dict[str, List[str]]] = {}
        #: Flow key -> ``ecmp_hash`` under the current salt (see
        #: :meth:`flow_hash`); emptied by :meth:`set_salt`.
        self._flow_hashes: Dict[Tuple, int] = {}
        self.recompute()

    @property
    def ecmp_salt(self) -> int:
        """The ECMP hash salt.  Read-only: :meth:`set_salt` changes it,
        so that the flow-hash memo is emptied with it."""
        return self._salt

    def recompute(self) -> None:
        """Rebuild all tables from the current live adjacency."""
        adjacency = self.topo.adjacency()
        self._tables = {
            node: shortest_paths(adjacency, node) for node in adjacency
        }
        self.version += 1

    def hops_for(self, node: str, destination: str) -> List[str]:
        """All equal-cost next hops from ``node`` toward ``destination``."""
        return self._tables.get(node, {}).get(destination, [])

    def flow_hash(self, packet: Packet) -> int:
        """``ecmp_hash(packet, self.ecmp_salt)``, hashed once per flow.

        The memo is keyed on exactly the fields :func:`ecmp_hash` hashes
        — the five-tuple, else the SwiShmem ``(op, group, dst_node)``,
        else nothing — so every packet of a flow gets the hash its first
        packet computed.  ECMP indexes a node's equal-cost hops with it.
        """
        ipv4 = packet.ipv4
        if ipv4 is not None and packet.tcp is not None:
            l4 = packet.tcp
            key: Tuple = (ipv4.src, ipv4.dst, l4.src_port, l4.dst_port, PROTO_TCP)
        elif ipv4 is not None and packet.udp is not None:
            l4 = packet.udp
            key = (ipv4.src, ipv4.dst, l4.src_port, l4.dst_port, PROTO_UDP)
        elif packet.swishmem is not None:
            sw = packet.swishmem
            key = (sw.op, sw.register_group, sw.dst_node)
        else:
            key = ()
        found = self._flow_hashes.get(key)
        if found is None:
            found = self._flow_hashes[key] = ecmp_hash(packet, self.ecmp_salt)
        return found

    def set_salt(self, salt: int) -> None:
        """Change the ECMP salt, re-assigning flows to paths."""
        self._salt = salt
        self._flow_hashes.clear()
        self.version += 1
