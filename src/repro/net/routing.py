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
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Dict, List, Optional

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
        # it is a module-global counter, so two otherwise identical runs
        # in one process would pick different ECMP paths — breaking the
        # guarantee that a chaos run is a pure function of its seed.
        sw = packet.swishmem
        key = f"{salt}:sw:{sw.op.value}:{sw.register_group}:{sw.dst_node}"
    else:
        key = f"{salt}:none"
    digest = hashlib.sha1(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class RoutingTable:
    """Per-node next-hop table over a topology, with ECMP.

    One instance is shared by all nodes of a topology (it is effectively
    the fabric's routing state).  Nodes ask :meth:`next_hop` where to send
    a packet for a destination node name.
    """

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self.ecmp_salt = 0
        #: node -> destination -> list of equal-cost first hops
        self._tables: Dict[str, Dict[str, List[str]]] = {}
        self.recompute()

    def recompute(self) -> None:
        """Rebuild all tables from the current live adjacency."""
        adjacency = self.topo.adjacency()
        self._tables = {
            node: shortest_paths(adjacency, node) for node in adjacency
        }

    def hops_for(self, node: str, destination: str) -> List[str]:
        """All equal-cost next hops from ``node`` toward ``destination``."""
        return self._tables.get(node, {}).get(destination, [])

    def next_hop(self, node: str, destination: str, packet: Optional[Packet] = None) -> Optional[str]:
        """Pick the next hop; ECMP ties broken by flow hash.

        Returns None when the destination is unreachable from ``node``
        (the packet should then be dropped).
        """
        hops = self.hops_for(node, destination)
        if not hops:
            return None
        if len(hops) == 1 or packet is None:
            return hops[0]
        return hops[ecmp_hash(packet, self.ecmp_salt) % len(hops)]

    def set_salt(self, salt: int) -> None:
        """Change the ECMP salt, re-assigning flows to paths."""
        self.ecmp_salt = salt
