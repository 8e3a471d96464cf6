"""Topology container and builders.

The paper's deployment scenarios (section 3.2) motivate the shapes we
provide:

* ``build_leaf_spine`` — "NF processing placed in switches in the network
  fabric", where traffic crosses different switches via ECMP;
* ``build_nf_cluster`` — "a dedicated cluster of switches near the
  ingress point serving purely as NF accelerators";
* ``build_full_mesh`` — the inter-switch replication overlay (every
  replica can reach every other directly, as EWO multicast assumes).

A :class:`Topology` owns the simulator handle, the nodes, the links, and
the RNG so that experiments build everything through one object.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.link import Link, Node
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng

__all__ = [
    "Topology",
    "build_full_mesh",
    "build_leaf_spine",
    "build_nf_cluster",
]


class Topology:
    """A named collection of nodes and the links between them."""

    def __init__(self, sim: Simulator, rng: Optional[SeededRng] = None) -> None:
        self.sim = sim
        self.rng = rng if rng is not None else SeededRng(0)
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    def connect(
        self,
        a: str,
        b: str,
        latency: float = 5e-6,
        bandwidth_bps: float = 100e9,
        loss_rate: float = 0.0,
    ) -> Link:
        """Create a bidirectional link between two existing nodes."""
        link = Link(
            self.sim,
            self.nodes[a],
            self.nodes[b],
            latency=latency,
            bandwidth_bps=bandwidth_bps,
            loss_rate=loss_rate,
            rng=self.rng,
        )
        self.links.append(link)
        return link

    def link_between(self, a: str, b: str) -> Optional[Link]:
        for link in self.links:
            ends = {link.a.name, link.b.name}
            if ends == {a, b}:
                return link
        return None

    def adjacency(self) -> Dict[str, List[str]]:
        """Adjacency map considering only links that are up and live nodes."""
        adj: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for link in self.links:
            if not link.up:
                continue
            if link.a.failed or link.b.failed:
                continue
            adj[link.a.name].append(link.b.name)
            adj[link.b.name].append(link.a.name)
        for peers in adj.values():
            peers.sort()
        return adj

    def fail_node(self, name: str) -> None:
        """Fail-stop a node (paper section 6.3 failure model)."""
        self.nodes[name].fail()

    def total_bytes_sent(self, category: Optional[Callable[[Link], bool]] = None) -> int:
        """Sum of bytes transmitted over all (or filtered) links."""
        total = 0
        for link in self.links:
            if category is not None and not category(link):
                continue
            total += link.ab.stats.bytes_sent + link.ba.stats.bytes_sent
        return total


# ----------------------------------------------------------------------
# Builders.  Each returns (topology, <shape-specific node name lists>).
# Node factories let callers decide what a "switch" or a "host" is, so
# the builders do not depend on repro.switch.
# ----------------------------------------------------------------------

NodeFactory = Callable[[str], Node]


def build_full_mesh(
    topo: Topology,
    switch_factory: NodeFactory,
    count: int,
    latency: float = 5e-6,
    bandwidth_bps: float = 100e9,
    loss_rate: float = 0.0,
    prefix: str = "s",
) -> List[Node]:
    """``count`` switches, every pair directly connected."""
    if count < 1:
        raise ValueError("mesh size must be >= 1")
    switches = [topo.add_node(switch_factory(f"{prefix}{i}")) for i in range(count)]
    for i, left in enumerate(switches):
        for right in switches[i + 1 :]:
            topo.connect(left.name, right.name, latency, bandwidth_bps, loss_rate)
    return switches


def build_leaf_spine(
    topo: Topology,
    switch_factory: NodeFactory,
    host_factory: NodeFactory,
    leaves: int = 4,
    spines: int = 2,
    hosts_per_leaf: int = 2,
    fabric_latency: float = 5e-6,
    edge_latency: float = 2e-6,
    bandwidth_bps: float = 100e9,
    loss_rate: float = 0.0,
) -> Tuple[List[Node], List[Node], List[Node]]:
    """A two-tier leaf/spine fabric with hosts under each leaf.

    Returns ``(leaf_switches, spine_switches, hosts)``.  Every leaf
    connects to every spine, so host-to-host traffic has ``spines``
    equal-cost paths — the multipath scenario of paper section 3.2.
    """
    if leaves < 1 or spines < 1:
        raise ValueError("need at least one leaf and one spine")
    leaf_nodes = [topo.add_node(switch_factory(f"leaf{i}")) for i in range(leaves)]
    spine_nodes = [topo.add_node(switch_factory(f"spine{i}")) for i in range(spines)]
    hosts: List[Node] = []
    for leaf_index, leaf in enumerate(leaf_nodes):
        for spine in spine_nodes:
            topo.connect(leaf.name, spine.name, fabric_latency, bandwidth_bps, loss_rate)
        for host_index in range(hosts_per_leaf):
            host = topo.add_node(host_factory(f"h{leaf_index}_{host_index}"))
            topo.connect(leaf.name, host.name, edge_latency, bandwidth_bps, loss_rate)
            hosts.append(host)
    return leaf_nodes, spine_nodes, hosts


def build_nf_cluster(
    topo: Topology,
    switch_factory: NodeFactory,
    host_factory: NodeFactory,
    cluster_size: int = 3,
    clients: int = 4,
    servers: int = 4,
    latency: float = 5e-6,
    bandwidth_bps: float = 100e9,
    loss_rate: float = 0.0,
) -> Tuple[List[Node], List[Node], List[Node], Node, Node]:
    """The dedicated NF-accelerator cluster of paper section 3.2.

    An ingress switch spreads incoming client traffic over a cluster of NF
    switches (full mesh among themselves for replication), which forward
    to an egress switch in front of the servers.  Returns
    ``(cluster, client_hosts, server_hosts, ingress, egress)``.
    """
    if cluster_size < 1:
        raise ValueError("cluster must have at least one switch")
    ingress = topo.add_node(switch_factory("ingress"))
    egress = topo.add_node(switch_factory("egress"))
    cluster = [topo.add_node(switch_factory(f"nf{i}")) for i in range(cluster_size)]
    for i, left in enumerate(cluster):
        topo.connect("ingress", left.name, latency, bandwidth_bps, loss_rate)
        topo.connect(left.name, "egress", latency, bandwidth_bps, loss_rate)
        for right in cluster[i + 1 :]:
            topo.connect(left.name, right.name, latency, bandwidth_bps, loss_rate)
    client_hosts = []
    for i in range(clients):
        host = topo.add_node(host_factory(f"client{i}"))
        topo.connect(host.name, "ingress", latency, bandwidth_bps, loss_rate)
        client_hosts.append(host)
    server_hosts = []
    for i in range(servers):
        host = topo.add_node(host_factory(f"server{i}"))
        topo.connect("egress", host.name, latency, bandwidth_bps, loss_rate)
        server_hosts.append(host)
    return cluster, client_hosts, server_hosts, ingress, egress
