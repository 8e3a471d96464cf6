"""Tests for topology builders, routing/ECMP, multicast, end hosts."""

from __future__ import annotations

import pickle

import pytest

from repro.net.endhost import AddressBook, EndHost
from repro.net.link import Node
from repro.net.multicast import MulticastGroup, MulticastRegistry
from repro.net.packet import make_tcp_packet
from repro.net.routing import RoutingTable, ecmp_hash, shortest_paths
from repro.net.topology import (
    Topology,
    build_full_mesh,
    build_leaf_spine,
    build_nf_cluster,
)
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng


class Dummy(Node):
    def handle_packet(self, packet, from_node):
        pass


def make_topo():
    sim = Simulator()
    return sim, Topology(sim, SeededRng(2))


class TestTopology:
    def test_duplicate_node_rejected(self):
        _, topo = make_topo()
        topo.add_node(Dummy("x"))
        with pytest.raises(ValueError):
            topo.add_node(Dummy("x"))

    def test_mesh_builder_all_pairs(self):
        _, topo = make_topo()
        build_full_mesh(topo, Dummy, 4)
        assert len(topo.links) == 6
        adj = topo.adjacency()
        assert all(len(peers) == 3 for peers in adj.values())

    def test_leaf_spine_builder(self):
        _, topo = make_topo()
        leaves, spines, hosts = build_leaf_spine(topo, Dummy, Dummy, leaves=3, spines=2, hosts_per_leaf=2)
        assert len(leaves) == 3 and len(spines) == 2 and len(hosts) == 6
        adj = topo.adjacency()
        for leaf in leaves:
            for spine in spines:
                assert spine.name in adj[leaf.name]

    def test_nf_cluster_builder(self):
        _, topo = make_topo()
        cluster, clients, servers, ingress, egress = build_nf_cluster(
            topo, Dummy, Dummy, cluster_size=3, clients=2, servers=2
        )
        adj = topo.adjacency()
        for nf in cluster:
            assert "ingress" in adj[nf.name] and "egress" in adj[nf.name]
        # cluster forms a mesh among itself
        assert "nf1" in adj["nf0"] and "nf2" in adj["nf0"]

    def test_adjacency_excludes_failed_and_down(self):
        _, topo = make_topo()
        for name in ("s0", "s1", "s2"):
            topo.add_node(Dummy(name))
        topo.connect("s0", "s1")
        topo.connect("s1", "s2")
        topo.fail_node("s1")
        adj = topo.adjacency()
        assert adj["s0"] == [] and adj["s2"] == []
        topo.nodes["s1"].recover()
        topo.link_between("s0", "s1").set_up(False)
        adj = topo.adjacency()
        assert adj["s0"] == []
        assert adj["s1"] == ["s2"]

    def test_builders_validate_sizes(self):
        _, topo = make_topo()
        with pytest.raises(ValueError):
            build_full_mesh(topo, Dummy, 0)


class TestShortestPaths:
    def test_line_graph(self):
        adj = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
        hops = shortest_paths(adj, "a")
        assert hops == {"b": ["b"], "c": ["b"]}

    def test_ecmp_set_on_diamond(self):
        adj = {
            "a": ["b", "c"],
            "b": ["a", "d"],
            "c": ["a", "d"],
            "d": ["b", "c"],
        }
        hops = shortest_paths(adj, "a")
        assert hops["d"] == ["b", "c"]  # two equal-cost first hops

    def test_unreachable_not_listed(self):
        adj = {"a": ["b"], "b": ["a"], "z": []}
        assert "z" not in shortest_paths(adj, "a")


class TestRoutingTable:
    def _diamond(self):
        sim, topo = make_topo()
        for name in "abcd":
            topo.add_node(Dummy(name))
        topo.connect("a", "b")
        topo.connect("a", "c")
        topo.connect("b", "d")
        topo.connect("c", "d")
        return sim, topo, RoutingTable(topo)

    @staticmethod
    def _ecmp_pick(routing, node, destination, packet):
        hops = routing.hops_for(node, destination)
        return hops[routing.flow_hash(packet) % len(hops)]

    def test_next_hop_direct(self):
        _, _, routing = self._diamond()
        assert routing.hops_for("a", "b") == ["b"]

    def test_ecmp_stable_per_flow(self):
        _, _, routing = self._diamond()
        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 100, 200)
        same_flow = make_tcp_packet("1.1.1.1", "2.2.2.2", 100, 200)
        hop1 = self._ecmp_pick(routing, "a", "d", packet)
        hop2 = self._ecmp_pick(routing, "a", "d", same_flow)
        assert hop1 == hop2

    def test_ecmp_spreads_flows(self):
        _, _, routing = self._diamond()
        hops = {
            self._ecmp_pick(
                routing, "a", "d", make_tcp_packet("1.1.1.1", "2.2.2.2", port, 80)
            )
            for port in range(100)
        }
        assert hops == {"b", "c"}

    def test_salt_change_can_move_flows(self):
        _, _, routing = self._diamond()
        packets = [make_tcp_packet("1.1.1.1", "2.2.2.2", p, 80) for p in range(50)]
        before = [self._ecmp_pick(routing, "a", "d", pkt) for pkt in packets]
        routing.set_salt(12345)
        after = [self._ecmp_pick(routing, "a", "d", pkt) for pkt in packets]
        assert before != after  # at least one flow re-assigned

    def test_recompute_after_failure(self):
        _, topo, routing = self._diamond()
        topo.fail_node("b")
        routing.recompute()
        assert routing.hops_for("a", "d") == ["c"]

    def test_unreachable_returns_none(self):
        _, topo, routing = self._diamond()
        topo.fail_node("b")
        topo.fail_node("c")
        routing.recompute()
        assert routing.hops_for("a", "d") == []

    def test_ecmp_hash_deterministic(self):
        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
        assert ecmp_hash(packet, 0) == ecmp_hash(packet, 0)
        assert ecmp_hash(packet, 0) != ecmp_hash(packet, 1)


class TestMulticast:
    def test_group_membership(self):
        group = MulticastGroup(1, ["a", "b", "c"])
        assert group.members == ["a", "b", "c"]
        assert group.others("a") == ("b", "c")
        assert "a" in group and "z" not in group
        assert len(group) == 3

    def test_cached_fanout_follows_membership(self):
        registry = MulticastRegistry()
        group = registry.create(1, ["a", "b", "c"])
        assert group.others("a") == ("b", "c")
        assert group.others("a") is group.others("a")  # cached, not rebuilt
        group.add("d")
        assert group.others("a") == ("b", "c", "d")
        group.remove("b")
        assert group.others("a") == ("c", "d")
        assert group.others("c") == ("a", "d")
        registry.remove_member_everywhere("c")
        assert group.others("a") == ("d",)
        assert group.others("c") == ("a", "d")  # a non-member may still ask
        registry.delete(1)
        assert registry.create(1, ["a", "x"]).others("a") == ("x",)

    def test_remove_idempotent(self):
        group = MulticastGroup(1, ["a", "b"])
        group.remove("a")
        group.remove("a")
        assert group.members == ["b"]

    def test_registry(self):
        registry = MulticastRegistry()
        registry.create(1, ["a", "b"])
        registry.create(2, ["a", "c"])
        with pytest.raises(ValueError):
            registry.create(1, [])
        touched = registry.remove_member_everywhere("a")
        assert touched == 2
        assert registry.get(1).members == ["b"]
        assert registry.has(1) and registry.has(2) and not registry.has(3)


class TestEndHost:
    def _host_pair(self):
        sim, topo = make_topo()
        book = AddressBook()
        client = topo.add_node(EndHost("client", sim, "10.0.0.1", book))
        server = topo.add_node(EndHost("server", sim, "10.0.0.2", book, responder=True))
        topo.connect("client", "server")
        return sim, client, server, book

    def test_address_book_registration(self):
        _, _, _, book = self._host_pair()
        assert book.lookup("10.0.0.1") == "client"
        assert book.lookup("9.9.9.9") is None

    def test_conflicting_registration_rejected(self):
        book = AddressBook()
        book.register("1.1.1.1", "a")
        book.register("1.1.1.1", "a")  # same mapping is fine
        with pytest.raises(ValueError):
            book.register("1.1.1.1", "b")

    def test_inject_and_receive(self):
        sim, client, server, _ = self._host_pair()
        from repro.net.headers import TcpFlags

        client.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1000, 80, flags=TcpFlags.SYN))
        sim.run()
        assert len(server.received) == 1
        # responder answered the SYN with SYN|ACK
        assert len(client.received) == 1
        reply = client.received[0].packet
        assert reply.tcp.flags & TcpFlags.SYN and reply.tcp.flags & TcpFlags.ACK
        # a delivery record is a fixed record, as is the packet it holds
        record = server.received[0]
        assert not hasattr(record, "__dict__") and not hasattr(record.packet, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record

    def test_latency_measured(self):
        sim, client, server, _ = self._host_pair()
        client.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 80))
        sim.run()
        assert server.received[0].latency > 0.0

    def test_responder_ignores_pure_ack_and_rst(self):
        sim, client, server, _ = self._host_pair()
        from repro.net.headers import TcpFlags

        client.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 80, flags=TcpFlags.ACK))
        client.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 80, flags=TcpFlags.RST))
        sim.run()
        assert client.received == []

    def test_uplink_required_single(self):
        sim, topo = make_topo()
        host = topo.add_node(EndHost("h", sim, "1.1.1.1"))
        with pytest.raises(RuntimeError):
            host.uplink_neighbor()
