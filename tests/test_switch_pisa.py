"""Tests for the PISA switch: handlers, forwarding, atomicity, mirroring,
multicast, recirculation, control plane, packet generator, service rate."""

from __future__ import annotations

import pytest

from repro.core.manager import SwiShmemDeployment
from repro.net.endhost import AddressBook, EndHost
from repro.net.headers import SwiShmemHeader, SwiShmemOp
from repro.net.multicast import MulticastRegistry
from repro.net.packet import Packet, make_tcp_packet
from repro.net.routing import RoutingTable
from repro.net.topology import Topology, build_full_mesh
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch
from repro.switch.pktgen import PacketGenerator


def make_fabric(n=3, hosts=2):
    sim = Simulator()
    topo = Topology(sim, SeededRng(11))
    book = AddressBook()
    switches = build_full_mesh(topo, lambda name: PisaSwitch(name, sim), n)
    host_list = []
    for i in range(hosts):
        host = topo.add_node(EndHost(f"h{i}", sim, f"10.0.0.{i+1}", book))
        topo.connect(f"h{i}", switches[i % n].name)
        host_list.append(host)
    routing = RoutingTable(topo)
    registry = MulticastRegistry()
    for switch in switches:
        switch.routing = routing
        switch.address_book = book
        switch.multicast = registry
    return sim, topo, switches, host_list, book, routing, registry


class TestForwarding:
    def test_l3_forwarding_host_to_host(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        hosts[0].inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run()
        assert len(hosts[1].received) == 1

    def test_unknown_ip_dropped(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        hosts[0].inject(make_tcp_packet("10.0.0.1", "99.9.9.9", 1, 2))
        sim.run()
        drops = sum(s.stats.dropped_packets for s in switches)
        assert drops == 1

    def test_ttl_expiry_drops(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        packet.ipv4.ttl = 1
        hosts[0].inject(packet)
        sim.run()
        assert len(hosts[1].received) == 0
        assert sum(s.stats.dropped_packets for s in switches) == 1

    def test_forward_to_node_by_name(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        packet = Packet()
        switches[0].forward_to_node(packet, "s2")
        sim.run()
        assert switches[0].stats.tx_packets == 1

    def test_handler_priority_front(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        order = []
        switches[0].install_handler(lambda p, f: (order.append("back"), False)[1])
        switches[0].install_handler(lambda p, f: (order.append("front"), False)[1], front=True)
        hosts[0].inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run()
        assert order[:2] == ["front", "back"]

    def test_consuming_handler_stops_chain(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        seen = []
        switches[0].install_handler(lambda p, f: True)  # consume everything
        switches[0].install_handler(lambda p, f: (seen.append(1), False)[1])
        hosts[0].inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run()
        assert seen == []
        assert len(hosts[1].received) == 0


class TestAtomicity:
    def test_reentrant_pipeline_pass_rejected(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        switch = switches[0]

        def evil_handler(packet, from_node):
            # Synchronously re-delivering violates atomicity.
            switch._pipeline_pass(Packet(), from_node)
            return True

        switch.install_handler(evil_handler)
        hosts[0].inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        with pytest.raises(RuntimeError, match="re-entrant"):
            sim.run()

    def test_meta_reset_per_switch(self):
        """Every switch pass starts the PISA metadata afresh: a stale
        ``at_tail_groups`` and ``ingress_node`` never reach a handler."""
        sim, topo, switches, hosts, *_ = make_fabric()
        seen = []
        for switch in switches:
            switch.install_handler(
                lambda p, f, s=switch: seen.append(
                    (s.name, f, p.ingress_node, p.at_tail_groups)
                )
            )
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        packet.ingress_node = "stale"
        packet.at_tail_groups = frozenset({1, 2})
        hosts[0].inject(packet)
        sim.run()
        assert [name for name, *_ in seen] == ["s0", "s1"]
        for _, from_node, ingress_node, at_tail_groups in seen:
            assert ingress_node == from_node  # the previous hop
            assert at_tail_groups == frozenset()
        assert seen[0][1] == "h0" and seen[1][1] == "s0"


class TestRecirculation:
    def test_recirculated_packet_reprocessed(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        switch = switches[0]
        passes = []

        def handler(packet, from_node):
            passes.append(sim.now)
            if len(passes) == 1:
                switch.recirculate(packet)
                return True
            return False

        switch.install_handler(handler)
        hosts[0].inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run()
        assert len(passes) == 2
        assert passes[1] > passes[0]
        assert switch.stats.recirculated_packets == 1
        assert len(hosts[1].received) == 1


class TestMirrorAndMulticast:
    def test_multicast_to_group(self):
        sim, topo, switches, hosts, book, routing, registry = make_fabric()
        registry.create(7, ["s0", "s1", "s2"])
        hits = []
        for switch in switches[1:]:
            switch.install_handler(lambda p, f, s=switch: (hits.append(s.name), True)[1])
        copies = switches[0].multicast_to_group(Packet(), 7)
        sim.run()
        assert copies == 2
        assert sorted(hits) == ["s1", "s2"]
        assert switches[0].stats.multicast_copies == 2

    @staticmethod
    def _line(members):
        """s0 - s1 - s2 in a line, multicast group 7 of ``members``; each
        member records the replication copies addressed to it and, as a
        SwiShmem manager does, sends on the targets riding in them."""
        sim = Simulator()
        topo = Topology(sim, SeededRng(11))
        switches = [topo.add_node(PisaSwitch(f"s{i}", sim)) for i in range(3)]
        topo.connect("s0", "s1")
        topo.connect("s1", "s2")
        routing, registry = RoutingTable(topo), MulticastRegistry()
        registry.create(7, members)
        got = []

        def member(switch):
            def handler(packet, from_node):
                header = packet.swishmem
                if header.dst_node != switch.name:
                    return False
                got.append((switch.name, header.relay))
                if header.relay:
                    switch.relay(packet)
                return True

            return handler

        for switch in switches:
            switch.routing, switch.multicast = routing, registry
            if switch.name in members:
                switch.install_handler(member(switch))
        return sim, switches, got

    def test_a_two_hop_member_rides_in_the_copy_of_the_member_on_its_path(self):
        sim, (s0, s1, s2), got = self._line(["s0", "s1", "s2"])
        packet = Packet(swishmem=SwiShmemHeader(SwiShmemOp.EWO_UPDATE, 7))
        assert s0.multicast_to_group(packet, 7) == 1
        sim.run()
        assert got == [("s1", ("s2",)), ("s2", ())]
        assert (s0.stats.multicast_copies, s1.stats.multicast_copies) == (1, 1)
        first, onward = s0.links["s1"].ab, s1.links["s2"].ab
        assert (first.stats.packets_sent, onward.stats.packets_sent) == (1, 1)
        # the carrying copy pays ceil(3 members / 8) = 1 bitstring byte
        assert first.stats.bytes_sent == packet.wire_size + 1
        assert onward.stats.bytes_sent == packet.wire_size
        assert packet.swishmem.relay == () and packet.swishmem.dst_node is None

    def test_a_member_past_a_non_member_gets_its_own_copy(self):
        sim, (s0, s1, s2), got = self._line(["s0", "s2"])
        packet = Packet(swishmem=SwiShmemHeader(SwiShmemOp.EWO_UPDATE, 7))
        assert s0.multicast_to_group(packet, 7) == 1
        sim.run()
        assert got == [("s2", ())]
        assert s1.stats.multicast_copies == 0
        assert s0.links["s1"].ab.stats.bytes_sent == packet.wire_size


class TestControlPlane:
    def test_punt_costs_cpu_latency(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        switch = switches[0]
        seen = []
        switch.install_handler(
            lambda p, f: (switch.control.submit(lambda pk: seen.append(sim.now), p), True)[1]
        )
        hosts[0].inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run()
        assert len(seen) == 1
        assert seen[0] >= switch.control.op_latency
        assert switch.control.ops_executed == 1

    def test_cpu_serializes_ops(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        control = switches[0].control
        done = []
        control.submit(lambda: done.append(sim.now))
        control.submit(lambda: done.append(sim.now))
        sim.run()
        assert done[1] - done[0] == pytest.approx(control.op_latency)

    def test_buffer_and_release(self):
        sim, topo, switches, hosts, book, *_ = make_fabric()
        control = switches[0].control
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        control.buffer_packet("tok", packet, "h1")
        assert control.buffered_count == 1
        sim.run(until=1e-3)
        held = control.release_packet("tok")
        assert held == pytest.approx(1e-3)
        sim.run()
        assert len(hosts[1].received) == 1
        assert control.release_packet("tok") is None  # double release

    def test_drop_buffered(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        control = switches[0].control
        control.buffer_packet("tok", Packet(), "h1")
        assert control.drop_buffered("tok") is True
        assert control.drop_buffered("tok") is False

    def test_timer_fires_via_cpu(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        control = switches[0].control
        fired = []
        control.set_timer(1e-3, lambda: fired.append(sim.now))
        sim.run()
        assert len(fired) == 1
        assert fired[0] >= 1e-3 + control.op_latency

    def test_failed_switch_cpu_inert(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        switch = switches[0]
        switch.fail()
        fired = []
        switch.control.submit(lambda: fired.append(1))
        sim.run()
        assert fired == []

    def test_max_buffered_tracked(self):
        sim, topo, switches, *_ = make_fabric()
        control = switches[0].control
        control.buffer_packet("a", Packet(), "s1")
        control.buffer_packet("b", Packet(), "s1")
        control.drop_buffered("a")
        assert control.max_buffered == 2


class TestServiceRate:
    def test_finite_rate_serializes(self):
        sim = Simulator()
        topo = Topology(sim, SeededRng(1))
        book = AddressBook()
        switch = topo.add_node(PisaSwitch("s0", sim, pipeline_rate_pps=1000.0))
        host_a = topo.add_node(EndHost("a", sim, "10.0.0.1", book))
        host_b = topo.add_node(EndHost("b", sim, "10.0.0.2", book))
        topo.connect("a", "s0")
        topo.connect("b", "s0")
        switch.routing = RoutingTable(topo)
        switch.address_book = book
        for _ in range(5):
            host_a.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run()
        # 5 packets at 1000 pps -> last service at ~5 ms
        assert sim.now >= 5e-3
        assert len(host_b.received) == 5

    def test_queue_overflow_drops(self):
        sim = Simulator()
        topo = Topology(sim, SeededRng(1))
        book = AddressBook()
        switch = topo.add_node(
            PisaSwitch("s0", sim, pipeline_rate_pps=10.0, queue_capacity=3)
        )
        host_a = topo.add_node(EndHost("a", sim, "10.0.0.1", book))
        host_b = topo.add_node(EndHost("b", sim, "10.0.0.2", book))
        topo.connect("a", "s0")
        topo.connect("b", "s0")
        switch.routing = RoutingTable(topo)
        switch.address_book = book
        for _ in range(10):
            host_a.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run()
        assert switch.stats.queue_drops == 7
        assert len(host_b.received) == 3

    def test_failing_a_switch_empties_the_queue_depth_gauge(self):
        sim = Simulator()
        topo = Topology(sim, SeededRng(1))
        book = AddressBook()
        switch = topo.add_node(PisaSwitch("s0", sim, pipeline_rate_pps=10.0))
        host_a = topo.add_node(EndHost("a", sim, "10.0.0.1", book))
        topo.connect("a", "s0")
        registry = MetricsRegistry()
        SwiShmemDeployment(sim, topo, [switch], address_book=book, metrics=registry)
        for _ in range(10):
            host_a.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run(until=1e-3)  # all ten queued; the first service slot is at 100 ms
        depth = registry.get("gauge", "switch.queue_depth", "s0")
        assert (depth.value, depth.max_value) == (10, 10)
        switch.fail()
        depth = registry.get("gauge", "switch.queue_depth", "s0")
        assert (depth.value, depth.max_value) == (0, 10)
        assert switch.queue_depth == 0 and switch.queue_high_water == 10


class TestPacketGenerator:
    def test_periodic_generation(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        sent = []
        generator = PacketGenerator(
            switches[0], period=1e-3,
            body=lambda: sent.append(switches[0].generate_packet(Packet(), "s1")),
        ).start()
        sim.run(until=5.5e-3)
        assert len(sent) == 5
        assert switches[0].stats.generated_packets == 5

    def test_stops_on_switch_failure(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        ticks = []
        PacketGenerator(switches[0], period=1e-3, body=lambda: ticks.append(1)).start()
        sim.run(until=2.5e-3)
        switches[0].fail()
        sim.run(until=10e-3)
        assert len(ticks) == 2
        assert sim.pending() == 0  # the generator's process stopped itself

    def test_phase_staggering(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        ticks = []
        PacketGenerator(
            switches[0], period=1e-3, body=lambda: ticks.append(sim.now), phase=0.3e-3
        ).start()
        sim.run(until=1.5e-3)
        assert ticks[0] == pytest.approx(0.3e-3)


class TestFailStop:
    def test_failed_switch_drops_traffic(self):
        sim, topo, switches, hosts, *_ = make_fabric()
        for switch in switches:
            switch.fail()
        hosts[0].inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run()
        assert len(hosts[1].received) == 0

    def test_generate_packet_fails_when_dead(self):
        sim, topo, switches, *_ = make_fabric()
        switches[0].fail()
        assert switches[0].generate_packet(Packet(), "s1") is False
