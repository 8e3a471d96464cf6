"""Tests for INT-style per-packet telemetry: hop stamping along a
switch chain, wire-size accounting, the max-hop truncation budget, path
decoding, and the sink's metric feed."""

from __future__ import annotations

import pytest

from repro.net.endhost import AddressBook, EndHost
from repro.net.headers import SwiShmemHeader
from repro.net.multicast import MulticastRegistry
from repro.net.packet import Packet, make_tcp_packet
from repro.net.routing import RoutingTable
from repro.net.topology import Topology
from repro.obs.inttel import (
    INT_HOP_BYTES,
    INT_SHIM_BYTES,
    IntHopRecord,
    IntSink,
    IntTelemetry,
    decode_path,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch

LINK_LATENCY = 5e-6


def make_chain_fabric(length=3, int_enabled=True, max_hops=16):
    """h0 - s0 - s1 - ... - s{n-1} - h1, with INT on every switch."""
    sim = Simulator()
    topo = Topology(sim, SeededRng(3))
    book = AddressBook()
    switches = [topo.add_node(PisaSwitch(f"s{i}", sim)) for i in range(length)]
    for left, right in zip(switches, switches[1:]):
        topo.connect(left.name, right.name, LINK_LATENCY)
    src = topo.add_node(EndHost("h0", sim, "10.0.0.1", book))
    dst = topo.add_node(EndHost("h1", sim, "10.0.0.2", book))
    topo.connect("h0", switches[0].name, LINK_LATENCY)
    topo.connect("h1", switches[-1].name, LINK_LATENCY)
    routing = RoutingTable(topo)
    for switch in switches:
        switch.routing = routing
        switch.address_book = book
        switch.int_enabled = int_enabled
        switch.int_max_hops = max_hops
    return sim, switches, src, dst


class TestIntStack:
    def test_wire_size_grows_per_hop(self):
        telemetry = IntTelemetry()
        assert telemetry.wire_size == INT_SHIM_BYTES
        telemetry.push(IntHopRecord("s0", 0.0, 1e-6))
        telemetry.push(IntHopRecord("s1", 2e-6, 3e-6))
        assert telemetry.wire_size == INT_SHIM_BYTES + 2 * INT_HOP_BYTES

    def test_push_past_budget_truncates(self):
        telemetry = IntTelemetry(max_hops=2)
        assert telemetry.push(IntHopRecord("s0", 0.0, 1e-6))
        assert telemetry.push(IntHopRecord("s1", 2e-6, 3e-6))
        assert not telemetry.push(IntHopRecord("s2", 4e-6, 5e-6))
        assert telemetry.path == ["s0", "s1"]
        assert telemetry.truncated == 1

    def test_decode_separates_switch_and_link_time(self):
        telemetry = IntTelemetry()
        telemetry.push(IntHopRecord("s0", 10e-6, 12e-6, queue_depth=1, state_ops=2))
        telemetry.push(IntHopRecord("s1", 15e-6, 16e-6))
        decoded = decode_path(telemetry, delivered_at=20e-6)
        assert decoded["path"] == ["s0", "s1"]
        assert decoded["switch_time"] == pytest.approx(3e-6)  # 2us + 1us
        # 3us between the hops plus the 4us last mile to the sink
        assert decoded["link_time"] == pytest.approx(7e-6)
        assert decoded["total_latency"] == pytest.approx(10e-6)
        assert decoded["state_ops"] == 2
        assert decoded["hops"][0]["queue_depth"] == 1


class TestIntOnChain:
    def test_three_switch_chain_stamps_every_hop(self):
        sim, switches, src, dst = make_chain_fabric(length=3)
        registry = MetricsRegistry()
        sink = IntSink(sim, registry)
        dst.on_receive = sink

        src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run()

        assert len(dst.received) == 1
        # the sink strips telemetry before the application sees the packet
        assert dst.received[0].packet.int_data is None
        assert len(sink.decoded) == 1
        decoded = sink.decoded[0]
        assert decoded["path"] == ["s0", "s1", "s2"]
        assert decoded["truncated"] == 0
        # two inter-switch links plus the last mile to h1, each >= latency
        assert decoded["link_time"] >= 3 * LINK_LATENCY
        # infinite service rate: the pass itself is instantaneous, so hop
        # time is pure queue wait (zero here — see the finite-rate test)
        assert all(hop["hop_latency"] >= 0 for hop in decoded["hops"])
        # decoded time accounts for the full first-ingress-to-delivery span
        assert decoded["total_latency"] == pytest.approx(
            decoded["switch_time"] + decoded["link_time"]
        )
        assert decoded["total_latency"] > 0
        # the sink fed its histograms
        assert registry.value("counter", "int.paths_decoded", "int-sink") == 1
        hist = registry.get("histogram", "int.path_latency_seconds", "int-sink")
        assert hist.count == 1

    def test_finite_service_rate_shows_up_as_hop_latency(self):
        sim, switches, src, dst = make_chain_fabric(length=3)
        # the middle switch serves one packet per microsecond
        switches[1].pipeline_rate_pps = 1e6
        sink = IntSink(sim)
        dst.on_receive = sink

        for port in (1, 2, 3):
            src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", port, 80))
        sim.run()

        assert len(sink.decoded) == 3
        # every packet waited at least one service slot at s1...
        for decoded in sink.decoded:
            s1 = next(h for h in decoded["hops"] if h["node"] == "s1")
            assert s1["hop_latency"] >= 1e-6
        # ...and the back-to-back burst queued behind the first packet
        depths = [
            next(h for h in d["hops"] if h["node"] == "s1")["queue_depth"]
            for d in sink.decoded
        ]
        assert max(depths) > 0

    def test_max_hop_budget_truncates_on_path(self):
        sim, switches, src, dst = make_chain_fabric(length=4, max_hops=2)
        registry = MetricsRegistry()
        sink = IntSink(sim, registry)
        dst.on_receive = sink

        src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run()

        decoded = sink.decoded[0]
        assert decoded["path"] == ["s0", "s1"]
        assert decoded["truncated"] == 2
        assert registry.value("counter", "int.hops_truncated", "int-sink") == 2

    def test_multicast_copies_grow_their_own_stacks(self):
        """Fan-out copies share the hop records pushed before the split
        and nothing after it: each copy's stack names only its own path."""
        sim, switches, _, _ = make_chain_fabric(length=3)
        s0, s1, s2 = switches
        registry = MulticastRegistry()
        registry.create(7, ["s0", "s1", "s2"])
        s1.multicast = registry
        arrived = {}

        def capture(name):
            def handler(packet, from_node):
                arrived[name] = packet
                return True  # consumed; the hop is stamped after the pass

            return handler

        s0.install_handler(capture("s0"))
        s2.install_handler(capture("s2"))
        original = Packet(swishmem=SwiShmemHeader(register_group=7))
        original.int_data = IntTelemetry()
        upstream = IntHopRecord("up", 0.0, 1e-6)
        original.int_data.push(upstream)

        assert s1.multicast_to_group(original, 7) == 2
        sim.run()

        assert original.int_data.path == ["up"]
        assert arrived["s0"].int_data.path == ["up", "s0"]
        assert arrived["s2"].int_data.path == ["up", "s2"]
        stacks = [p.int_data for p in (original, arrived["s0"], arrived["s2"])]
        assert len({id(stack.hops) for stack in stacks}) == 3
        assert all(stack.hops[0] is upstream for stack in stacks)
        # a sibling pushed past its budget does not truncate the others
        arrived["s0"].int_data.max_hops = 2
        assert not arrived["s0"].int_data.push(IntHopRecord("x", 0.0, 0.0))
        assert arrived["s0"].int_data.truncated == 1
        assert original.int_data.truncated == arrived["s2"].int_data.truncated == 0

    def test_hop_records_are_immutable(self):
        record = IntHopRecord("s0", 0.0, 1e-6)
        with pytest.raises(AttributeError):
            record.egress_time = 2e-6

    def test_int_disabled_adds_nothing(self):
        sim, switches, src, dst = make_chain_fabric(length=3, int_enabled=False)
        sink = IntSink(sim)
        dst.on_receive = sink

        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        base_size = packet.wire_size
        src.inject(packet)
        sim.run()

        assert sink.decoded == []
        assert dst.received[0].packet.int_data is None
        assert dst.received[0].packet.wire_size == base_size

    def test_int_overhead_counts_on_the_wire(self):
        sim, switches, src, dst = make_chain_fabric(length=2)
        seen_sizes = []
        dst.on_receive = lambda packet, from_node: seen_sizes.append(
            packet.wire_size
        )
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        base_size = packet.wire_size
        src.inject(packet)
        sim.run()
        # on delivery the packet still carries shim + one record per switch
        assert seen_sizes == [base_size + INT_SHIM_BYTES + 2 * INT_HOP_BYTES]
