"""Tests for the SwiShmem manager, deployment facade, and NF integration."""

from __future__ import annotations

import pytest

from repro.core.manager import Decision, SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, ReadForwarded, RegisterSpec
from repro.net.endhost import AddressBook, EndHost
from repro.net.packet import make_tcp_packet
from repro.net.topology import Topology, build_full_mesh
from repro.nf.base import NetworkFunction
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch


class EchoNF(NetworkFunction):
    """Test NF: counts packets in an EWO counter and forwards."""

    @classmethod
    def build_specs(cls, **kwargs):
        return [
            RegisterSpec(
                "echo_count", Consistency.EWO, ewo_mode=EwoMode.COUNTER, capacity=128
            )
        ]

    def process(self, ctx):
        self.handles["echo_count"].increment("packets")
        return Decision.forward()


class DropAllNF(NetworkFunction):
    @classmethod
    def build_specs(cls, **kwargs):
        return []

    def process(self, ctx):
        return Decision.drop()


class StrongWriterNF(NetworkFunction):
    """Writes every packet's flow into an SRO table, then forwards."""

    SPEC_KWARGS = {}

    @classmethod
    def build_specs(cls, **kwargs):
        return [RegisterSpec("seen_flows", Consistency.SRO, capacity=256, **cls.SPEC_KWARGS)]

    def process(self, ctx):
        flow = ctx.packet.five_tuple()
        handle = self.handles["seen_flows"]
        if flow is not None and handle.read(flow.as_tuple()) is None:
            handle.write(flow.as_tuple(), True)
        return Decision.forward()


class StrongTableWriterNF(StrongWriterNF):
    """Same, but the store is a control-plane table: each chain hop
    costs a CPU op, widening the pending window (used to exercise the
    read-forward path deterministically)."""

    SPEC_KWARGS = {"control_plane_state": True}


def build_world(n=3, control_op_latency=20e-6, **dep_kwargs):
    sim = Simulator()
    rng = SeededRng(77)
    topo = Topology(sim, rng)
    book = AddressBook()
    switches = build_full_mesh(
        topo,
        lambda name: PisaSwitch(name, sim, control_op_latency=control_op_latency),
        n,
    )
    src = topo.add_node(EndHost("src", sim, "10.0.0.1", book))
    dst = topo.add_node(EndHost("dst", sim, "10.0.0.2", book))
    topo.connect("src", "s0")
    topo.connect("dst", f"s{n-1}")
    deployment = SwiShmemDeployment(sim, topo, switches, address_book=book, **dep_kwargs)
    return sim, deployment, src, dst


class TestDeploymentSetup:
    def test_requires_switches(self):
        sim = Simulator()
        topo = Topology(sim, SeededRng(1))
        with pytest.raises(ValueError):
            SwiShmemDeployment(sim, topo, [])

    def test_duplicate_group_name_rejected(self, deployment):
        deployment.declare(RegisterSpec("x", Consistency.SRO))
        with pytest.raises(ValueError):
            deployment.declare(RegisterSpec("x", Consistency.EWO))

    def test_group_ids_unique_and_resolvable(self, deployment):
        a = deployment.declare(RegisterSpec("a", Consistency.SRO))
        b = deployment.declare(RegisterSpec("b", Consistency.EWO))
        assert a.group_id != b.group_id
        assert deployment.spec_by_name("a") is a

    def test_node_ids_stable(self, deployment):
        assert deployment.node_id("s0") == 0
        assert deployment.node_id("s2") == 2

    def test_clock_offsets_bounded_by_skew(self, make_deployment):
        dep, _, _ = make_deployment(3, clock_skew=50e-9)
        for name in dep.switch_names:
            assert abs(dep.clock_offset(name)) <= 50e-9

    def test_chain_covers_all_switches(self, deployment):
        spec = deployment.declare(RegisterSpec("r", Consistency.SRO))
        assert tuple(deployment.chains[spec.group_id].members) == ("s0", "s1", "s2")

    def test_multicast_group_covers_all_switches(self, deployment):
        spec = deployment.declare(
            RegisterSpec("c", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        assert deployment.multicast.get(spec.group_id).members == ["s0", "s1", "s2"]

    def test_handles_per_switch(self, deployment):
        spec = deployment.declare(RegisterSpec("r", Consistency.SRO))
        h0 = deployment.handle("s0", spec)
        h1 = deployment.handle("s1", spec)
        assert h0 is not h1
        assert h0.spec is h1.spec


class TestNfIntegration:
    def test_nf_installed_on_every_switch(self):
        sim, dep, src, dst = build_world()
        instances = dep.install_nf(EchoNF)
        assert len(instances) == 3

    def test_packets_counted_once_per_switch_pass(self):
        sim, dep, src, dst = build_world()
        dep.install_nf(EchoNF)
        src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run(until=0.05)
        spec = dep.spec_by_name("echo_count")
        # the packet crossed s0 and s2 (mesh shortest path src->dst)
        total = dep.manager("s0").ewo.local_state(spec.group_id)["packets"]
        assert total == 2
        assert len(dst.received) == 1

    def test_drop_decision_stops_packet(self):
        sim, dep, src, dst = build_world()
        dep.install_nf(DropAllNF)
        src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run(until=0.05)
        assert dst.received == []

    def test_strong_write_buffers_output_until_commit(self):
        sim, dep, src, dst = build_world()
        dep.install_nf(StrongWriterNF)
        src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run(until=10e-6)  # packet reached s0, chain still in progress
        assert dst.received == []
        buffered = dep.manager("s0").switch.control.buffered_count
        assert buffered == 1
        sim.run(until=0.05)
        assert len(dst.received) == 1
        assert dep.manager("s0").switch.control.buffered_count == 0

    def test_write_set_applied_before_release(self):
        sim, dep, src, dst = build_world()
        dep.install_nf(StrongWriterNF)
        src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run(until=0.05)
        spec = dep.spec_by_name("seen_flows")
        stores = dep.sro_stores(spec)
        assert all(len(store) == 1 for store in stores)

    def test_second_packet_reads_locally_everywhere(self):
        sim, dep, src, dst = build_world()
        dep.install_nf(StrongWriterNF)
        src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run(until=0.05)
        src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        sim.run(until=0.1)
        assert len(dst.received) == 2
        spec = dep.spec_by_name("seen_flows")
        stats = dep.manager("s0").sro.stats_for(spec.group_id)
        assert stats.writes_initiated == 1  # only the first packet wrote

    def test_read_forward_reprocesses_at_tail(self):
        sim, dep, src, dst = build_world(control_op_latency=500e-6)
        dep.install_nf(StrongTableWriterNF)
        src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        # while the write is pending at s0 (the table chain needs a CPU
        # op per member, so commit takes >1.5 ms), a second packet of the
        # same flow arrives: its read hits the pending bit and forwards
        sim.schedule(700e-6, lambda: src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)))
        sim.run(until=0.1)
        spec = dep.spec_by_name("seen_flows")
        forwarded = sum(
            dep.manager(n).sro.stats_for(spec.group_id).forwarded_reads
            for n in dep.switch_names
        )
        tail_reads = dep.manager("s2").sro.stats_for(spec.group_id).tail_reads
        assert forwarded >= 1
        assert tail_reads >= 1
        assert len(dst.received) == 2  # both packets ultimately delivered


class TestControlPlaneWrites:
    def test_write_without_packet_context(self, deployment):
        spec = deployment.declare(RegisterSpec("cfg", Consistency.SRO))
        deployment.manager("s0").register_write(spec, "key", "value")
        deployment.sim.run(until=0.05)
        assert all(s.get("key") == "value" for s in deployment.sro_stores(spec))

    def test_peek_never_forwards(self, make_deployment):
        dep, _, _ = make_deployment(3, control_op_latency=500e-6)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        # mid-write peek on another switch: no exception, no forwarding
        handle = dep.handle("s1", spec)
        assert handle.peek("k", "absent") == "absent"
        dep.sim.run(until=0.1)
        assert handle.peek("k") == 1


class TestHistoryRecording:
    def test_disabled_by_default(self, make_deployment):
        dep, _, _ = make_deployment(2)
        assert dep.history is None
        spec = dep.declare(RegisterSpec("r", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
        dep.manager("s0").register_increment(spec, "k", 1)  # must not crash

    def test_ewo_ops_recorded_as_instants(self, deployment):
        spec = deployment.declare(
            RegisterSpec("c", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        deployment.manager("s0").register_increment(spec, "k", 1)
        deployment.manager("s1").register_read(spec, "k", None)
        ops = deployment.history.operations()
        assert len(ops) == 2
        assert all(op.invoked_at == op.completed_at for op in ops)


class TestDecision:
    def test_factories(self):
        assert Decision.forward().kind == Decision.FORWARD_IP
        assert Decision.drop().kind == Decision.DROP
