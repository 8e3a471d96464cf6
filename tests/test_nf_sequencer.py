"""Tests for linearizable fetch-add and the in-network sequencer."""

from __future__ import annotations

import pytest

from repro.core.registers import Consistency, EwoMode, FetchAdd, RegisterSpec
from repro.net.packet import make_udp_packet
from repro.nf.sequencer import SequencerNF

from repro.testing import build_nf_world


class TestFetchAdd:
    def test_sequential_fetch_adds_are_dense(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("seq", Consistency.SRO))
        for i in range(10):
            dep.sim.schedule(
                i * 100e-6,
                lambda i=i: dep.manager(f"s{i % 3}").register_fetch_add(spec, "n"),
            )
        dep.sim.run(until=0.1)
        assert all(s.get("n") == 10 for s in dep.sro_stores(spec))

    def test_concurrent_fetch_adds_never_lose_updates(self, make_deployment):
        """The difference from blind writes: concurrent +1s all count."""
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("seq", Consistency.SRO))
        # all at once from all three switches
        for i in range(15):
            dep.sim.schedule(
                i * 1e-6,
                lambda i=i: dep.manager(f"s{i % 3}").register_fetch_add(spec, "n"),
            )
        dep.sim.run(until=0.2)
        assert all(s.get("n") == 15 for s in dep.sro_stores(spec))

    def test_retry_does_not_double_add(self, make_deployment):
        """Head dedup must replay the *assigned* value on retries."""
        dep, _, _ = make_deployment(3, loss_rate=0.3)
        spec = dep.declare(RegisterSpec("seq", Consistency.SRO))
        for i in range(12):
            dep.sim.schedule(
                i * 200e-6,
                lambda i=i: dep.manager(f"s{i % 3}").register_fetch_add(spec, "n"),
            )
        dep.sim.run(until=3.0)
        stats_sum = sum(
            dep.manager(n).sro.stats_for(spec.group_id).retries
            for n in dep.switch_names
        )
        assert stats_sum > 0  # retries actually happened
        assert all(s.get("n") == 12 for s in dep.sro_stores(spec))

    def test_rejected_on_ewo_groups(self, make_deployment):
        dep, _, _ = make_deployment(2)
        spec = dep.declare(RegisterSpec("c", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
        with pytest.raises(TypeError):
            dep.manager("s0").register_fetch_add(spec, "k")

    def test_fetch_add_amount(self, make_deployment):
        dep, _, _ = make_deployment(2)
        spec = dep.declare(RegisterSpec("seq", Consistency.SRO))
        dep.manager("s0").register_fetch_add(spec, "n", amount=5)
        dep.manager("s1").register_fetch_add(spec, "n", amount=3)
        dep.sim.run(until=0.1)
        assert all(s.get("n") == 8 for s in dep.sro_stores(spec))


class TestSequencerNF:
    def _world(self, dataplane=True, **kwargs):
        world = build_nf_world(responder_servers=False, **kwargs)
        instances = world.deployment.install_nf(
            SequencerNF, sequenced_port=9000, dataplane=dataplane
        )
        return world, instances

    def test_packets_stamped_with_unique_dense_numbers(self):
        world, instances = self._world()
        client, server = world.clients[0], world.servers[0]
        for i in range(12):
            world.sim.schedule(
                i * 50e-6,
                lambda p=5000 + i: client.inject(
                    make_udp_packet(client.ip, server.ip, p, 9000, payload_size=32)
                ),
            )
        world.sim.run(until=0.1)
        stamps = sorted(r.packet.ipv4.identification for r in server.received)
        assert stamps == list(range(1, 13))  # unique, gap-free, from 1

    def test_numbers_unique_across_entry_switches(self):
        """Different clients (different ECMP paths / sequencing switches)
        still draw from one global sequence."""
        world, instances = self._world(clients=4)
        server = world.servers[0]
        for i in range(16):
            client = world.clients[i % 4]
            world.sim.schedule(
                i * 50e-6,
                lambda c=client, p=5000 + i: c.inject(
                    make_udp_packet(c.ip, server.ip, p, 9000, payload_size=32)
                ),
            )
        world.sim.run(until=0.2)
        stamps = [r.packet.ipv4.identification for r in server.received]
        assert len(stamps) == 16
        assert sorted(stamps) == list(range(1, 17))

    def test_unsequenced_traffic_untouched(self):
        world, instances = self._world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_udp_packet(client.ip, server.ip, 1, 80, payload_size=32))
        world.sim.run(until=0.05)
        assert len(server.received) == 1
        assert server.received[0].packet.ipv4.identification == 0
        assert sum(i.sequenced_packets for i in instances) == 0

    def test_sequencing_adds_no_cpu_work(self):
        world, instances = self._world(dataplane=True)
        client, server = world.clients[0], world.servers[0]
        for i in range(6):
            world.sim.schedule(
                i * 50e-6,
                lambda p=5000 + i: client.inject(
                    make_udp_packet(client.ip, server.ip, p, 9000, payload_size=32)
                ),
            )
        world.sim.run(until=0.1)
        assert len(server.received) == 6
        total_cpu = sum(s.control.ops_executed for s in world.switches)
        assert total_cpu == 0

    def test_control_plane_variant_also_correct(self):
        world, instances = self._world(dataplane=False)
        client, server = world.clients[0], world.servers[0]
        for i in range(6):
            world.sim.schedule(
                i * 300e-6,
                lambda p=5000 + i: client.inject(
                    make_udp_packet(client.ip, server.ip, p, 9000, payload_size=32)
                ),
            )
        world.sim.run(until=0.2)
        stamps = sorted(r.packet.ipv4.identification for r in server.received)
        assert stamps == list(range(1, 7))
        total_cpu = sum(s.control.ops_executed for s in world.switches)
        assert total_cpu > 0  # the CPU path was exercised
