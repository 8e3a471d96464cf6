"""Tests for the IPS and L4 load balancer NFs."""

from __future__ import annotations

import pytest

from repro.net.headers import TcpFlags
from repro.net.packet import make_tcp_packet, make_udp_packet
from repro.nf.ips import IpsNF, packet_signature
from repro.nf.loadbalancer import LoadBalancerNF

from repro.testing import build_nf_world

VIP = "100.0.0.100"


class TestPacketSignature:
    def test_stable_for_same_content(self):
        a = make_udp_packet("1.1.1.1", "2.2.2.2", 10, 53, payload_size=100)
        b = make_udp_packet("3.3.3.3", "4.4.4.4", 99, 53, payload_size=100)
        assert packet_signature(a) == packet_signature(b)  # content-based

    def test_digest_changes_signature(self):
        a = make_udp_packet("1.1.1.1", "2.2.2.2", 10, 53, payload_size=100)
        b = make_udp_packet("1.1.1.1", "2.2.2.2", 10, 53, payload_size=100)
        b.payload_digest = 777
        assert packet_signature(a) != packet_signature(b)

    def test_non_ip_packet_zero(self):
        from repro.net.packet import Packet

        assert packet_signature(Packet()) == 0


def ips_world(**kwargs):
    world = build_nf_world(**kwargs)
    instances = world.deployment.install_nf(IpsNF, block_threshold=3)
    return world, instances


def malicious_packet(src, dst, digest=666):
    packet = make_udp_packet(src, dst, 4000, 53, payload_size=64)
    packet.payload_digest = digest
    return packet


class TestIps:
    def test_benign_traffic_passes(self):
        world, instances = ips_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_udp_packet(client.ip, server.ip, 1000, 53))
        world.sim.run(until=0.05)
        assert len(server.received) == 1

    def test_signature_match_drops_packet(self):
        world, instances = ips_world()
        client, server = world.clients[0], world.servers[0]
        # operator installs the signature on one switch's control plane
        instances[0].add_signature(packet_signature(malicious_packet(client.ip, server.ip)))
        world.sim.run(until=0.05)  # let the ERO chain replicate it
        client.inject(malicious_packet(client.ip, server.ip))
        world.sim.run(until=0.1)
        assert server.received == []
        assert sum(i.signature_hits for i in instances) == 1

    def test_signature_replicates_to_all_switches(self):
        world, instances = ips_world()
        signature = 0xDEAD
        instances[2].add_signature(signature)
        world.sim.run(until=0.05)
        spec = world.deployment.spec_by_name("ips_signatures")
        assert all(store.get(signature) is True for store in world.deployment.sro_stores(spec))

    def test_source_blocked_after_threshold(self):
        world, instances = ips_world()
        client, server = world.clients[0], world.servers[0]
        instances[0].add_signature(packet_signature(malicious_packet(client.ip, server.ip)))
        world.sim.run(until=0.05)
        for _ in range(4):
            client.inject(malicious_packet(client.ip, server.ip))
        world.sim.run(until=0.2)
        # after 3 matches the source is blocked wholesale: even benign
        # traffic from it is dropped
        client.inject(make_udp_packet(client.ip, server.ip, 1000, 53))
        world.sim.run(until=0.3)
        assert server.received == []
        assert sum(i.blocked_packets for i in instances) >= 1

    def test_match_counts_shared_across_switches(self):
        world, instances = ips_world()
        client = world.clients[0]
        spec = world.deployment.spec_by_name("ips_matches")
        manager = world.deployment.manager(world.cluster[0].name)
        # seed matches on two different switches directly
        world.deployment.manager(world.cluster[0].name).register_increment(spec, client.ip, 2)
        world.deployment.manager(world.cluster[1].name).register_increment(spec, client.ip, 2)
        world.sim.run(until=0.05)
        # every switch now sees 4 >= threshold 3
        for name in world.deployment.switch_names:
            assert world.deployment.manager(name).ewo.local_state(spec.group_id)[client.ip] == 4

    def test_remove_signature(self):
        world, instances = ips_world()
        client, server = world.clients[0], world.servers[0]
        sig = packet_signature(malicious_packet(client.ip, server.ip))
        instances[0].add_signature(sig)
        world.sim.run(until=0.05)
        instances[0].remove_signature(sig)
        world.sim.run(until=0.1)
        client.inject(malicious_packet(client.ip, server.ip))
        world.sim.run(until=0.15)
        assert len(server.received) == 1


def lb_world(shared_state=True, **kwargs):
    world = build_nf_world(**kwargs)
    world.book.register(VIP, "egress")
    instances = world.deployment.install_nf(
        LoadBalancerNF, vip=VIP, dips=world.server_ips(), shared_state=shared_state
    )
    return world, instances


class TestLoadBalancer:
    def test_syn_assigns_dip_and_delivers(self):
        world, instances = lb_world()
        client = world.clients[0]
        client.inject(make_tcp_packet(client.ip, VIP, 5000, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        delivered = [s for s in world.servers if s.received]
        assert len(delivered) == 1
        assert sum(i.new_connections for i in instances) == 1

    def test_subsequent_packets_follow_assignment(self):
        world, instances = lb_world()
        client = world.clients[0]
        client.inject(make_tcp_packet(client.ip, VIP, 5000, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        for _ in range(5):
            client.inject(make_tcp_packet(client.ip, VIP, 5000, 80, payload_size=10))
        world.sim.run(until=0.3)
        delivered = [s for s in world.servers if s.received]
        assert len(delivered) == 1  # per-connection consistency
        assert len(delivered[0].received) == 6

    def test_connections_spread_over_dips(self):
        world, instances = lb_world()
        client = world.clients[0]
        for port in range(5000, 5008):
            client.inject(make_tcp_packet(client.ip, VIP, port, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.3)
        used = [s for s in world.servers if s.received]
        assert len(used) >= 2

    def test_non_vip_traffic_untouched(self):
        world, instances = lb_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 5000, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        assert len(server.received) == 1
        assert sum(i.new_connections for i in instances) == 0

    def test_mid_connection_packet_without_mapping_dropped(self):
        world, instances = lb_world()
        client = world.clients[0]
        client.inject(make_tcp_packet(client.ip, VIP, 5000, 80, payload_size=10))
        world.sim.run(until=0.1)
        assert all(not s.received for s in world.servers)
        assert sum(i.stats.dropped for i in instances) == 1

    def test_requires_dips(self):
        world = build_nf_world()
        with pytest.raises(ValueError):
            world.deployment.install_nf(LoadBalancerNF, vip=VIP, dips=[])

    def test_assignment_survives_switch_failure(self):
        world, instances = lb_world()
        client = world.clients[0]
        client.inject(make_tcp_packet(client.ip, VIP, 5000, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        target_before = next(s for s in world.servers if s.received)
        victim = world.cluster[0].name
        world.deployment.controller.note_failure_time(victim)
        world.deployment.fail_switch(victim)
        world.sim.run(until=0.15)
        client.inject(make_tcp_packet(client.ip, VIP, 5000, 80, payload_size=10))
        world.sim.run(until=0.3)
        assert len(target_before.received) == 2  # same DIP after the failure

    def test_sharded_baseline_has_no_shared_registers(self):
        world, instances = lb_world(shared_state=False)
        assert "lb_connections" not in world.deployment._spec_names
        client = world.clients[0]
        client.inject(make_tcp_packet(client.ip, VIP, 5000, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        assert any(s.received for s in world.servers)
