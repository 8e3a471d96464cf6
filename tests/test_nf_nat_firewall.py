"""Tests for the NAT and stateful firewall NFs."""

from __future__ import annotations

import pytest

from repro.net.headers import TcpFlags
from repro.net.packet import make_tcp_packet
from repro.nf.firewall import ConnState, FirewallNF
from repro.nf.nat import NAT_PORT_BASE, NatNF

from repro.testing import build_nf_world


NAT_IP = "100.0.0.1"


def nat_world(**kwargs):
    world = build_nf_world(**kwargs)
    # the NAT's public IP terminates at the egress side of the cluster
    world.book.register(NAT_IP, "egress")
    nats = world.deployment.install_nf(NatNF, nat_ip=NAT_IP)
    return world, nats


class TestNat:
    def test_outbound_rewritten_to_nat_ip(self):
        world, nats = nat_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1111, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.05)
        assert len(server.received) == 1
        rewritten = server.received[0].packet
        assert rewritten.ipv4.src == NAT_IP
        assert rewritten.tcp.src_port >= NAT_PORT_BASE

    def test_reply_translated_back(self):
        world, nats = nat_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1111, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        # responder server answered to the NAT IP; the NAT translated it back
        assert len(client.received) == 1
        reply = client.received[0].packet
        assert reply.ipv4.dst == client.ip
        assert reply.tcp.dst_port == 1111
        assert reply.tcp.flags & TcpFlags.SYN and reply.tcp.flags & TcpFlags.ACK

    def test_mapping_reused_for_same_connection(self):
        world, nats = nat_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1111, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        client.inject(make_tcp_packet(client.ip, server.ip, 1111, 80, payload_size=64))
        world.sim.run(until=0.2)
        ports = {r.packet.tcp.src_port for r in server.received}
        assert len(ports) == 1  # same NAT port both times
        assert sum(n.ports_allocated for n in nats) == 1

    def test_distinct_connections_get_distinct_ports(self):
        world, nats = nat_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1111, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        client.inject(make_tcp_packet(client.ip, server.ip, 2222, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.2)
        ports = {r.packet.tcp.src_port for r in server.received}
        assert len(ports) == 2

    def test_unsolicited_inbound_dropped(self):
        world, nats = nat_world()
        server = world.servers[0]
        # a server-side host probes a random NAT port with no mapping
        server.inject(make_tcp_packet(server.ip, NAT_IP, 80, NAT_PORT_BASE + 5, flags=TcpFlags.SYN))
        world.sim.run(until=0.05)
        dropped = sum(n.stats.dropped for n in nats)
        assert dropped == 1

    def test_port_ranges_disjoint_per_switch(self):
        world, nats = nat_world()
        ranges = [(n._next_port, n._port_limit) for n in nats]
        for i, (lo_a, hi_a) in enumerate(ranges):
            for lo_b, hi_b in ranges[i + 1 :]:
                assert hi_a <= lo_b or hi_b <= lo_a

    def test_table_replicated_everywhere(self):
        world, nats = nat_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1111, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        spec = world.deployment.spec_by_name("nat_table")
        stores = world.deployment.sro_stores(spec)
        assert all(len(store) == 2 for store in stores)  # forward + reverse

    def test_mapping_survives_assigning_switch_failure(self):
        """The paper's failure argument: state must outlive its writer."""
        world, nats = nat_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1111, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        # whichever cluster switch handled it, fail the ingress path's
        # first NF switch; the mapping is on every replica
        victim = world.cluster[0].name
        world.deployment.controller.note_failure_time(victim)
        world.deployment.fail_switch(victim)
        world.sim.run(until=0.15)
        client.inject(make_tcp_packet(client.ip, server.ip, 1111, 80, payload_size=10))
        world.sim.run(until=0.3)
        ports = {r.packet.tcp.src_port for r in server.received}
        assert len(ports) == 1  # translation unchanged across the failure


class TestNatUdp:
    def test_udp_translated_both_ways(self):
        from repro.net.packet import make_udp_packet

        world, nats = nat_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_udp_packet(client.ip, server.ip, 5353, 53, payload_size=40))
        world.sim.run(until=0.1)
        assert len(server.received) == 1
        outbound = server.received[0].packet
        assert outbound.ipv4.src == NAT_IP
        assert outbound.udp.src_port >= NAT_PORT_BASE
        # craft the server's reply manually (UDP responder not modeled)
        server.inject(
            make_udp_packet(server.ip, NAT_IP, 53, outbound.udp.src_port, payload_size=40)
        )
        world.sim.run(until=0.2)
        assert len(client.received) == 1
        reply = client.received[0].packet
        assert reply.ipv4.dst == client.ip and reply.udp.dst_port == 5353

    def test_tcp_and_udp_mappings_distinct(self):
        from repro.net.packet import make_udp_packet

        world, nats = nat_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 7000, 80, flags=TcpFlags.SYN))
        client.inject(make_udp_packet(client.ip, server.ip, 7000, 53))
        world.sim.run(until=0.2)
        # same source port, different protocols -> two separate mappings
        spec = world.deployment.spec_by_name("nat_table")
        forward_keys = [
            key for key in world.deployment.sro_stores(spec)[0] if key[0] == "f"
        ]
        assert len(forward_keys) == 2


def firewall_world(**kwargs):
    world = build_nf_world(**kwargs)
    firewalls = world.deployment.install_nf(FirewallNF)
    return world, firewalls


class TestFirewall:
    def test_outbound_syn_opens_connection(self):
        world, firewalls = firewall_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1000, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        assert len(server.received) == 1
        # server's SYN|ACK was allowed back through
        assert len(client.received) == 1
        spec = world.deployment.spec_by_name("fw_conntrack")
        state = world.deployment.sro_stores(spec)[0]
        assert ConnState.ESTABLISHED in state.values()

    def test_unsolicited_inbound_dropped(self):
        world, firewalls = firewall_world()
        client, server = world.clients[0], world.servers[0]
        server.inject(make_tcp_packet(server.ip, client.ip, 80, 1000, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        assert client.received == []
        assert sum(f.stats.dropped for f in firewalls) == 1

    def test_inbound_after_close_dropped(self):
        world, firewalls = firewall_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1000, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        client.inject(make_tcp_packet(client.ip, server.ip, 1000, 80, flags=TcpFlags.RST))
        world.sim.run(until=0.2)
        baseline = len(client.received)
        server.inject(make_tcp_packet(server.ip, client.ip, 80, 1000, payload_size=10))
        world.sim.run(until=0.3)
        assert len(client.received) == baseline  # late server data blocked

    def test_established_data_flows_both_ways(self):
        world, firewalls = firewall_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1000, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        client.inject(
            make_tcp_packet(client.ip, server.ip, 1000, 80, flags=TcpFlags.ACK | TcpFlags.PSH, payload_size=100)
        )
        world.sim.run(until=0.2)
        assert len(server.received) == 2
        # server's ACK for the data came back
        assert len(client.received) == 2

    def test_state_checked_on_every_packet(self):
        world, firewalls = firewall_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1000, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        spec = world.deployment.spec_by_name("fw_conntrack")
        reads_before = sum(
            world.deployment.manager(n).sro.stats_for(spec.group_id).local_reads
            + world.deployment.manager(n).sro.stats_for(spec.group_id).tail_reads
            for n in world.deployment.switch_names
        )
        client.inject(make_tcp_packet(client.ip, server.ip, 1000, 80, payload_size=10))
        world.sim.run(until=0.2)
        reads_after = sum(
            world.deployment.manager(n).sro.stats_for(spec.group_id).local_reads
            + world.deployment.manager(n).sro.stats_for(spec.group_id).tail_reads
            for n in world.deployment.switch_names
        )
        assert reads_after > reads_before

    def test_non_tcp_not_policed(self):
        from repro.net.packet import make_udp_packet

        world, firewalls = firewall_world()
        client, server = world.clients[0], world.servers[0]
        client.inject(make_udp_packet(client.ip, server.ip, 500, 53))
        world.sim.run(until=0.05)
        assert len(server.received) == 1
