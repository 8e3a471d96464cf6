"""Cross-module integration tests: full NF stacks, multipath fabrics,
failure + recovery end-to-end, and deployment-level determinism."""

from __future__ import annotations

import pytest

from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.endhost import AddressBook, EndHost
from repro.net.headers import TcpFlags
from repro.net.packet import make_tcp_packet
from repro.net.topology import Topology, build_leaf_spine
from repro.nf.firewall import FirewallNF
from repro.nf.loadbalancer import LoadBalancerNF
from repro.nf.nat import NatNF
from repro.nf.ratelimiter import RateLimiterNF
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch
from repro.workload.flows import FlowGenerator

from repro.testing import build_nf_world

VIP = "100.0.0.100"


class TestStackedNfs:
    """Firewall + rate limiter stacked on the same switches."""

    def test_two_nfs_coexist(self):
        world = build_nf_world()
        world.deployment.install_nf(FirewallNF)
        world.deployment.install_nf(RateLimiterNF, limit_bps=1e9)
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1000, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        assert len(server.received) == 1
        assert len(client.received) == 1  # SYN|ACK allowed back

    def test_firewall_drop_prevents_limiter_count(self):
        world = build_nf_world()
        world.deployment.install_nf(FirewallNF)
        limiters = world.deployment.install_nf(RateLimiterNF, limit_bps=1e9)
        client, server = world.clients[0], world.servers[0]
        # unsolicited inbound: firewall drops before the limiter sees it
        server.inject(make_tcp_packet(server.ip, client.ip, 80, 1000, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        usage = sum(sum(l.bytes_admitted.values()) for l in limiters)
        assert usage == 0


class TestLeafSpineMultipath:
    """The section 3.2 motivation: flows cross different switches via
    ECMP, so per-connection state must be global."""

    def _build(self, shared_state: bool):
        sim = Simulator()
        topo = Topology(sim, SeededRng(21))
        book = AddressBook()
        hosts = {"n": 0}

        def host_factory(name):
            hosts["n"] += 1
            responder = name.startswith("h1")  # server side under leaf1+
            ip = f"10.0.{name[1]}.{hosts['n']}"
            return EndHost(name, sim, ip, book, responder=False)

        leaves, spines, host_list = build_leaf_spine(
            topo,
            lambda n: PisaSwitch(n, sim),
            host_factory,
            leaves=2,
            spines=2,
            hosts_per_leaf=2,
        )
        switches = leaves + spines
        deployment = SwiShmemDeployment(sim, topo, switches, address_book=book)
        dips = [h.ip for h in host_list if h.name.startswith("h1")]
        book.register(VIP, host_list[-1].name)  # VIP parks behind leaf1
        deployment.install_nf(
            LoadBalancerNF, vip=VIP, dips=dips, shared_state=shared_state
        )
        clients = [h for h in host_list if h.name.startswith("h0")]
        servers = [h for h in host_list if h.name.startswith("h1")]
        return sim, deployment, clients, servers

    def _run_flows(self, sim, deployment, clients, servers, flows=30):
        sent = []
        for i in range(flows):
            client = clients[i % len(clients)]
            port = 6000 + i
            client.inject(make_tcp_packet(client.ip, VIP, port, 80, flags=TcpFlags.SYN))
            sent.append((client.ip, port))
        sim.run(until=0.3)
        # follow-up packets for every flow
        for client_ip, port in sent:
            client = next(c for c in clients if c.ip == client_ip)
            for _ in range(3):
                client.inject(make_tcp_packet(client.ip, VIP, port, 80, payload_size=10))
        sim.run(until=0.8)
        assignments = {}
        violations = 0
        for server in servers:
            for record in server.received:
                tup = record.packet.five_tuple()
                key = (tup.src_ip, tup.src_port)
                previous = assignments.get(key)
                if previous is not None and previous != server.ip:
                    violations += 1
                assignments[key] = server.ip
        return violations, assignments

    def test_shared_state_preserves_pcc_under_multipath(self):
        sim, deployment, clients, servers = self._build(shared_state=True)
        violations, assignments = self._run_flows(sim, deployment, clients, servers)
        assert violations == 0
        assert len(assignments) > 0

    def test_flows_actually_cross_multiple_switches(self):
        sim, deployment, clients, servers = self._build(shared_state=True)
        self._run_flows(sim, deployment, clients, servers)
        spine_rx = [deployment.managers[n].switch.stats.rx_packets for n in ("spine0", "spine1")]
        assert all(rx > 0 for rx in spine_rx)  # ECMP used both spines


class TestEndToEndFailureRecovery:
    def test_nat_service_continues_through_failure_and_recovery(self):
        world = build_nf_world()
        world.book.register("100.0.0.1", "egress")
        world.deployment.install_nf(NatNF, nat_ip="100.0.0.1")
        client, server = world.clients[0], world.servers[0]
        client.inject(make_tcp_packet(client.ip, server.ip, 1111, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.1)
        victim = world.cluster[1].name
        world.deployment.controller.note_failure_time(victim)
        world.deployment.fail_switch(victim)
        world.sim.run(until=0.15)
        # new connection during the outage
        client.inject(make_tcp_packet(client.ip, server.ip, 2222, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.3)
        # recover and keep serving
        world.deployment.controller.recover_switch(victim)
        world.sim.run(until=0.6)
        client.inject(make_tcp_packet(client.ip, server.ip, 3333, 80, flags=TcpFlags.SYN))
        world.sim.run(until=0.8)
        syn_count = sum(
            1 for r in server.received if r.packet.tcp.flags & TcpFlags.SYN
        )
        assert syn_count == 3
        # the recovered switch holds the full NAT table again
        spec = world.deployment.spec_by_name("nat_table")
        stores = world.deployment.sro_stores(spec)
        assert all(store == stores[0] for store in stores)
        assert len(stores[0]) == 6  # 3 connections x (fwd + rev)


class TestDeterminism:
    def _run_once(self, seed: int):
        world = build_nf_world(seed=seed)
        world.deployment.install_nf(FirewallNF)
        generator = FlowGenerator(
            world.sim,
            world.clients,
            world.server_ips(),
            world.rng,
            flow_rate=3000,
            data_packets=3,
        )
        generator.start(duration=0.02)
        world.sim.run(until=0.1)
        spec = world.deployment.spec_by_name("fw_conntrack")
        deliveries = tuple(len(s.received) for s in world.servers)
        store = tuple(sorted(map(repr, world.deployment.sro_stores(spec)[0].items())))
        return deliveries, store, world.sim.events_processed

    def test_identical_seed_identical_world(self):
        assert self._run_once(42) == self._run_once(42)

    def test_different_seed_different_world(self):
        assert self._run_once(42) != self._run_once(43)


class TestMemoryPressure:
    def test_register_groups_respect_switch_budget(self):
        sim = Simulator()
        topo = Topology(sim, SeededRng(1))
        from repro.net.topology import build_full_mesh
        from repro.switch.memory import OutOfSwitchMemory

        switches = build_full_mesh(
            topo, lambda n: PisaSwitch(n, sim, memory_bytes=64 * 1024), 2
        )
        deployment = SwiShmemDeployment(sim, topo, switches)
        deployment.declare(RegisterSpec("fits", Consistency.SRO, capacity=1024))
        with pytest.raises(OutOfSwitchMemory):
            deployment.declare(
                RegisterSpec("too-big", Consistency.SRO, capacity=100_000)
            )

    def test_pending_slot_sharing_reduces_footprint(self):
        sim = Simulator()
        topo = Topology(sim, SeededRng(1))
        from repro.net.topology import build_full_mesh

        switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 2)
        deployment = SwiShmemDeployment(sim, topo, switches)
        before = switches[0].memory.used_bytes
        deployment.declare(
            RegisterSpec("dedicated", Consistency.SRO, capacity=4096)
        )
        dedicated = switches[0].memory.used_bytes - before
        before = switches[0].memory.used_bytes
        deployment.declare(
            RegisterSpec("shared", Consistency.SRO, capacity=4096, pending_slots=64)
        )
        shared = switches[0].memory.used_bytes - before
        assert shared < dedicated
