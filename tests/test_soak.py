"""Soak test: the full NF stack under sustained traffic, a switch
failure, a link flap, and a recovery — global invariants must hold.

This is the closest thing to the paper's deployment story run end to
end: firewall + rate limiter + heavy-hitter detection stacked on an NF
cluster, a generator driving realistic flows throughout, and the fault
injections of section 6.3 happening mid-traffic.
"""

from __future__ import annotations

import pytest

from repro.net.headers import TcpFlags
from repro.nf.firewall import FirewallNF
from repro.nf.heavyhitter import HeavyHitterNF
from repro.nf.ratelimiter import RateLimiterNF
from repro.workload.flows import FlowGenerator

from repro.testing import build_nf_world


@pytest.fixture(scope="module")
def soaked_world():
    """Run the whole scenario once; the tests below assert on the wreckage."""
    world = build_nf_world(seed=3007, cluster_size=3, clients=4, servers=4)
    world.deployment.install_nf(FirewallNF)
    world.deployment.install_nf(RateLimiterNF, limit_bps=1e9)  # generous
    world.deployment.install_nf(HeavyHitterNF, threshold=10_000)  # silent
    sim = world.sim
    generator = FlowGenerator(
        world.sim,
        world.clients,
        world.server_ips(),
        world.rng,
        flow_rate=1500,
        data_packets=4,
        inter_packet_gap=2e-3,
    )
    generator.start(duration=0.15)

    victim = world.cluster[2].name

    def fail_victim():
        world.deployment.controller.note_failure_time(victim)
        world.deployment.fail_switch(victim)

    sim.schedule_at(0.05, fail_victim)

    def flap_link():
        link = world.topo.link_between(world.cluster[0].name, "egress")
        link.set_up(False)
        sim.schedule(10e-3, lambda: link.set_up(True))

    sim.schedule_at(0.08, flap_link)
    sim.schedule_at(0.11, lambda: world.deployment.controller.recover_switch(victim))
    sim.run(until=0.4)
    return world, generator, victim


class TestSoak:
    def test_traffic_flowed_throughout(self, soaked_world):
        world, generator, victim = soaked_world
        assert generator.flows_completed > 100
        delivered = sum(len(s.received) for s in world.servers)
        assert delivered > generator.flows_completed  # data + handshakes

    def test_failure_and_recovery_happened(self, soaked_world):
        world, generator, victim = soaked_world
        controller = world.deployment.controller
        assert any(e.switch == victim for e in controller.failures)
        assert any(e.switch == victim for e in controller.recoveries)
        assert controller.active_leader().link_events >= 2  # down + up

    def test_conntrack_replicas_converged_after_recovery(self, soaked_world):
        world, generator, victim = soaked_world
        spec = world.deployment.spec_by_name("fw_conntrack")
        stores = world.deployment.sro_stores(spec)
        assert len(stores) == 5  # everyone is live again
        reference = stores[0]
        assert all(store == reference for store in stores)
        assert len(reference) > 50  # real state accumulated

    def test_recovered_switch_promoted_back(self, soaked_world):
        world, generator, victim = soaked_world
        spec = world.deployment.spec_by_name("fw_conntrack")
        chain = world.deployment.chains[spec.group_id]
        assert victim in chain
        assert chain.read_tail == victim  # appended last, then promoted

    def test_no_stuck_protocol_state(self, soaked_world):
        world, generator, victim = soaked_world
        for name in world.deployment.switch_names:
            manager = world.deployment.manager(name)
            assert len(manager.sro._outstanding) == 0, f"{name} leaked writes"
            assert manager.switch.control.buffered_count == 0, f"{name} leaked buffers"
            assert len(manager.sro._dp_holds) == 0, f"{name} leaked holds"

    def test_heavy_hitter_counters_consistent(self, soaked_world):
        world, generator, victim = soaked_world
        spec = world.deployment.spec_by_name("hh_counts")
        states = world.deployment.ewo_states(spec)
        # after recovery + sync rounds every replica agrees
        assert all(state == states[0] for state in states)

    def test_firewall_never_leaked_unsolicited_traffic(self, soaked_world):
        world, generator, victim = soaked_world
        # all flows were client-initiated, so every packet a client
        # received must belong to a connection it opened
        client_ports = {
            (flow.client.ip, flow.src_port) for flow in generator.flows_started
        }
        for client in world.clients:
            for record in client.received:
                tup = record.packet.five_tuple()
                assert (tup.dst_ip, tup.dst_port) in client_ports
