"""Tests for the DDoS detector and the distributed rate limiter."""

from __future__ import annotations

import pytest

from repro.net.packet import make_udp_packet
from repro.nf.ddos import DdosDetectorNF
from repro.nf.ratelimiter import RateLimiterNF, user_of_packet
from repro.workload.attack import AttackScenario

from repro.testing import build_nf_world


def ddos_world(window=2e-3, replicate=True, **kwargs):
    world = build_nf_world(responder_servers=False, **kwargs)
    detectors = world.deployment.install_nf(
        DdosDetectorNF,
        window=window,
        entropy_threshold=-0.2,
        min_packets=30,
        replicate=replicate,
    )
    return world, detectors


class TestDdosDetector:
    def test_counters_updated_per_packet(self):
        world, detectors = ddos_world()
        client, server = world.clients[0], world.servers[0]
        for _ in range(5):
            client.inject(make_udp_packet(client.ip, server.ip, 1, 53))
        world.sim.run(until=0.05)
        spec = world.deployment.spec_by_name("ddos_src")
        counts = world.deployment.manager("ingress").ewo.local_state(spec.group_id)
        assert counts[client.ip] >= 5

    def test_no_alarm_on_benign_traffic(self):
        world, detectors = ddos_world()
        scenario = AttackScenario(
            sim=world.sim,
            clients=world.clients,
            server_ips=world.server_ips(),
            rng=world.rng,
            background_pps=30000,
            attack_pps=0.1,  # effectively no attack traffic
            attack_start=1.0,  # outside the run window
            attack_duration=0.0001,
        )
        scenario.start(duration=0.02)
        world.sim.run(until=0.03)
        assert all(not d.alarms for d in detectors)

    def test_alarm_raised_during_attack(self):
        world, detectors = ddos_world()
        scenario = AttackScenario(
            sim=world.sim,
            clients=world.clients,
            server_ips=world.server_ips(),
            rng=world.rng,
            background_pps=20000,
            attack_pps=200000,
            attack_start=10e-3,
            attack_duration=15e-3,
            bot_count=150,
        )
        scenario.start(duration=0.03)
        world.sim.run(until=0.04)
        assert any(d.alarms for d in detectors)
        first_alarm = min(t for d in detectors for t in d.alarms)
        assert first_alarm >= scenario.attack_start

    def test_alarm_clears_after_attack(self):
        world, detectors = ddos_world(window=2e-3)
        scenario = AttackScenario(
            sim=world.sim,
            clients=world.clients,
            server_ips=world.server_ips(),
            rng=world.rng,
            background_pps=20000,
            attack_pps=200000,
            attack_start=5e-3,
            attack_duration=10e-3,
        )
        scenario.start(duration=0.05)
        world.sim.run(until=0.06)
        assert all(not d.alarm_active for d in detectors)

    def test_detector_stop(self):
        world, detectors = ddos_world()
        for detector in detectors:
            detector.stop()
        world.sim.run(until=0.01)  # no window analysis crashes


class TestUserMapping:
    def test_user_is_source_prefix(self):
        packet = make_udp_packet("10.0.3.7", "1.1.1.1", 1, 2)
        assert user_of_packet(packet) == "10.0.3"

    def test_non_ip_packet(self):
        from repro.net.packet import Packet

        assert user_of_packet(Packet()) is None


def rl_world(limit_bps=4e6, window=2e-3, **kwargs):
    world = build_nf_world(responder_servers=False, **kwargs)
    limiters = world.deployment.install_nf(
        RateLimiterNF, limit_bps=limit_bps, window=window
    )
    return world, limiters


def blast(world, client, server_ip, pps, duration, payload=1000):
    """Inject a constant-rate packet stream from one client."""
    count = int(pps * duration)
    for i in range(count):
        world.sim.schedule_at(
            world.sim.now + i / pps,
            lambda c=client, d=server_ip: c.inject(
                make_udp_packet(c.ip, d, 1234, 9999, payload_size=1000)
            ),
        )
    return count


class TestRateLimiter:
    def test_under_limit_traffic_unthrottled(self):
        world, limiters = rl_world(limit_bps=100e6)
        client, server = world.clients[0], world.servers[0]
        sent = blast(world, client, server.ip, pps=1000, duration=0.01)
        world.sim.run(until=0.05)
        assert len(server.received) == sent

    def test_over_limit_user_throttled(self):
        world, limiters = rl_world(limit_bps=4e6, window=2e-3)
        client, server = world.clients[0], world.servers[0]
        # ~1 KB packets at 5000 pps = ~42 Mbps >> 4 Mbps limit
        sent = blast(world, client, server.ip, pps=5000, duration=0.05)
        world.sim.run(until=0.1)
        assert len(server.received) < sent
        dropped = sum(sum(l.bytes_dropped.values()) for l in limiters)
        assert dropped > 0

    def test_block_flag_replicates(self):
        world, limiters = rl_world(limit_bps=4e6, window=2e-3)
        client, server = world.clients[0], world.servers[0]
        blast(world, client, server.ip, pps=5000, duration=0.02)
        # check mid-blast: idle windows after the blast would clear the flag
        world.sim.run(until=0.015)
        spec = world.deployment.spec_by_name("rl_blocked")
        user = "10.0.0"
        blocked_views = [
            world.deployment.manager(name).ewo.local_state(spec.group_id).get(user)
            for name in world.deployment.switch_names
        ]
        assert all(blocked_views)

    def test_user_unblocked_when_rate_drops(self):
        world, limiters = rl_world(limit_bps=4e6, window=2e-3)
        client, server = world.clients[0], world.servers[0]
        blast(world, client, server.ip, pps=5000, duration=0.02)
        world.sim.run(until=0.1)  # idle windows clear the flag
        before = len(server.received)
        client.inject(make_udp_packet(client.ip, server.ip, 1, 2, payload_size=10))
        world.sim.run(until=0.15)
        assert len(server.received) == before + 1

    def test_aggregate_enforced_across_switches(self):
        """One user's flows through different switches share the budget."""
        world, limiters = rl_world(limit_bps=4e6, window=2e-3, clients=2)
        # both clients are 10.0.0.x -> same user
        assert user_of_packet(make_udp_packet(world.clients[0].ip, "x", 1, 2)) == \
            user_of_packet(make_udp_packet(world.clients[1].ip, "x", 1, 2))
        server = world.servers[0]
        for client in world.clients:
            blast(world, client, server.ip, pps=2500, duration=0.05)
        world.sim.run(until=0.1)
        total_sent = int(2500 * 0.05) * 2
        assert len(server.received) < total_sent

    def test_stop(self):
        world, limiters = rl_world()
        for limiter in limiters:
            limiter.stop()
        world.sim.run(until=0.01)
