"""Tests for the two heavy-hitter implementations (paper section 8)."""

from __future__ import annotations

import pytest

from repro.net.packet import make_udp_packet
from repro.nf.heavyhitter import (
    ControllerHeavyHitterNF,
    HeavyHitterCoordinator,
    HeavyHitterNF,
)

from repro.testing import build_nf_world


def hh_world(threshold=30, **kwargs):
    world = build_nf_world(responder_servers=False, **kwargs)
    instances = world.deployment.install_nf(HeavyHitterNF, threshold=threshold)
    return world, instances


def blast(world, src_ip, count, gap=30e-6, dst=None):
    dst = dst or world.servers[0].ip
    client = world.clients[0]
    for i in range(count):
        world.sim.schedule(
            world.sim.now + i * gap,
            lambda: client.inject(make_udp_packet(src_ip, dst, 1, 2, payload_size=64)),
        )


class TestSwiShmemHeavyHitter:
    def test_heavy_source_detected(self):
        world, instances = hh_world(threshold=30)
        blast(world, "1.2.3.4", 40)
        world.sim.run(until=0.05)
        detected = [i for i in instances if "1.2.3.4" in i.detected]
        assert detected  # at least one switch flagged it

    def test_light_source_not_detected(self):
        world, instances = hh_world(threshold=30)
        blast(world, "5.6.7.8", 5)
        world.sim.run(until=0.05)
        assert all("5.6.7.8" not in i.detected for i in instances)

    def test_counts_aggregate_across_switches(self):
        """Each cluster switch sees only part of the traffic, yet the
        shared counter crosses the threshold — the section 8 point."""
        world, instances = hh_world(threshold=30, cluster_size=3)
        # multiple clients -> ECMP spreads the flow's packets? same flow
        # hashes to one path, so use several source ports to spread
        for port in range(6):
            client = world.clients[port % len(world.clients)]
            for i in range(8):
                world.sim.schedule(
                    (port * 8 + i) * 40e-6,
                    lambda c=client, p=3000 + port: c.inject(
                        make_udp_packet("9.9.9.9", world.servers[0].ip, p, 2, payload_size=64)
                    ),
                )
        world.sim.run(until=0.1)
        # detection happened even though the 48 packets were split
        assert any("9.9.9.9" in i.detected for i in instances)


class TestControllerBaseline:
    def _world(self, threshold=30):
        world = build_nf_world(responder_servers=False)
        coordinator = HeavyHitterCoordinator(world.sim, threshold=threshold)
        instances = world.deployment.install_nf(
            ControllerHeavyHitterNF, threshold=threshold, coordinator=coordinator
        )
        return world, instances, coordinator

    def test_requires_coordinator(self):
        world = build_nf_world()
        with pytest.raises(ValueError):
            world.deployment.install_nf(ControllerHeavyHitterNF, threshold=10)

    def test_detects_via_reports(self):
        world, instances, coordinator = self._world(threshold=30)
        blast(world, "1.2.3.4", 40)
        world.sim.run(until=0.1)
        assert "1.2.3.4" in coordinator.detected
        assert coordinator.reports_received > 0
        assert sum(i.reports_sent for i in instances) >= coordinator.reports_received

    def test_no_reports_below_trigger(self):
        world, instances, coordinator = self._world(threshold=100)
        blast(world, "5.6.7.8", 3)  # below threshold/num_switches
        world.sim.run(until=0.05)
        assert coordinator.reports_received == 0

    def test_communication_overhead_counted(self):
        world, instances, coordinator = self._world(threshold=30)
        blast(world, "1.2.3.4", 60)
        world.sim.run(until=0.1)
        assert coordinator.report_bytes == coordinator.reports_received * 12
