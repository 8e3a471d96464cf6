"""Tests for the DDoS detector's count-min-sketch mode (section 7 layout)."""

from __future__ import annotations

import pytest

from repro.nf.ddos import SKETCH_DEPTH, SKETCH_SEED, SKETCH_WIDTH, DdosDetectorNF
from repro.nf.heavyhitter import HeavyHitterNF
from repro.sketch.countmin import row_hash
from repro.workload.attack import AttackScenario

from repro.testing import build_nf_world


def sketch_world(**kwargs):
    world = build_nf_world(responder_servers=False, **kwargs)
    detectors = world.deployment.install_nf(
        DdosDetectorNF,
        window=3e-3,
        entropy_threshold=-0.2,
        min_packets=40,
        use_sketch=True,
    )
    return world, detectors


class TestSketchMode:
    def test_state_size_fixed_regardless_of_ip_count(self):
        world, detectors = sketch_world()
        spec = world.deployment.spec_by_name("ddos_src")
        # the register group is sized by sketch geometry, not by traffic
        assert spec.capacity == SKETCH_DEPTH * SKETCH_WIDTH
        from repro.net.packet import make_udp_packet

        client, server = world.clients[0], world.servers[0]
        for i in range(300):  # 300 distinct source IPs
            world.sim.schedule(
                i * 10e-6,
                lambda i=i: client.inject(
                    make_udp_packet(f"203.0.{i // 250}.{i % 250}", server.ip, 1, 2)
                ),
            )
        world.sim.run(until=0.02)
        cells = world.deployment.manager("ingress").ewo.local_state(spec.group_id)
        assert len(cells) <= SKETCH_DEPTH * SKETCH_WIDTH

    def test_cells_replicate_and_merge(self):
        world, detectors = sketch_world()
        from repro.net.packet import make_udp_packet

        client, server = world.clients[0], world.servers[0]
        for i in range(20):
            world.sim.schedule(
                i * 20e-6,
                lambda: client.inject(make_udp_packet(client.ip, server.ip, 1, 2)),
            )
        world.sim.run(until=0.02)
        spec = world.deployment.spec_by_name("ddos_dst")
        states = [
            world.deployment.manager(name).ewo.local_state(spec.group_id)
            for name in world.deployment.switch_names
        ]
        assert all(state == states[0] for state in states)
        # each packet crossed three observation points (ingress, one NF
        # switch, egress), so the merged estimate is 3x the packet count
        # — a uniform scaling that leaves the entropy analysis untouched
        detector = detectors[0]
        assert detector._sketch_estimate(states[0], server.ip) == 60

    def test_one_update_multicast_per_group_per_pass(self):
        """The count-min pass writes 3 ``ddos_src`` cells, 3 ``ddos_dst``
        cells and (at the first switch) 1 heavy-hitter counter: one
        egress mirror per group, not one multicast per write."""
        world, _ = sketch_world()
        deployment = world.deployment
        deployment.install_nf(HeavyHitterNF, threshold=10**9)
        from repro.net.packet import make_udp_packet

        client, server = world.clients[0], world.servers[0]
        packets = 20
        for i in range(packets):
            world.sim.schedule(
                i * 20e-6,
                lambda: client.inject(make_udp_packet(client.ip, server.ip, 1, 2)),
            )
        world.sim.run(until=0.02)
        assert len(server.received) == packets
        specs = {
            name: deployment.spec_by_name(name)
            for name in ("ddos_src", "ddos_dst", "hh_counts")
        }

        def sent(switch, name):
            stats = deployment.manager(switch).ewo.stats_for(specs[name].group_id)
            return (stats.local_writes, stats.update_packets_sent)

        # ingress: 7 writes per pass leave as 3 update multicasts
        assert [sent("ingress", name) for name in specs] == [
            (3 * packets, packets),
            (3 * packets, packets),
            (packets, packets),
        ]
        # fleet-wide: 19 writes and 7 updates per packet (the heavy-hitter
        # count is claimed at the first switch only)
        totals = [sent(sw, name) for sw in deployment.switch_names for name in specs]
        assert sum(w for w, _ in totals) == 19 * packets
        assert sum(u for _, u in totals) == 7 * packets
        # ... and every replica holds exactly the packet counts: three
        # observation points per packet for the sketches, one for the flow
        for ip, name in ((client.ip, "ddos_src"), (server.ip, "ddos_dst")):
            cells = {
                (row, row_hash(SKETCH_SEED, row, ip, SKETCH_WIDTH)): 3 * packets
                for row in range(SKETCH_DEPTH)
            }
            assert deployment.ewo_states(specs[name]) == [cells] * 5
        flows = deployment.ewo_states(specs["hh_counts"])
        assert flows == [flows[0]] * 5 and list(flows[0].values()) == [packets]

    def test_attack_detected_via_sketch(self):
        world, detectors = sketch_world(clients=6, servers=6)
        scenario = AttackScenario(
            sim=world.sim,
            clients=world.clients,
            server_ips=world.server_ips(),
            rng=world.rng,
            background_pps=20000,
            attack_pps=150000,
            attack_start=8e-3,
            attack_duration=12e-3,
            bot_count=150,
        )
        scenario.start(duration=25e-3)
        world.sim.run(until=30e-3)
        assert any(d.alarms for d in detectors)
        alarmers = [d for d in detectors if d.alarms]
        assert any(d.suspected_victim == scenario.victim_ip for d in alarmers)

    def test_no_false_alarm_on_benign_traffic(self):
        world, detectors = sketch_world(clients=6, servers=6)
        scenario = AttackScenario(
            sim=world.sim,
            clients=world.clients,
            server_ips=world.server_ips(),
            rng=world.rng,
            background_pps=25000,
            attack_pps=0.1,
            attack_start=1.0,
            attack_duration=1e-4,
        )
        scenario.start(duration=20e-3)
        world.sim.run(until=25e-3)
        assert all(not d.alarms for d in detectors)
