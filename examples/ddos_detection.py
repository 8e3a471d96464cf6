#!/usr/bin/env python
"""Distributed DDoS detection with EWO-replicated counters (section 4.2).

Spreads traffic over a 3-switch cluster so no single switch sees more
than a third of the packets, launches a spoofed-source volumetric
attack mid-run, and shows every switch raising the entropy alarm off
the *shared* frequency counters — state that is written on every packet
and therefore only viable under the eventually consistent EWO protocol.

Run:  python examples/ddos_detection.py
"""

import os
import sys

# Resolve imports relative to this file, not the caller's CWD.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.nf.ddos import DdosDetectorNF
from repro.workload.attack import AttackScenario

from repro.testing import build_nf_world


def main() -> None:
    world = build_nf_world(
        seed=99, cluster_size=3, clients=6, servers=6, responder_servers=False
    )
    detectors = world.deployment.install_nf(
        DdosDetectorNF, window=3e-3, entropy_threshold=-0.2, min_packets=100
    )
    cluster_names = {s.name for s in world.cluster}
    watchers = [d for d in detectors if d.manager.switch.name in cluster_names]
    for detector in detectors:
        if detector not in watchers:
            detector.stop()  # ingress/egress see everything; not our subject

    scenario = AttackScenario(
        sim=world.sim,
        clients=world.clients,
        server_ips=world.server_ips(),
        rng=world.rng,
        background_pps=25_000,
        attack_pps=60_000,
        attack_start=12e-3,
        attack_duration=12e-3,
        bot_count=200,
    )
    scenario.start(duration=35e-3)
    world.sim.run(until=40e-3)

    print(f"background packets: {scenario.background_sent}, "
          f"attack packets: {scenario.attack_sent} "
          f"(attack window {scenario.attack_start * 1e3:.0f}-"
          f"{scenario.attack_end * 1e3:.0f} ms)\n")

    for detector in watchers:
        name = detector.manager.switch.name
        seen = detector.stats.processed
        alarms = ", ".join(f"{t * 1e3:.1f} ms" for t in detector.alarms) or "none"
        print(f"{name}: saw {seen} packets (~{seen * 100 // max(1, scenario.background_sent + scenario.attack_sent)}% of traffic)")
        print(f"  alarms at: {alarms}")
        score = (
            f"{detector.last_score:+.3f}" if detector.last_score is not None
            else "n/a (quiet window)"
        )
        print(f"  last entropy score: {score} "
              f"(alarm below {detector.entropy_threshold})")
        print(f"  suspected victim: {detector.suspected_victim} "
              f"(actual: {scenario.victim_ip})")

    spec = world.deployment.spec_by_name("ddos_dst")
    stats = world.deployment.manager(world.cluster[0].name).ewo.stats_for(spec.group_id)
    print(f"\nreplication work on {world.cluster[0].name} (dst counters): "
          f"{stats.updates_sent} updates broadcast, "
          f"{stats.updates_received} received, "
          f"{stats.sync_probes_sent} periodic sync probes, "
          f"{stats.sync_packets_sent} full-state sync packets")


if __name__ == "__main__":
    main()
