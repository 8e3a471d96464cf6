"""[N2] Distributed DDoS detection accuracy.

Paper section 4.2: DDoS detection tracks source/destination frequencies
in sketches "updated and read on every packet", tolerating eventual
consistency.  Section 3.2: distribution is mandatory — no single switch
sees all traffic.

The experiment spreads attack + background traffic across a 3-switch
ingress cluster (each switch sees ~1/3 of packets) and compares three
configurations:

* **distributed + EWO** — per-switch counters replicated with the CRDT
  protocol: every switch analyzes the (eventually consistent) global
  distribution;
* **local-only** — same deployment with replication disabled: each
  switch sees only its own share;
* **single omniscient switch** — the upper-bound baseline.

Measured: detection (any switch alarms during the attack), detection
latency, and false alarms outside the attack window.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import List, Optional

import pytest

# Resolve imports relative to this file, not the caller's CWD.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.nf.ddos import DdosDetectorNF
from repro.workload.attack import AttackScenario

from benchmarks.common import fmt_us, print_header, print_table
from repro.testing import build_nf_world

ATTACK_START = 12e-3
ATTACK_DURATION = 12e-3
RUN_UNTIL = 40e-3


@dataclass
class DetectionResult:
    config: str
    detected: bool
    detection_latency: Optional[float]
    switches_alarming: int
    false_alarms: int


def run_config(cluster_size: int, replicate: bool, seed: int = 55,
               use_sketch: bool = False) -> DetectionResult:
    world = build_nf_world(
        seed=seed,
        cluster_size=cluster_size,
        clients=6,
        servers=6,
        responder_servers=False,
        # local-only baseline: no broadcast (replicate=False) AND no
        # periodic sync — otherwise gossip would still share the state
        sync_period=1e-3 if replicate else 100.0,
    )
    detectors = world.deployment.install_nf(
        DdosDetectorNF,
        window=3e-3,
        entropy_threshold=-0.2,
        # high enough that one cluster switch's ~1/3 traffic share cannot
        # fill a window on its own — the regime where sharing is required
        min_packets=100,
        replicate=replicate,
        use_sketch=use_sketch,
    )
    # Only the cluster switches are compared: ingress and egress see all
    # traffic by construction, which would trivialize the "no single
    # switch sees everything" setup — their analyzers are disabled (their
    # per-packet counter updates remain, as any on-path NF's would).
    cluster_names = {s.name for s in world.cluster}
    active = []
    for detector in detectors:
        if detector.manager.switch.name in cluster_names:
            active.append(detector)
        else:
            detector.stop()
    scenario = AttackScenario(
        sim=world.sim,
        clients=world.clients,
        server_ips=world.server_ips(),
        rng=world.rng,
        background_pps=25000,
        attack_pps=45000,
        attack_start=ATTACK_START,
        attack_duration=ATTACK_DURATION,
        bot_count=200,
    )
    scenario.start(duration=RUN_UNTIL - 5e-3)
    world.sim.run(until=RUN_UNTIL)
    in_window = [
        t
        for d in active
        for t in d.alarms
        if ATTACK_START <= t <= ATTACK_START + ATTACK_DURATION + 6e-3
    ]
    out_of_window = [
        t
        for d in active
        for t in d.alarms
        if not (ATTACK_START <= t <= ATTACK_START + ATTACK_DURATION + 6e-3)
    ]
    config = (
        "single omniscient switch" if cluster_size == 1
        else ("distributed, local-only" if not replicate
              else ("distributed + EWO (count-min)" if use_sketch
                    else "distributed + EWO"))
    )
    return DetectionResult(
        config=config,
        detected=bool(in_window),
        detection_latency=(min(in_window) - ATTACK_START) if in_window else None,
        switches_alarming=sum(
            1
            for d in active
            if any(ATTACK_START <= t <= ATTACK_START + ATTACK_DURATION + 6e-3 for t in d.alarms)
        ),
        false_alarms=len(out_of_window),
    )


def run_experiment() -> List[DetectionResult]:
    return [
        run_config(cluster_size=3, replicate=True),
        run_config(cluster_size=3, replicate=True, use_sketch=True),
        run_config(cluster_size=3, replicate=False),
        run_config(cluster_size=1, replicate=True),
    ]


def report(results: List[DetectionResult]) -> None:
    print_header(
        "N2",
        "Distributed DDoS detection: EWO-shared counters vs local-only",
        "sketches behave correctly under eventual consistency; sharing "
        "gives every switch the global view a single switch would have",
    )
    print_table(
        ["configuration", "detected", "detection latency", "switches alarming", "false alarms"],
        [
            (
                r.config,
                r.detected,
                fmt_us(r.detection_latency) if r.detection_latency is not None else "-",
                r.switches_alarming,
                r.false_alarms,
            )
            for r in results
        ],
    )


@pytest.mark.benchmark(group="experiment")
def test_ddos_detection_shape_matches_paper(benchmark):
    distributed, sketched, local_only, omniscient = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report([distributed, sketched, local_only, omniscient])
    # The omniscient single switch detects (sanity upper bound).
    assert omniscient.detected
    # The hardware-faithful count-min representation detects too.
    assert sketched.detected and sketched.false_alarms == 0
    # Without sharing, a 1/3 traffic share cannot fill a window: the
    # local-only cluster is blind to the attack.
    assert not local_only.detected
    # The EWO-shared cluster detects, on every switch.
    assert distributed.detected
    assert distributed.switches_alarming == 3
    # Shared detection is not meaningfully slower than omniscient
    # (within a couple of analysis windows).
    assert distributed.detection_latency <= omniscient.detection_latency + 6e-3
    # No false alarms outside the attack window for the shared config.
    assert distributed.false_alarms == 0


@pytest.mark.benchmark(group="nf")
def test_benchmark_ddos_distributed(benchmark):
    benchmark.pedantic(lambda: run_config(3, True), rounds=1, iterations=1)
