"""[N6] The in-network sequencer (paper section 9's hardest case).

Section 9: strongly consistent, per-packet-written state (NOPaxos-style
sequencers) is exactly what the base design cannot serve — writes would
go through the control plane.  This experiment runs the sequencer NF at
increasing packet rates on both write paths and audits:

* **correctness** — delivered packets carry unique, gap-free numbers
  regardless of which switch sequenced them;
* **throughput** — the control-plane variant collapses past the CPU
  ceiling (packets stall in DRAM awaiting commits), while the
  data-plane variant keeps sequencing at full rate;
* **cost** — CPU operations versus recirculation passes.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import List

import pytest

# Resolve imports relative to this file, not the caller's CWD.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.net.packet import make_udp_packet
from repro.nf.sequencer import SequencerNF

from benchmarks.common import fmt_rate, print_header, print_table
from repro.testing import build_nf_world

SEQ_PORT = 9000
DURATION = 20e-3


@dataclass
class SequencerResult:
    path: str
    offered_pps: float
    delivered: int
    offered: int
    unique: bool
    gap_free_prefix: int
    cpu_ops: int
    recirculations: int


def run_point(dataplane: bool, offered_pps: float, seed: int = 47) -> SequencerResult:
    world = build_nf_world(
        seed=seed, cluster_size=3, clients=3, servers=1, responder_servers=False
    )
    world.deployment.install_nf(SequencerNF, sequenced_port=SEQ_PORT, dataplane=dataplane)
    sim, server = world.sim, world.servers[0]
    count = int(offered_pps * DURATION)
    for i in range(count):
        client = world.clients[i % len(world.clients)]
        sim.schedule(
            i / offered_pps,
            lambda c=client, p=5000 + i % 512: c.inject(
                make_udp_packet(c.ip, server.ip, p, SEQ_PORT, payload_size=64)
            ),
        )
    # delivery deadline: the offered window plus a short grace.  The
    # control-plane ceiling manifests as *backlog* (packets parked in
    # DRAM awaiting commits), so on-time delivery is the honest metric.
    sim.run(until=DURATION + 2e-3)
    on_time = len(server.received)
    sim.run(until=DURATION + 60e-3)  # drain for the correctness audit
    stamps = sorted(r.packet.ipv4.identification for r in server.received)
    gap_free = 0
    for expected, got in enumerate(stamps, start=1):
        if got != expected:
            break
        gap_free = expected
    return SequencerResult(
        path="data-plane" if dataplane else "control-plane",
        offered_pps=offered_pps,
        delivered=on_time,
        offered=count,
        unique=len(set(stamps)) == len(stamps),
        gap_free_prefix=gap_free,
        cpu_ops=sum(s.control.ops_executed for s in world.switches),
        recirculations=sum(
            world.deployment.manager(n).sro.dp_recirculations
            for n in world.deployment.switch_names
        ),
    )


def run_experiment() -> List[SequencerResult]:
    return [
        run_point(False, 5_000),
        run_point(True, 5_000),
        run_point(False, 100_000),  # well past the 50K/s CPU ceiling
        run_point(True, 100_000),
    ]


def report(results: List[SequencerResult]) -> None:
    print_header(
        "N6",
        "In-network sequencer: control-plane vs data-plane write path",
        "sequencers need strong consistency with per-packet writes — "
        "feasible only once buffering/retransmission move to the data plane",
    )
    print_table(
        ["write path", "offered", "delivered/offered", "unique", "gap-free prefix",
         "cpu ops", "recirculations"],
        [
            (
                r.path,
                fmt_rate(r.offered_pps),
                f"{r.delivered}/{r.offered}",
                r.unique,
                r.gap_free_prefix,
                r.cpu_ops,
                r.recirculations,
            )
            for r in results
        ],
    )


@pytest.mark.benchmark(group="experiment")
def test_sequencer_shape(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(results)
    cp_low, dp_low, cp_high, dp_high = results
    # at low rate both deliver everything on time, perfectly numbered
    for r in (cp_low, dp_low):
        assert r.delivered == r.offered
        assert r.unique and r.gap_free_prefix == r.offered
    # past the CPU ceiling the control-plane variant falls behind the
    # deadline (packets stuck in DRAM awaiting their commits)...
    assert cp_high.delivered < 0.8 * cp_high.offered
    # ...while the data-plane variant sequences everything on time
    assert dp_high.delivered == dp_high.offered
    assert dp_high.unique and dp_high.gap_free_prefix == dp_high.offered
    assert dp_high.cpu_ops == 0 and cp_high.cpu_ops > 0


@pytest.mark.benchmark(group="nf")
def test_benchmark_sequencer(benchmark):
    benchmark.pedantic(lambda: run_point(True, 5_000), rounds=1, iterations=1)
