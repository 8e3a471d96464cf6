"""[P6] Data-plane write buffering vs the control-plane path (section 9).

"One current limitation of SwiShmem is the need for control plane
involvement to achieve strongly consistent writes … A way to implement
buffering and retransmission in the data plane — perhaps achievable
with creative use of existing switch features — would enable this
support."  (Footnote 2 contrasts NetChain, whose *clients* retry —
infeasible when the switch itself is the client.)

This experiment realizes the open question with recirculation: the
output packet circles the pipeline until the chain ack arrives, and the
data plane retransmits unacked write requests itself.  Compared against
the paper's control-plane path:

* commit latency (the CPU hop disappears);
* write throughput at rates beyond the CPU ceiling (P5's limit);
* the new cost: recirculation passes consumed per write — pipeline
  slots instead of DRAM, the trade the paper hypothesized;
* robustness: commits under heavy request/ack loss via data-plane
  retransmission.
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

from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, RegisterSpec
from repro.net.topology import Topology, build_full_mesh
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch

from benchmarks.common import emit_json, fmt_rate, fmt_us, print_header, print_table

DURATION = 30e-3


@dataclass
class DpWriteResult:
    path: str
    offered_rate: float
    loss: float
    committed_rate: float
    mean_latency: float
    cpu_ops: int
    recirculations_per_write: float
    # The exact counts behind the table's ratios (gated in BENCH_P6.json).
    committed: int
    dp_recirculations: int
    dp_resends: int
    retries: int


def run_point(dataplane: bool, offered_rate: float, loss: float = 0.0, seed: int = 61) -> DpWriteResult:
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed))
    switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 3, loss_rate=loss)
    deployment = SwiShmemDeployment(sim, topo, switches, sync_period=10.0)
    spec = deployment.declare(
        RegisterSpec(
            "reg", Consistency.SRO, capacity=64, dataplane_write_buffering=dataplane
        )
    )
    writer = deployment.manager("s0")
    count = int(offered_rate * DURATION)
    for i in range(count):
        sim.schedule(
            i / offered_rate,
            lambda i=i: writer.register_write(spec, f"k{i % 16}", i),
        )
    settle = 1.0 if loss else 5e-3
    sim.run(until=DURATION + settle)
    stats = writer.sro.stats_for(spec.group_id)
    return DpWriteResult(
        path="data-plane (recirc)" if dataplane else "control-plane",
        offered_rate=offered_rate,
        loss=loss,
        committed_rate=stats.writes_committed / DURATION,
        mean_latency=stats.mean_write_latency,
        cpu_ops=writer.switch.control.ops_executed,
        recirculations_per_write=(
            writer.sro.dp_recirculations / max(1, stats.writes_committed)
        ),
        committed=stats.writes_committed,
        dp_recirculations=writer.sro.dp_recirculations,
        dp_resends=writer.sro.dp_resends,
        retries=stats.retries,
    )


def run_experiment() -> List[DpWriteResult]:
    return [
        run_point(False, 10_000),
        run_point(True, 10_000),
        run_point(False, 120_000),  # beyond the 50K/s CPU ceiling
        run_point(True, 120_000),
        run_point(True, 10_000, loss=0.3),
    ]


def report(results: List[DpWriteResult]) -> None:
    print_header(
        "P6",
        "Section 9 realized: data-plane write buffering via recirculation",
        "buffering + retransmission in the data plane removes the "
        "control-plane ceiling, paying in recirculation (pipeline) slots",
    )
    print_table(
        ["write path", "offered", "loss", "committed", "mean latency",
         "cpu ops", "recirc/write"],
        [
            (
                r.path,
                fmt_rate(r.offered_rate),
                f"{r.loss * 100:.0f}%",
                fmt_rate(r.committed_rate),
                fmt_us(r.mean_latency),
                r.cpu_ops,
                f"{r.recirculations_per_write:.1f}",
            )
            for r in results
        ],
    )
    # Sim-time results and exact counts only: no host-time and no
    # event-count leaf, so the sidecar pins *what* the hold does and
    # leaves the kernel free to do it in fewer events.
    emit_json(
        "P6",
        "Section 9 realized: data-plane write buffering via recirculation",
        results,
    )


@pytest.mark.benchmark(group="experiment")
def test_dataplane_writes_shape(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(results)
    cp_low, dp_low, cp_high, dp_high, dp_lossy = results
    # data-plane commits are faster (no CPU hop) and use zero CPU ops
    assert dp_low.mean_latency < cp_low.mean_latency
    assert dp_low.cpu_ops == 0 and cp_low.cpu_ops > 0
    # beyond the CPU ceiling: the control-plane path saturates (~50K/s),
    # the data-plane path keeps up with the offered load
    assert cp_high.committed_rate < 60_000
    assert dp_high.committed_rate > 110_000
    # the price: recirculation slots proportional to commit latency
    assert dp_low.recirculations_per_write > 5
    # and it stays correct under heavy loss via data-plane retransmission
    assert dp_lossy.committed_rate == pytest.approx(10_000, rel=0.05)


@pytest.mark.benchmark(group="sro")
def test_benchmark_dataplane_write(benchmark):
    benchmark.pedantic(lambda: run_point(True, 10_000), rounds=1, iterations=1)


if __name__ == "__main__":
    report(run_experiment())
