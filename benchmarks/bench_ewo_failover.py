"""[F2] EWO failover robustness (paper section 6.3).

"The synchronization protocol is inherently robust to switch and link
failures.  If a switch fails while broadcasting its updates, any switch
that did receive the update can then synchronize the other switches …
other than removing the failed switch from the multicast group, no
explicit failover protocol is needed.  Recovery is equally simple: we
add the new switch … and wait for the first periodic synchronization."

The experiment kills a replica *mid-broadcast* (its update reached only
a subset of peers), verifies the survivors converge to a state that
includes every increment any switch ever observed, and measures how
long a wiped, recovered switch takes to refill — which must be on the
order of one sync period.  One seed's refill time is a draw; the seed
sweep gives its median and p90 over seeds 1-20.  A seed whose writer
died before any survivor heard its last update loses that increment —
EWO promises nothing more — and is counted apart.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from dataclasses import dataclass
from typing import List, Optional

import pytest

# Resolve imports relative to this file, not the caller's CWD.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.analysis.metrics import convergence_time, replica_divergence
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.topology import Topology, build_full_mesh
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch

from benchmarks.common import fmt_us, print_header, print_table

SWEEP_SEEDS = range(1, 21)


@dataclass
class EwoFailoverResult:
    scenario: str
    survivors_converged: bool
    survivor_value: int
    writer_increments_preserved: bool
    refill_time: Optional[float]
    sync_period: float


def run_point(sync_period: float, seed: int = 12) -> EwoFailoverResult:
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed))
    # partial loss makes "update reached only some peers" likely
    switches = build_full_mesh(
        topo, lambda n: PisaSwitch(n, sim), 4, loss_rate=0.3
    )
    deployment = SwiShmemDeployment(sim, topo, switches, sync_period=sync_period)
    spec = deployment.declare(
        RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER, capacity=32)
    )
    # s1 is the doomed writer: it increments, then dies immediately after
    # its last broadcast (which 30% loss will have partially delivered).
    for i in range(20):
        sim.schedule(i * 20e-6, lambda: deployment.manager("s1").register_increment(spec, "k", 1))
    for i in range(30):
        sim.schedule(3e-6 + i * 15e-6, lambda i=i: deployment.manager(f"s{(i % 2) * 2}").register_increment(spec, "k", 1))
    kill_at = 20 * 20e-6 + 1e-6

    def kill():
        deployment.controller.note_failure_time("s1")
        deployment.fail_switch("s1")

    sim.schedule_at(kill_at, kill)
    sim.run(until=kill_at + 1e-6)

    total_expected = 50  # all increments applied locally before the kill

    def survivors_agree() -> bool:
        states = deployment.ewo_states(spec)
        return (
            replica_divergence(states) == 0
            and all(state.get("k") == total_expected for state in states)
        )

    converged = convergence_time(sim, survivors_agree, interval=100e-6, timeout=1.0)
    states = deployment.ewo_states(spec)
    survivor_value = states[0].get("k", 0)
    # the dead writer's own slot must have survived on its peers
    writer_slot_preserved = all(
        manager.ewo.groups[spec.group_id].cell_for("k").vector()[1] == 20
        for name, manager in deployment.managers.items()
        if name != "s1" and not manager.switch.failed
    )
    # recovery: wipe + rejoin, measure refill
    deployment.controller.recover_switch("s1")
    refill_start = sim.now

    def refilled() -> bool:
        return deployment.manager("s1").ewo.local_state(spec.group_id).get("k") == total_expected

    refill = convergence_time(sim, refilled, interval=100e-6, timeout=2.0)
    return EwoFailoverResult(
        scenario=f"kill writer mid-broadcast @30% loss",
        survivors_converged=converged is not None,
        survivor_value=survivor_value,
        writer_increments_preserved=writer_slot_preserved,
        refill_time=refill,
        sync_period=sync_period,
    )


@dataclass
class RefillSweepRow:
    sync_period: float
    seeds: int
    #: Seeds where the writer's last update died with it.
    writer_update_lost: int
    median_refill: Optional[float]
    p90_refill: Optional[float]


PERIODS = (0.5e-3, 1e-3, 2e-3)


def run_experiment() -> List[EwoFailoverResult]:
    return [run_point(p) for p in PERIODS]


def run_seed_sweep() -> List[RefillSweepRow]:
    rows = []
    for period in PERIODS:
        results = [run_point(period, seed=seed) for seed in SWEEP_SEEDS]
        kept = sorted(
            r.refill_time for r in results
            if r.writer_increments_preserved and r.refill_time is not None
        )
        lost = sum(not r.writer_increments_preserved for r in results)
        rows.append(RefillSweepRow(
            period, len(results), lost,
            statistics.median(kept) if kept else None,
            kept[math.ceil(0.9 * len(kept)) - 1] if kept else None,
        ))
    return rows


def report(results: List[EwoFailoverResult], sweep: List[RefillSweepRow]) -> None:
    print_header(
        "F2",
        "EWO failover: kill a replica mid-broadcast, then recover it",
        "no explicit failover protocol needed; survivors gossip the dead "
        "switch's updates; a recovered switch refills in ~one sync round",
    )
    print_table(
        ["sync period", "survivors converged", "value (exp 50)",
         "dead writer's increments kept", "refill time"],
        [
            (
                fmt_us(r.sync_period),
                r.survivors_converged,
                r.survivor_value,
                r.writer_increments_preserved,
                fmt_us(r.refill_time) if r.refill_time is not None else "NEVER",
            )
            for r in results
        ],
    )
    print(f"seeds {SWEEP_SEEDS.start}-{SWEEP_SEEDS.stop - 1}:")
    print_table(
        ["sync period", "median refill", "p90 refill", "writer's update lost"],
        [
            (
                fmt_us(r.sync_period),
                fmt_us(r.median_refill) if r.median_refill is not None else "NEVER",
                fmt_us(r.p90_refill) if r.p90_refill is not None else "NEVER",
                f"{r.writer_update_lost}/{r.seeds}",
            )
            for r in sweep
        ],
    )


@pytest.mark.benchmark(group="experiment")
def test_ewo_failover_shape_matches_paper(benchmark):
    results, sweep = benchmark.pedantic(
        lambda: (run_experiment(), run_seed_sweep()), rounds=1, iterations=1
    )
    report(results, sweep)
    for r in results:
        assert r.survivors_converged
        assert r.survivor_value == 50
        assert r.writer_increments_preserved
        assert r.refill_time is not None
        # refill is sync-round bound: a handful of periods at worst
        # (gossip picks random targets, so a couple of rounds may miss)
        assert r.refill_time < 10 * r.sync_period + 5e-3
    for row in sweep:
        # the lost-update seeds are a minority; every other one refills
        assert row.writer_update_lost < row.seeds // 4
        assert row.p90_refill < 10 * row.sync_period + 5e-3


@pytest.mark.benchmark(group="failover")
def test_benchmark_ewo_failover(benchmark):
    benchmark.pedantic(lambda: run_point(1e-3), rounds=1, iterations=1)


if __name__ == "__main__":
    report(run_experiment(), run_seed_sweep())
