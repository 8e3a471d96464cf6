"""[A3] Section 9 extension: directory-driven partial replication.

"If there is locality, i.e., some state is normally used only by a
subset of switches, it would not need to be replicated to all switches.
One way to manage this … is to use a central controller that acts as a
directory service … tracking which switches replicate which state."

The experiment gives a fraction of the keyspace 2-switch locality and
measures, against full replication: replication bytes on the wire and
per-key replica-copies (the memory proxy), as the deployment scales
from 4 to 8 switches.  The win should grow with deployment size —
full-replication fanout is N-1, locality fanout stays 1.
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

from repro.core.directory import DirectoryService
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.topology import Topology, build_full_mesh
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch

from benchmarks.common import fmt_pct, print_header, print_table

KEYS = 32
WRITES_PER_KEY = 6
LOCAL_FRACTION = 0.75  # share of keys with 2-switch locality


@dataclass
class DirectoryResult:
    switches: int
    mode: str
    replication_bytes: int
    replica_copies: int
    converged: bool


def run_point(n_switches: int, partial: bool, seed: int = 91) -> DirectoryResult:
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed))
    switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), n_switches)
    deployment = SwiShmemDeployment(sim, topo, switches, sync_period=2e-3)
    spec = deployment.declare(
        RegisterSpec(
            "state",
            Consistency.EWO,
            ewo_mode=EwoMode.COUNTER,
            capacity=KEYS * 2,
            partial_replication=partial,
        )
    )
    directory = DirectoryService(deployment.switch_names)
    local_keys = int(KEYS * LOCAL_FRACTION)
    if partial:
        deployment.attach_directory(directory)
        for i in range(local_keys):
            home = deployment.switch_names[i % n_switches]
            backup = deployment.switch_names[(i + 1) % n_switches]
            directory.place(spec.group_id, f"k{i}", [home, backup])
    start_bytes = topo.total_bytes_sent()
    for i in range(KEYS):
        writer_name = deployment.switch_names[i % n_switches]
        for j in range(WRITES_PER_KEY):
            sim.schedule(
                (i * WRITES_PER_KEY + j) * 10e-6,
                lambda w=writer_name, k=i: deployment.manager(w).register_increment(
                    spec, f"k{k}", 1
                ),
            )
    sim.run(until=KEYS * WRITES_PER_KEY * 10e-6 + 10e-3)
    replication_bytes = topo.total_bytes_sent() - start_bytes
    # replica copies actually materialized (memory proxy)
    copies = sum(
        len(manager.ewo.groups[spec.group_id].cells)
        for manager in deployment.managers.values()
    )
    # convergence check on each key's replica set
    converged = True
    for i in range(KEYS):
        key = f"k{i}"
        replicas = (
            directory.replicas_of(spec.group_id, key)
            if partial
            else set(deployment.switch_names)
        )
        for name in replicas:
            state = deployment.manager(name).ewo.local_state(spec.group_id)
            if state.get(key) != WRITES_PER_KEY:
                converged = False
    return DirectoryResult(
        switches=n_switches,
        mode="partial (directory)" if partial else "full replication",
        replication_bytes=replication_bytes,
        replica_copies=copies,
        converged=converged,
    )


def run_experiment() -> List[DirectoryResult]:
    results = []
    for n in (4, 8):
        results.append(run_point(n, partial=False))
        results.append(run_point(n, partial=True))
    return results


def report(results: List[DirectoryResult]) -> None:
    print_header(
        "A3",
        "Section 9: directory-based partial replication savings",
        "state with locality need not be replicated everywhere; a "
        "directory service tracks which switches replicate which keys",
    )
    print_table(
        ["switches", "mode", "replication bytes", "key copies materialized", "converged"],
        [
            (r.switches, r.mode, r.replication_bytes, r.replica_copies, r.converged)
            for r in results
        ],
    )
    for n in (4, 8):
        full = next(r for r in results if r.switches == n and "full" in r.mode)
        part = next(r for r in results if r.switches == n and "partial" in r.mode)
        saved = 1 - part.replication_bytes / full.replication_bytes
        print(f"  {n} switches: partial replication saves "
              f"{fmt_pct(saved)} of replication bandwidth")


@pytest.mark.benchmark(group="experiment")
def test_directory_savings_shape(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(results)
    assert all(r.converged for r in results)
    for n in (4, 8):
        full = next(r for r in results if r.switches == n and "full" in r.mode)
        part = next(r for r in results if r.switches == n and "partial" in r.mode)
        assert part.replication_bytes < full.replication_bytes
        assert part.replica_copies < full.replica_copies
    # the savings grow with deployment size
    def saving(n):
        full = next(r for r in results if r.switches == n and "full" in r.mode)
        part = next(r for r in results if r.switches == n and "partial" in r.mode)
        return 1 - part.replication_bytes / full.replication_bytes

    assert saving(8) > saving(4)


@pytest.mark.benchmark(group="ablation")
def test_benchmark_directory(benchmark):
    benchmark.pedantic(lambda: run_point(4, True), rounds=1, iterations=1)
