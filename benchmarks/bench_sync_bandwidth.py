"""[C2] Section 6.2 sync-bandwidth claim.

"For example, even if the switches synchronize 10 MB (about the full
memory size) every 1 ms, the total bandwidth consumed by the
synchronization would constitute 10MB / (1ms x 5Tbps) ~ 1% of the total
switch bandwidth."

Two parts:

* the paper's own arithmetic, swept over state size and period (the
  analytic table);
* a measured check: run an EWO deployment, count actual sync bytes on
  the wire, and confirm the measured sync rate matches state_bytes /
  period within protocol framing overhead.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import List, Optional

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import emit_json, fmt_pct, print_header, print_table

from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.headers import PROTO_SWISHMEM
from repro.net.topology import Topology, build_full_mesh
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch

SWITCH_BANDWIDTH_BPS = 5e12  # 5 Tbps (paper's figure)


@dataclass
class AnalyticRow:
    state_mb: float
    period_ms: float
    fraction: float


@dataclass
class MeasuredRow:
    keys: int
    period_ms: float
    expected_bps: float
    measured_bps: float


def analytic_sweep() -> List[AnalyticRow]:
    rows = []
    for state_mb in (1.0, 5.0, 10.0):
        for period_ms in (0.5, 1.0, 5.0, 10.0):
            state_bits = state_mb * 1e6 * 8
            sync_bps = state_bits / (period_ms * 1e-3)
            rows.append(
                AnalyticRow(state_mb, period_ms, sync_bps / SWITCH_BANDWIDTH_BPS)
            )
    return rows


def measured_sync(
    keys: int = 200,
    period: float = 1e-3,
    duration: float = 0.05,
    metrics: Optional[MetricsRegistry] = None,
) -> MeasuredRow:
    sim = Simulator()
    topo = Topology(sim, SeededRng(51))
    switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 3)
    deployment = SwiShmemDeployment(
        sim, topo, switches, sync_period=period, metrics=metrics
    )
    spec = deployment.declare(
        RegisterSpec(
            "state", Consistency.EWO, ewo_mode=EwoMode.COUNTER,
            capacity=keys, key_bytes=8, value_bytes=8, ewo_batch_size=10**9,
        )
    )
    # populate all keys once (batch size blocks broadcast; sync carries it)
    for i in range(keys):
        deployment.manager("s0").register_increment(spec, f"key{i}", 1)
    start_bytes = topo.total_bytes_sent()
    sim.run(until=duration)
    sync_bytes = topo.total_bytes_sent() - start_bytes
    measured_bps = sync_bytes * 8 / duration
    # expected: each live switch ships its known state once per period;
    # only s0's slots are populated -> per-sync payload ~ keys * entry
    entry_bytes = 8 + 8 + 4  # key + value + slot version
    expected_bps = 3 * (keys * entry_bytes) * 8 / period
    return MeasuredRow(keys, period * 1e3, expected_bps, measured_bps)


def run_experiment():
    # One shared registry across the measured runs, so the sidecar's
    # ewo.sync_bytes counters can be cross-checked against the wire math.
    registry = MetricsRegistry()
    return analytic_sweep(), [
        measured_sync(keys=100, period=1e-3, metrics=registry),
        measured_sync(keys=200, period=1e-3, metrics=registry),
        measured_sync(keys=200, period=2e-3, metrics=registry),
    ], registry


def report(analytic, measured, registry=None):
    print_header(
        "C2",
        "Section 6.2: periodic full-state sync bandwidth",
        "10 MB synchronized every 1 ms ~ 1% of a 5 Tbps switch",
    )
    print_table(
        ["state", "period", "sync bw / switch bw"],
        [
            (f"{r.state_mb:.0f} MB", f"{r.period_ms:.1f} ms", fmt_pct(r.fraction))
            for r in analytic
        ],
    )
    print_table(
        ["keys", "period", "expected sync rate", "measured wire rate", "framing overhead"],
        [
            (
                r.keys,
                f"{r.period_ms:.1f} ms",
                f"{r.expected_bps / 1e6:.2f} Mbps",
                f"{r.measured_bps / 1e6:.2f} Mbps",
                fmt_pct(r.measured_bps / r.expected_bps - 1.0),
            )
            for r in measured
        ],
    )
    emit_json(
        "C2",
        "Section 6.2: periodic full-state sync bandwidth",
        {"analytic": analytic, "measured": measured},
        registry=registry,
    )


@pytest.mark.benchmark(group="experiment")
def test_sync_bandwidth_shape_matches_paper(benchmark):
    analytic, measured, registry = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    report(analytic, measured, registry)
    # The paper's headline cell: 10 MB @ 1 ms ~ 1.6% (the paper rounds to ~1%).
    headline = next(r for r in analytic if r.state_mb == 10.0 and r.period_ms == 1.0)
    assert 0.005 < headline.fraction < 0.02
    # Measured wire rate tracks the analytic rate within framing overhead.
    for row in measured:
        assert row.measured_bps >= row.expected_bps  # framing only adds
        assert row.measured_bps < row.expected_bps * 1.8
    # Doubling the period halves the rate; doubling state doubles it.
    k100 = measured[0]
    k200 = measured[1]
    slow = measured[2]
    assert k200.measured_bps / k100.measured_bps == pytest.approx(2.0, rel=0.2)
    assert k200.measured_bps / slow.measured_bps == pytest.approx(2.0, rel=0.2)


@pytest.mark.benchmark(group="sync-bandwidth")
def test_benchmark_sync_bandwidth(benchmark):
    benchmark.pedantic(lambda: measured_sync(keys=100), rounds=1, iterations=1)


if __name__ == "__main__":
    report(*run_experiment())
