"""[T3] Critical-path tail attribution: why is p99 slow, exactly?

The ``sro.write_commit_latency_seconds`` histogram says *how slow* the
tail is; this experiment gates *why*.  Two scenarios drive the same
SRO chain workload through distinct failure modes:

* **loss_burst** — a correlated loss burst drops chain traffic
  mid-run, so tail writes burn their time in writer timeout/backoff:
  :class:`~repro.obs.critpath.CriticalPathAnalyzer` must rank
  ``retry_backoff`` as the top tail cause;
* **controller_churn** — a mid-chain switch crashes while the
  controller leadership is being repeatedly assassinated, so chain
  repair stalls until a lease finally lands: the top tail cause must
  be ``leaderless_window``.

Gated quantities:

* **honesty** — per committed write, attributed seconds sum to the
  end-to-end latency exactly; ``fraction_sum_error_max`` is gated at
  1e-9 for every analyzed write;
* **cause ranking** — the scenario-specific top tail cause above;
* **digest neutrality** — each scenario replayed with the flight
  recorder + live SLO monitor attached must produce a byte-identical
  history digest to the bare run;
* **SLO evaluation** — the monitor's declarative objectives see the
  induced tail: the loss burst must breach the p99 latency objective.

Run standalone::

    python benchmarks/bench_critpath_tails.py [--quick]
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import emit_json, fmt_us, print_header, print_table

from repro.chaos import FaultInjector
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, RegisterSpec
from repro.net.topology import Topology, build_full_mesh
from repro.obs.critpath import CriticalPathAnalyzer
from repro.obs.dashboard import render_critpath, render_slo
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOMonitor
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch

#: The workload writer (and chain head) — protected from crashes.
WRITER = "s0"

#: Declarative objectives evaluated live during every scenario run.
SLO_OBJECTIVES = (
    "sro.write_commit p99 < 1ms over 10ms windows",
    "sro.write availability >= 0.999 over 10ms windows",
)

#: Gate on the per-write attribution honesty property.
FRACTION_SUM_TOLERANCE = 1e-9


@dataclass
class ScenarioResult:
    scenario: str
    seed: int
    duration: float
    commits: int
    max_attempts: int
    leaderless_intervals: int
    leaderless_seconds: float
    report: Dict = field(default_factory=dict)
    slo: Dict = field(default_factory=dict)
    digest_bare: str = ""
    digest_instrumented: str = ""
    exemplar_text: str = ""


def _run_once(
    scenario: str,
    seed: int,
    duration: float,
    recorder=None,
    slo_monitor=None,
    metrics=None,
):
    """One seeded scenario run; returns (deployment, spec, digest)."""
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed))
    nodes = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 3)
    dep = SwiShmemDeployment(
        sim,
        topo,
        nodes,
        sync_period=1e-3,
        metrics=metrics,
        controller_replicas=3 if scenario == "controller_churn" else 1,
        flight_recorder=recorder,
        slo_monitor=slo_monitor,
    )
    spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=128))
    injector = FaultInjector(dep, seed=seed)
    if scenario == "loss_burst":
        # Correlated loss on every link: in-flight applies and acks die,
        # the writer times out and backs off.
        injector.loss_burst(8e-3, duration=8e-3, loss_rate=0.6)
    elif scenario == "controller_churn":
        # Kill the mid-chain hop, then assassinate each leader that
        # takes over: chain repair needs a lease-holder, so retried
        # writes stall through the accumulated leaderless windows.
        injector.crash(8e-3, "s1")
        for i, at in enumerate((7.5e-3, 20e-3, 32e-3)):
            injector.crash_leader_for(at, down_for=60e-3)
        injector.recover(70e-3, "s1")
    else:
        raise ValueError(f"unknown scenario {scenario!r}")

    counter = [0]

    def workload() -> None:
        i = counter[0]
        counter[0] += 1
        dep.manager(WRITER).register_write(spec, f"k{i % 8}", i)
        if sim.now < duration - 30e-3:
            sim.schedule(400e-6, workload)

    sim.schedule(1e-3, workload)
    sim.run(until=duration)
    if slo_monitor is not None:
        slo_monitor.finalize(sim.now)

    history = (
        injector.log_digest(),
        tuple(tuple(sorted(store.items())) for store in dep.sro_stores(spec)),
        tuple(
            (e.switch, e.failed_at, e.detected_at, e.false_positive)
            for e in dep.controller.failures
        ),
        dep.controller.leadership_digest(),
        sim.events_processed,
    )
    digest = hashlib.sha256(repr(history).encode("utf-8")).hexdigest()
    return dep, spec, digest


def run_scenario(scenario: str, seed: int = 3, duration: float = 0.1) -> ScenarioResult:
    """Bare run, instrumented replay, attribution, and neutrality check."""
    _, _, digest_bare = _run_once(scenario, seed, duration)

    recorder = FlightRecorder(max_records=65536)
    monitor = SLOMonitor()
    for objective in SLO_OBJECTIVES:
        monitor.add_objective(objective)
    registry = MetricsRegistry()
    dep, spec, digest_instrumented = _run_once(
        scenario, seed, duration,
        recorder=recorder, slo_monitor=monitor, metrics=registry,
    )

    leaderless = dep.controller.leaderless_intervals(dep.sim.now)
    analyzer = CriticalPathAnalyzer(recorder, leaderless=leaderless)
    report = analyzer.report(tail_quantile=0.9)
    commits = len(report.writes)
    max_attempts = max((w.attempts for w in report.writes), default=0)
    top = report.top_tail_cause()
    exemplar = analyzer.render_exemplar(report, top, limit=30) if top else ""
    return ScenarioResult(
        scenario=scenario,
        seed=seed,
        duration=duration,
        commits=commits,
        max_attempts=max_attempts,
        leaderless_intervals=len(leaderless),
        leaderless_seconds=sum(end - start for start, end in leaderless),
        report=report.as_dict(),
        slo=monitor.as_dict(),
        digest_bare=digest_bare,
        digest_instrumented=digest_instrumented,
        exemplar_text=exemplar,
    )


#: Scenario -> the cause that must rank first in the tail.
EXPECTED_TOP_TAIL = {
    "loss_burst": "retry_backoff",
    "controller_churn": "leaderless_window",
}


def run_experiment(duration: float = 0.1) -> List[ScenarioResult]:
    return [
        run_scenario("loss_burst", seed=3, duration=duration),
        run_scenario("controller_churn", seed=3, duration=max(duration, 0.1)),
    ]


def check_result(r: ScenarioResult) -> None:
    assert r.commits > 0, f"{r.scenario}: no committed writes analyzed"
    assert r.digest_instrumented == r.digest_bare, (
        f"{r.scenario}: instrumented replay digest "
        f"{r.digest_instrumented[:12]} != bare {r.digest_bare[:12]} — "
        f"critpath/SLO instrumentation perturbed the simulation"
    )
    error = r.report["fraction_sum_error_max"]
    assert error <= FRACTION_SUM_TOLERANCE, (
        f"{r.scenario}: attribution fractions sum to 1 ± {error:.3g} "
        f"(> {FRACTION_SUM_TOLERANCE:g}) — attributed seconds no longer "
        f"telescope to the end-to-end latency"
    )
    expected = EXPECTED_TOP_TAIL[r.scenario]
    actual = r.report["tail"]["top_cause"]
    assert actual == expected, (
        f"{r.scenario}: top tail cause is {actual!r}, expected {expected!r}"
    )
    assert r.max_attempts > 1, f"{r.scenario}: no write ever retried"
    assert r.slo["samples"] > 0, f"{r.scenario}: SLO monitor saw no samples"
    if r.scenario == "loss_burst":
        assert any(
            b["metric"] == "sro.write_commit" for b in r.slo["breaches"]
        ), "loss_burst: p99 latency objective never breached"
    if r.scenario == "controller_churn":
        assert r.leaderless_intervals >= 1
        assert r.leaderless_seconds > 0


def report(results: List[ScenarioResult]) -> None:
    print_header(
        "T3",
        "critical-path tail attribution + live SLOs",
        "every committed write's latency decomposes exactly into the "
        "cause taxonomy; the induced failure mode tops the tail ranking "
        "and the instrumented replay stays byte-identical",
    )
    rows = []
    for r in results:
        lat = r.report["latency_us"]
        rows.append(
            (
                r.scenario,
                r.commits,
                r.max_attempts,
                fmt_us(lat["p50"] * 1e-6),
                fmt_us(lat["p99"] * 1e-6),
                fmt_us(lat["max"] * 1e-6),
                r.report["tail"]["top_cause"],
                f"{r.report['fraction_sum_error_max']:.1e}",
                len(r.slo["breaches"]),
                "MATCH" if r.digest_instrumented == r.digest_bare else "DIVERGED",
            )
        )
    print_table(
        ["scenario", "commits", "max tries", "p50", "p99", "max",
         "top tail cause", "frac err", "slo breaches", "digest"],
        rows,
    )
    for r in results:
        print()
        print(render_critpath(r.report, title=f"T3 critical paths: {r.scenario}"))
        print(render_slo(r.slo, title=f"T3 slo: {r.scenario}"))
        if r.exemplar_text:
            print()
            print(r.exemplar_text)


@pytest.mark.benchmark(group="experiment")
def test_critpath_tails_match_expectations(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(results)
    for r in results:
        check_result(r)


@pytest.mark.benchmark(group="chaos")
def test_benchmark_critpath_loss_burst(benchmark):
    benchmark.pedantic(
        lambda: run_scenario("loss_burst", duration=0.08), rounds=1, iterations=1
    )


def main(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter loss-burst run (80ms simulated instead of 100ms)",
    )
    args = parser.parse_args(argv)
    duration = 0.08 if args.quick else 0.1
    results = run_experiment(duration=duration)
    report(results)
    failures = 0
    for r in results:
        try:
            check_result(r)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL: {exc}")
    emit_json(
        "T3",
        "critical-path tail attribution + live SLOs",
        [
            {
                "scenario": r.scenario,
                "seed": r.seed,
                "duration": r.duration,
                "commits": r.commits,
                "max_attempts": r.max_attempts,
                "leaderless_intervals": r.leaderless_intervals,
                "leaderless_seconds": r.leaderless_seconds,
                "digest_neutral": r.digest_instrumented == r.digest_bare,
                "digest": r.digest_instrumented,
                "critpath": r.report,
                "slo": r.slo,
            }
            for r in results
        ],
        extra={"fraction_sum_tolerance": FRACTION_SUM_TOLERANCE},
    )
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
