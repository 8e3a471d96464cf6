"""[F5] Anti-entropy scrub and online repair under compound chaos.

The scrubber's contract (PROTOCOLS.md "Anti-entropy scrubbing"): every
silent divergence — a corrupted register, a frozen replica serving
stale state, a dropped chain apply — is *detected* by digest comparison
and *healed* online within the configured bound, without restarting
anything and without perturbing the run's determinism.

Each seeded run drives a compound fault schedule against a 4-switch
deployment: random register corruptions and frozen replicas from the
seeded planner, plus a scripted ``drop_chain_applies`` on a chain
member and correlated loss bursts, all while an SRO + EWO workload
keeps committing.  Measured quantities:

* **detection latency** — injection (or thaw, for frozen replicas) to
  the scrub round that first flags the divergent replica;
* **heal time CDF** — injection/thaw to the first scrub round that
  confirms the replica digest-clean again;
* **repair bandwidth overhead** — scrub management bytes (digest and
  key queries) plus repair bytes, as a fraction of all
  protocol traffic;
* **zero surviving divergence** — every logged ``DivergenceEvent`` ends
  the run detected and healed inside its deadline, and the invariant
  suite (including the ``divergence_healed`` monitor) stays green;
* **determinism** — identical seeds replay byte-identically, with or
  without metrics / flight-recorder instrumentation.

Run standalone::

    python benchmarks/bench_scrub_repair.py [--quick] [--seeds 1 2 3]
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import emit_json, fmt_pct, fmt_us, print_header, print_table

from repro.chaos import FaultInjector, InvariantSuite
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.topology import Topology, build_full_mesh
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch

#: Protected from corruption/staleness: the workload writer.
WRITER = "s0"


@dataclass
class ScrubResult:
    seed: int
    duration: float
    planned_faults: List[str]
    commits: int
    events: int
    detected: int
    healed: int
    violated: int
    detect_latencies: List[float]
    heal_latencies: List[float]
    heal_bound: float
    rounds_started: int
    rounds_diverged: int
    rounds_aborted: int
    repairs_sent: int
    repairs_fenced: int
    scrub_mgmt_bytes: int
    scrub_repair_bytes: int
    wire_bytes: int
    overhead: float
    invariant_ok: bool
    invariant_violations: List[str]
    invariant_notes: List[str]
    digest: str = ""
    event_log: List[dict] = field(default_factory=list)


def run_scrub_repair(
    seed: int,
    duration: float = 0.12,
    switches: int = 4,
    metrics: Optional[MetricsRegistry] = None,
    flightrec: Optional[FlightRecorder] = None,
) -> ScrubResult:
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed))
    nodes = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), switches)
    dep = SwiShmemDeployment(
        sim, topo, nodes, sync_period=1e-3,
        metrics=metrics, flight_recorder=flightrec,
    )
    sro = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
    ctr = dep.declare(RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER))

    injector = FaultInjector(dep, seed=seed)
    planned = injector.schedule_random(
        start=8e-3,
        horizon=max(duration - 60e-3, 10e-3),
        crashes=0, flaps=0, bursts=1, partitions=0,
        burst_duration=(2e-3, 6e-3), burst_loss=0.15,
        corruptions=3, stale_replicas=1, stale_duration=(3e-3, 6e-3),
        protect=[WRITER],
    )
    # Scripted compound fault on top of the random plan: a chain member
    # silently loses two applies mid-run (the canonical lost-chain-hop
    # divergence the scrubber must find without any detector signal).
    injector.drop_chain_applies(10e-3, "s1", sro.group_id, count=2)
    planned.append("scripted: s1 drops 2 chain applies at 10.00 ms")

    scrubber = dep.start_scrubbing()
    suite = InvariantSuite(dep).start(period=1e-3)

    counter = [0]

    def workload() -> None:
        i = counter[0]
        counter[0] += 1
        dep.manager(WRITER).register_write(sro, f"k{i % 16}", i)
        for name in dep.switch_names:
            if not dep.manager(name).switch.failed:
                dep.manager(name).register_increment(ctr, "c", 1)
        if sim.now < duration - 40e-3:
            sim.schedule(400e-6, workload)

    sim.schedule(1e-3, workload)
    sim.run(until=duration)
    report_ = suite.finalize()
    # The scripted drop really cost s1 its applies: F5 heals a real gap.
    assert injector.lost_applies().get(("s1", sro.group_id), 0) >= 2

    events = dep.divergence_log
    detect = [e.detected_at - e.at for e in events if e.detected]
    heal = [e.healed_at - e.at for e in events if e.healed]
    stats = scrubber.stats
    wire_bytes = topo.total_bytes_sent()
    scrub_bytes = stats.mgmt_bytes + stats.repair_bytes
    overhead = scrub_bytes / (wire_bytes + stats.mgmt_bytes) if wire_bytes else 0.0
    fenced = sum(m.scrub.repairs_fenced for m in dep.managers.values())

    history = (
        injector.log_digest(),
        tuple(suite.commit_times),
        tuple(
            (e.kind, e.group, e.switch, repr(e.key), round(e.at, 12),
             None if e.detected_at is None else round(e.detected_at, 12),
             None if e.healed_at is None else round(e.healed_at, 12),
             e.violated)
            for e in events
        ),
        tuple(tuple(sorted(store.items())) for store in dep.sro_stores(sro)),
        tuple(tuple(sorted(state.items())) for state in dep.ewo_states(ctr)),
        tuple(sorted(stats.as_dict().items())),
        sim.events_processed,
    )
    digest = hashlib.sha256(repr(history).encode("utf-8")).hexdigest()

    return ScrubResult(
        seed=seed,
        duration=duration,
        planned_faults=planned,
        commits=len(suite.commit_times),
        events=len(events),
        detected=sum(1 for e in events if e.detected),
        healed=sum(1 for e in events if e.healed),
        violated=sum(1 for e in events if e.violated),
        detect_latencies=detect,
        heal_latencies=heal,
        heal_bound=scrubber.heal_bound,
        rounds_started=stats.rounds_started,
        rounds_diverged=stats.rounds_diverged,
        rounds_aborted=stats.rounds_aborted,
        repairs_sent=stats.repairs_sent,
        repairs_fenced=fenced,
        scrub_mgmt_bytes=stats.mgmt_bytes,
        scrub_repair_bytes=stats.repair_bytes,
        wire_bytes=wire_bytes,
        overhead=overhead,
        invariant_ok=report_.ok,
        invariant_violations=[str(v) for v in report_.violations],
        invariant_notes=list(report_.notes),
        digest=digest,
        event_log=[
            {
                "kind": e.kind, "group": e.group, "switch": e.switch,
                "key": repr(e.key), "at": e.at,
                "detected_at": e.detected_at, "healed_at": e.healed_at,
            }
            for e in events
        ],
    )


def run_experiment(
    seeds: Tuple[int, ...] = (1, 2, 3), duration: float = 0.12
) -> List[ScrubResult]:
    return [run_scrub_repair(seed, duration=duration) for seed in seeds]


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def report(results: List[ScrubResult]) -> None:
    print_header(
        "F5",
        "anti-entropy scrub: detect and heal silent divergence online",
        "every injected corruption / frozen replica / dropped apply is "
        "detected by digest comparison and healed within the scrub "
        "bound, at bounded bandwidth overhead, deterministically",
    )
    rows = []
    for r in results:
        detect = sorted(r.detect_latencies)
        heal = sorted(r.heal_latencies)
        rows.append(
            (
                r.seed,
                r.commits,
                f"{r.healed}/{r.events}",
                fmt_us(max(detect, default=0.0)),
                fmt_us(_percentile(heal, 0.5)),
                fmt_us(max(heal, default=0.0)),
                fmt_us(r.heal_bound),
                r.rounds_started,
                r.repairs_sent,
                fmt_pct(r.overhead),
                "OK" if r.invariant_ok else f"{len(r.invariant_violations)} VIOLATIONS",
                r.digest[:12],
            )
        )
    print_table(
        ["seed", "commits", "healed", "worst detect", "p50 heal",
         "worst heal", "bound", "rounds", "repairs",
         "overhead", "invariants", "digest"],
        rows,
    )
    all_heals = sorted(h for r in results for h in r.heal_latencies)
    if all_heals:
        print("heal-time CDF (all seeds):")
        for q in (0.25, 0.5, 0.75, 0.9, 1.0):
            print(f"  p{int(q * 100):<3d} {fmt_us(_percentile(all_heals, min(q, 0.999)))}")
        print()
    for r in results:
        for line in r.invariant_violations:
            print(f"  seed {r.seed} VIOLATION: {line}")
        for note in r.invariant_notes:
            print(f"  seed {r.seed} note: {note}")


def check_result(r: ScrubResult) -> None:
    assert r.invariant_ok, (
        f"seed {r.seed}: invariant violations: {r.invariant_violations}"
    )
    assert r.commits > 0
    assert r.events >= 4, (
        f"seed {r.seed}: only {r.events} divergence events injected"
    )
    # the core contract: zero surviving divergence
    assert r.healed == r.detected == r.events, (
        f"seed {r.seed}: {r.events} events, {r.detected} detected, "
        f"{r.healed} healed"
    )
    assert r.violated == 0, f"seed {r.seed}: {r.violated} heal-bound violations"
    assert r.repairs_sent > 0, (
        f"seed {r.seed}: nothing was actually repaired"
    )
    # scrubbing must stay cheap relative to protocol traffic
    assert r.overhead < 0.25, (
        f"seed {r.seed}: scrub bandwidth overhead {r.overhead:.1%}"
    )


@pytest.mark.benchmark(group="experiment")
def test_scrub_repair_heals_all_divergence(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(results)
    for r in results:
        check_result(r)
    # at least one seed must exercise the repair path
    assert any(r.repairs_sent > 0 for r in results)


@pytest.mark.benchmark(group="experiment")
def test_scrub_repair_deterministic(benchmark):
    first = benchmark.pedantic(
        lambda: run_scrub_repair(7, duration=0.08), rounds=1, iterations=1
    )
    second = run_scrub_repair(7, duration=0.08)
    assert first.digest == second.digest
    assert run_scrub_repair(8, duration=0.08).digest != first.digest


@pytest.mark.benchmark(group="chaos")
def test_benchmark_scrub_repair(benchmark):
    benchmark.pedantic(
        lambda: run_scrub_repair(1, duration=0.08), rounds=1, iterations=1
    )


def main(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter runs (80ms simulated instead of 120ms)",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2, 3],
        help="scrub seeds (default: 1 2 3)",
    )
    args = parser.parse_args(argv)
    duration = 0.08 if args.quick else 0.12
    results = run_experiment(tuple(args.seeds), duration=duration)
    report(results)
    failures = 0
    for r in results:
        try:
            check_result(r)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL: {exc}")
    # Determinism: replay the first seed with live metrics AND the
    # flight recorder enabled — instrumentation must be digest-neutral.
    registry = MetricsRegistry()
    flightrec = FlightRecorder()
    replay = run_scrub_repair(
        args.seeds[0], duration=duration, metrics=registry, flightrec=flightrec
    )
    if replay.digest != results[0].digest:
        failures += 1
        print(
            f"FAIL: seed {args.seeds[0]} instrumented replay digest "
            f"{replay.digest[:12]} != original {results[0].digest[:12]}"
        )
    else:
        print(
            f"determinism: seed {args.seeds[0]} instrumented replay digest "
            f"matches ({replay.digest[:12]}, {flightrec.recorded} spans recorded)"
        )
    # Cross-check the metrics snapshot against the replay's verdicts.
    heal_hist = registry.get(
        "histogram", "scrub.heal_latency_seconds", "scrub"
    )
    hist_count = heal_hist.count if heal_hist is not None else 0
    if hist_count != len(replay.heal_latencies):
        failures += 1
        print(
            f"FAIL: heal-latency histogram has {hist_count} samples, "
            f"replay healed {len(replay.heal_latencies)} events"
        )
    emit_json(
        "F5",
        "anti-entropy scrub: detect and heal silent divergence online",
        results,
        registry=registry,
        extra={"instrumented_seed": args.seeds[0], "duration": duration},
    )
    print("RESULT:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
