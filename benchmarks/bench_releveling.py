"""[T4] Runtime re-leveling: advisor-driven SRO -> EWO demotion, live.

T2 ends where its advisor flags a per-source meter *misdeclared* as SRO
(write-per-packet through the replication chain — Observation 2's
worst case).  This experiment closes the actuation loop: the
:class:`~repro.protocols.releveling.RelevelingCoordinator` takes that
high-confidence recommendation and demotes the group to EWO on the
live deployment with a drain -> switch -> unfence handoff — under
chaos (a :class:`~repro.chaos.nemesis.LeaderKiller` crashes the
controller leader mid-drain, and a packet nemesis duplicates/delays
SwiShmem traffic throughout) — and the run must show:

* **zero committed-write loss** — every post-demotion EWO replica holds
  exactly the drained chain's committed state (linearizable history
  intact up to the fence epoch; the seed carries one controller-issued
  timestamp so replicas land byte-identical);
* **takeover resume** — the successor leader resumes the in-flight
  handoff from coordinator state, no rollback;
* **write-latency improvement** — per-packet NF latency collapses once
  per-packet writes stop crossing the chain (the quantitative claim the
  Table 1 demotion advice exists to deliver);
* **determinism** — the whole run, leader kill and all, replays
  byte-identically from its seed.

Run standalone::

    python benchmarks/bench_releveling.py [--quick]
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

import pytest

# Resolve imports relative to this file, not the caller's CWD.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.chaos import LeaderKiller, Nemesis
from repro.core.registers import Consistency
from repro.obs import AccessProfiler, ConsistencyAdvisor

from benchmarks.bench_access_advisor import MeterSroNF
from benchmarks.common import emit_json, fmt_us, print_header, print_table
from repro.testing import build_nf_world

SEED = 2400


def _drive(world, flows: int, gap: float = 100e-6, phase: str = "a") -> None:
    """Zipf-skewed TCP drive (T2's recipe), relative to the current sim
    time so it works mid-run — phase B starts after the handoff."""
    from repro.workload.flows import FlowSpec, inject_flow
    from repro.workload.zipf import ZipfSampler

    rng = world.rng.stream(f"zipf-flows-{phase}")
    destinations = world.server_ips()
    client_picker = ZipfSampler(len(world.clients), s=1.2, rng=rng)
    dst_picker = ZipfSampler(len(destinations), s=1.2, rng=rng)
    at = world.sim.now
    port = 31000 if phase == "a" else 33000
    for _ in range(flows):
        at += rng.expovariate(4000.0)
        port += 1
        inject_flow(
            world.sim,
            FlowSpec(
                client=client_picker.pick(world.clients),
                dst_ip=dst_picker.pick(destinations),
                src_port=port,
                data_packets=6,
                inter_packet_gap=gap,
                start_at=at,
            ),
        )
    world.sim.run(until=at + 0.1)


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------

def _latency_stats(samples: List[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    n = len(ordered)

    def pct(p: float) -> float:
        return ordered[min(n - 1, int(p * n))]

    return {
        "packets": n,
        "mean_us": sum(ordered) / n * 1e6,
        "p50_us": pct(0.50) * 1e6,
        "p99_us": pct(0.99) * 1e6,
        "max_us": ordered[-1] * 1e6,
    }


def _collect_latencies(world, skip: Dict[str, int]) -> List[float]:
    """Per-packet end-to-end latency of every data packet the servers
    received since ``skip`` was captured (injection to delivery — the
    NF-visible cost, write barrier included)."""
    samples = []
    for host in world.servers:
        for rec in host.received[skip.get(host.name, 0) :]:
            if rec.packet.created_at is not None:
                samples.append(rec.time - rec.packet.created_at)
    return samples


def _receive_marks(world) -> Dict[str, int]:
    return {host.name: len(host.received) for host in world.servers}


def _run_digest(world, spec) -> str:
    """Event-history digest: kernel events, host injections, and every
    replica's meter state (engine-agnostic)."""
    dep = world.deployment
    if spec.consistency is Consistency.EWO:
        replicas = dep.ewo_states(spec)
    else:
        replicas = dep.sro_stores(spec)
    history = (
        world.sim.events_processed,
        tuple(h.sent_count for h in world.clients + world.servers),
        tuple(
            tuple(sorted(replica.items(), key=lambda kv: repr(kv[0])))
            for replica in replicas
        ),
    )
    return hashlib.sha256(repr(history).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------

@dataclass
class RelevelingResult:
    advice: Dict[str, Any]
    pre: Dict[str, float]                # SRO-phase per-packet latency
    post: Dict[str, float]               # EWO-phase per-packet latency
    write_latency_improvement: float     # pre.mean / post.mean
    handoff: Dict[str, Any]              # duration, phases, chaos counters
    loss: Dict[str, Any]                 # committed-write accounting
    determinism: Dict[str, Any]          # same-seed replay digests
    stats: Dict[str, int] = field(default_factory=dict)


def _settle(world, dep, spec, budget: float = 2.0) -> float:
    """Run until the overloaded chain has committed its write backlog
    (every member quiesced).  The backlog itself is part of the story:
    a write-per-packet meter drives the chain far past its serialized
    commit capacity — Observation 2's argument for demotion."""
    start = world.sim.now
    deadline = start + budget
    while world.sim.now < deadline:
        if all(
            manager.sro.quiesced(spec.group_id)
            for manager in dep.managers.values()
            if not manager.switch.failed
        ):
            break
        world.sim.run(until=world.sim.now + 0.05)
    return world.sim.now - start


def _run_once(flows: int) -> Dict[str, Any]:
    profiler = AccessProfiler()
    world = build_nf_world(
        seed=SEED,
        responder_servers=False,
        access_profiler=profiler,
        controller_replicas=2,
    )
    dep = world.deployment
    dep.install_nf(MeterSroNF)
    spec = dep.spec_by_name("meter_usage")

    # Chaos throughout: SwiShmem packets duplicated and delayed, and the
    # controller leader is killed the moment the handoff starts draining.
    Nemesis(
        seed=SEED + 1, duplicate_prob=0.05, delay_prob=0.05, max_delay=50e-6
    ).install(world.topo)
    killer = LeaderKiller(dep, phase="drain", kills=1)

    # Phase A: the misdeclared meter pays the chain on every packet.
    pre_marks = _receive_marks(world)
    _drive(world, flows=flows, phase="a")
    pre_latencies = _collect_latencies(world, pre_marks)
    packets = sum(h.sent_count for h in world.clients + world.servers)
    backlog_seconds = _settle(world, dep, spec)

    # The advisor flags it; the coordinator acts on the advice — with
    # fresh traffic still flowing through the handoff (new writes are
    # fenced into overlays and replayed on unfence).
    advisor = ConsistencyAdvisor(profiler, packets=packets)
    advice = advisor.advice_for("meter_usage").as_dict()
    seed_seen: Dict[str, Any] = {}

    def capture_seed(phase, handoff):
        if phase == "switch":
            seed_seen["seed"] = dict(handoff.switch_payload["seed"])

    dep.releveler.phase_listeners.append(capture_seed)
    handoff_started = world.sim.now
    acted = dep.releveler.apply_advice(advisor)
    _drive(world, flows=max(4, flows // 4), phase="mid")
    world.sim.run(until=world.sim.now + 0.3)
    handoff_log = list(dep.releveler.log)

    # Zero committed-write loss: the switch seeded every replica with
    # the drained chain's committed state, and the meter only ever
    # increments — any replica value *below* its seeded value means a
    # committed write vanished.
    committed = seed_seen.get("seed", {})
    replicas = [dict(r) for r in dep.ewo_states(spec)]
    lost = sum(
        1
        for replica in replicas
        for key, value in committed.items()
        if replica.get(key, 0) < value
    )

    # Phase B: same drive, writes now applied locally and gossiped.
    post_marks = _receive_marks(world)
    _drive(world, flows=flows, phase="b")
    post_latencies = _collect_latencies(world, post_marks)

    return {
        "advice": advice,
        "acted": acted,
        "pre_latencies": pre_latencies,
        "post_latencies": post_latencies,
        "backlog_seconds": backlog_seconds,
        "committed": committed,
        "replicas": replicas,
        "lost": lost,
        "handoff_started": handoff_started,
        "handoff_log": handoff_log,
        "killer_log": list(killer.log),
        "releveler_stats": dep.releveler.stats.as_dict(),
        "final_level": spec.consistency.value,
        "digest": _run_digest(world, spec),
    }


def run_experiment(quick: bool = False) -> RelevelingResult:
    flows = 15 if quick else 30
    run = _run_once(flows)
    replay = _run_once(flows)

    pre = _latency_stats(run["pre_latencies"])
    post = _latency_stats(run["post_latencies"])
    duration = run["handoff_log"][0][3] if run["handoff_log"] else float("inf")
    return RelevelingResult(
        advice=run["advice"],
        pre=pre,
        post=post,
        write_latency_improvement=pre["mean_us"] / post["mean_us"],
        handoff={
            "completed": run["releveler_stats"]["completed"],
            "duration_seconds": duration,
            "backlog_seconds": run["backlog_seconds"],
            "leader_kills": len(run["killer_log"]),
            "resumed": run["releveler_stats"]["resumed"],
            "rollbacks": run["releveler_stats"]["rollbacks"],
            "final_level": run["final_level"],
        },
        loss={
            "committed_keys": len(run["committed"]),
            "replicas": len(run["replicas"]),
            "committed_writes_lost": run["lost"],
        },
        determinism={
            "digest": run["digest"],
            "replay_digest": replay["digest"],
            "match": run["digest"] == replay["digest"],
        },
        stats=run["releveler_stats"],
    )


def report(result: RelevelingResult) -> None:
    print_header(
        "T4",
        "Runtime re-leveling: advisor-driven SRO -> EWO demotion, live",
        "a misdeclared write-per-packet meter is demoted under chaos with "
        "zero committed-write loss and a collapse in NF write latency",
    )
    print_table(
        ["Phase", "Packets", "Mean", "p50", "p99", "Max"],
        [
            (label, s["packets"], fmt_us(s["mean_us"] / 1e6),
             fmt_us(s["p50_us"] / 1e6), fmt_us(s["p99_us"] / 1e6),
             fmt_us(s["max_us"] / 1e6))
            for label, s in (("SRO (misdeclared)", result.pre),
                             ("EWO (demoted)", result.post))
        ],
    )
    h = result.handoff
    print(
        f"advice: {result.advice['declared'].upper()} -> "
        f"{result.advice['recommended'].upper()} "
        f"(confidence {result.advice['confidence']}); "
        f"handoff {h['duration_seconds'] * 1e3:.2f}ms with "
        f"{h['leader_kills']} leader kill(s), {h['resumed']} resume(s), "
        f"{h['rollbacks']} rollback(s)"
    )
    print(
        f"committed writes lost: {result.loss['committed_writes_lost']} "
        f"(of {result.loss['committed_keys']} keys x "
        f"{result.loss['replicas']} replicas); "
        f"write latency improvement: {result.write_latency_improvement:.1f}x; "
        f"same-seed replay match: {result.determinism['match']}"
    )


def check_result(result: RelevelingResult) -> None:
    # The advisor's recommendation is what drove the handoff.
    assert result.advice["declared"] == "sro"
    assert result.advice["recommended"] == "ewo"
    assert result.advice["mismatch"] and result.advice["confidence"] == "high"
    # The handoff completed under chaos, resumed by the successor leader.
    h = result.handoff
    assert h["final_level"] == "ewo"
    assert h["completed"] == 1 and h["rollbacks"] == 0
    assert h["leader_kills"] == 1 and h["resumed"] >= 1
    assert h["duration_seconds"] < 0.1
    # Zero committed-write loss across every replica.
    assert result.loss["committed_writes_lost"] == 0
    assert result.loss["committed_keys"] > 0
    # The demotion bought real per-packet latency.
    assert result.write_latency_improvement > 2.0, (
        f"expected >2x write-latency improvement, got "
        f"{result.write_latency_improvement:.2f}x"
    )
    assert result.post["p99_us"] < result.pre["p99_us"]
    # Chaos run replays byte-identically from its seed.
    assert result.determinism["match"]


@pytest.mark.benchmark(group="experiment")
def test_releveling_demotes_live(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(result)
    check_result(result)


@pytest.mark.benchmark(group="releveling")
def test_benchmark_releveling(benchmark):
    benchmark.pedantic(lambda: run_experiment(quick=True), rounds=1, iterations=1)


def main(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="halve the flow count per phase"
    )
    args = parser.parse_args(argv)
    result = run_experiment(quick=args.quick)
    report(result)
    check_result(result)
    emit_json("T4", "Runtime re-leveling handoff", result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
