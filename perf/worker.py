"""One measurement of one workload, in this process.

``perf/run.py`` starts this module in a fresh subprocess for every
repeat, because module-global id counters and heap growth otherwise
leak from one run into the next.  The last line of standard output is
one JSON object (see :func:`measure`).

A run has three parts:

1. *set-up* — import ``repro``, build the world (ingress + 3-switch NF
   cluster + egress, 8 clients, 8 responder servers), install the
   workload's NFs, schedule the whole load and any fault plan;
2. *timed phase* — ``sim.run`` up to ``t_end``, a fixed amount of
   simulated work, timed with ``time.process_time()``;
3. *epilogue* (untimed) — one lone marker packet into the now quiet
   network times EWO convergence, the invariant suite is finalised, and
   every metric and the digest are read off the public API.

Only the public ``repro`` names listed in ``perf/README.md`` are used.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import importlib
import importlib.util
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: All simulated load starts here, after controller start-up and the
#: staggered first EWO sync of every switch.
T_START = 1e-3
#: SYN + 8 data + FIN per flow.
DATA_PACKETS = 8
#: Gap between a flow's packets.  Longer than an SRO commit (~150 us
#: through the control plane), so a NAT mapping is installed once per
#: flow (Table 1's "read per packet, written per connection") instead
#: of once per packet of the opening burst.
PACKET_GAP = 250e-6
#: Period of the IPS operator's signature writes.
OPERATOR_PERIOD = 400e-6
#: Quiet tail of the timed phase: three EWO sync periods, so replicas
#: have converged and every held packet is released before the marker.
DRAIN = 3e-3
#: Give-up horizon for the marker packet's convergence.
MARKER_HORIZON = 20e-3
#: Hops of a data packet: client -> ingress -> nfX -> egress -> server.
DATA_PATH_LINKS = 4

#: The timed phase runs in this many slices of equal simulated time,
#: with the calibration kernel before, between and after them.
SLICES = 4
#: The calibration kernel's iterations, and the CPU-seconds they take
#: on the reference box when nothing else runs.
CALIBRATION_STEPS = 200_000
CALIBRATION_NOMINAL_S = 0.10

#: The crash victim of ``nf_mix_chaos``.  Its two data-path links are
#: down for the whole run, which makes it a replication-only standby:
#: crashing it stalls every chain and exercises repair, recovery and
#: scrubbing, yet black-holes no client packet, so the workload has no
#: failed operations whatever the seed.
CHAOS_VICTIM = "nf2"
CHAOS_CRASH_AT = 5e-3  # after T_START
CHAOS_DOWN_FOR = 10e-3
CHAOS_LEADER_DOWN_FOR = 25e-3
CHAOS_BURST_AT = 22e-3
CHAOS_BURST_FOR = 4e-3
CHAOS_TAIL = 12e-3


@dataclass(frozen=True)
class Workload:
    """A fixed amount of simulated work.  ``flows`` arrive as a Poisson
    process conditioned on its count (sorted uniform start times over
    ``flows / rate`` seconds), open loop."""

    name: str
    flows: int
    rate: float  # flows per simulated second
    nfs: Tuple[str, ...] = ()
    dst_port: int = 80
    payload: int = 512
    zipf_s: float = 0.0  # 0 = uniform clients and destinations
    obs: bool = False
    chaos: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fwd_bare", flows=3200, rate=20000.0, payload=0),
        Workload("sro_chain", flows=400, rate=1000.0, nfs=("sequencer", "nat"),
                 dst_port=9000),
        Workload("ewo_sketch", flows=18, rate=1000.0, nfs=("ddos", "heavyhitter")),
        Workload("nf_mix", flows=260, rate=4000.0, nfs=("nat", "ips", "heavyhitter"),
                 zipf_s=1.2),
        # No NAT here: while a chain is under repair NAT's reverse lookup
        # misses and drops server replies, and this benchmark keeps to
        # workloads on which no operation fails.  The IPS operator's
        # signature writes are the strong writes the faults stall.
        Workload("nf_mix_chaos", flows=100, rate=1500.0,
                 nfs=("ips", "heavyhitter"), zipf_s=1.2, chaos=True),
        Workload("nf_mix_obs", flows=260, rate=4000.0,
                 nfs=("nat", "ips", "heavyhitter"), zipf_s=1.2, obs=True),
    )
}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    workload: Workload
    world: Any
    t_end: float
    flows: int
    history: Any
    injector: Any = None
    nemesis: Any = None
    suite: Any = None
    sinks: Optional[Dict[str, Any]] = None


#: name -> (module, class, install_nf keyword arguments).
NF_TABLE: Dict[str, Tuple[str, str, Dict[str, Any]]] = {
    "sequencer": ("repro.nf.sequencer", "SequencerNF",
                  {"sequenced_port": 9000, "dataplane": True}),
    "nat": ("repro.nf.nat", "NatNF", {}),
    "ddos": ("repro.nf.ddos", "DdosDetectorNF", {"use_sketch": True}),
    # A threshold no source reaches: detection stays silent, the
    # per-packet EWO counter write is the point.
    "heavyhitter": ("repro.nf.heavyhitter", "HeavyHitterNF", {"threshold": 10**9}),
    "ips": ("repro.nf.ips", "IpsNF", {}),
}


def _nf_class(name: str) -> type:
    module, class_name, _ = NF_TABLE[name]
    return getattr(importlib.import_module(module), class_name)


def _install_nfs(world: Any, names: Tuple[str, ...], operator_until: float) -> None:
    for name in names:
        instances = world.deployment.install_nf(_nf_class(name), **NF_TABLE[name][2])
        if name == "ips":
            _schedule_operator(world.sim, instances[0], operator_until)


def _schedule_operator(sim: Any, ips: Any, until: float) -> None:
    """The IPS operator at the ingress switch: every OPERATOR_PERIOD it
    installs one of 16 signatures, and on the next lap withdraws it —
    ERO writes through the chain from the control plane.  No generated
    packet matches any of them, so the per-packet read path runs
    against a live set and nothing is dropped."""

    def churn(step: int) -> None:
        signature = 0x5EED0000 + step % 16
        if (step // 16) % 2 == 0:
            ips.add_signature(signature)
        else:
            ips.remove_signature(signature)
        if sim.now + OPERATOR_PERIOD < until:
            sim.schedule(OPERATOR_PERIOD, churn, step + 1, label="perf-operator")

    sim.schedule_at(T_START, churn, 0, label="perf-operator")


def _schedule_load(world: Any, workload: Workload, flows: int) -> float:
    """Schedule every packet of every flow; returns when the last is sent."""
    from repro.workload.flows import FlowSpec, inject_flow
    from repro.workload.zipf import ZipfSampler

    rng = world.rng
    window = flows / workload.rate
    arrivals = rng.stream("perf-arrivals")
    starts = sorted(arrivals.uniform(0.0, window) for _ in range(flows))
    pick_client = ZipfSampler(len(world.clients), workload.zipf_s,
                              rng.stream("perf-clients"))
    server_ips = world.server_ips()
    pick_server = ZipfSampler(len(server_ips), workload.zipf_s,
                              rng.stream("perf-servers"))
    for index, offset in enumerate(starts):
        inject_flow(
            world.sim,
            FlowSpec(
                client=pick_client.pick(world.clients),
                dst_ip=pick_server.pick(server_ips),
                dst_port=workload.dst_port,
                src_port=30000 + index,
                data_packets=DATA_PACKETS,
                payload_size=workload.payload,
                inter_packet_gap=PACKET_GAP,
                start_at=T_START + offset,
            ),
        )
    return T_START + window + (DATA_PACKETS + 1) * PACKET_GAP


def _schedule_chaos(scenario: Scenario, seed: int) -> None:
    from repro.chaos import FaultInjector, InvariantSuite, Nemesis

    world = scenario.world
    deployment = world.deployment
    deployment.start_scrubbing()
    scenario.nemesis = Nemesis(
        seed=seed, duplicate_prob=0.05, delay_prob=0.05, max_delay=100e-6
    ).install(world.topo)
    injector = scenario.injector = FaultInjector(deployment, seed=seed)
    forever = scenario.t_end + 1.0
    injector.link_flap(0.0, "ingress", CHAOS_VICTIM, down_for=forever)
    injector.link_flap(0.0, CHAOS_VICTIM, "egress", down_for=forever)
    crash_at = T_START + CHAOS_CRASH_AT
    injector.crash_recover(crash_at, CHAOS_VICTIM, down_for=CHAOS_DOWN_FOR)
    # Fail-stop the acting leader just as the snapshot transfer it
    # started for the recovering switch begins to stream (the F3 soak's
    # leader-kill-mid-repair script).
    kill_at = crash_at + CHAOS_DOWN_FOR + deployment.controller.drain_delay + 30e-6
    injector.crash_leader_for(kill_at, down_for=CHAOS_LEADER_DOWN_FOR)
    cluster = [switch.name for switch in world.cluster]
    mesh = [(a, b) for i, a in enumerate(cluster) for b in cluster[i + 1:]]
    injector.loss_burst(T_START + CHAOS_BURST_AT, CHAOS_BURST_FOR, 0.20, pairs=mesh)
    scenario.suite = InvariantSuite(deployment).start(period=1e-3)


def build(workload: Workload, seed: int, scale: float) -> Scenario:
    from repro.analysis import HistoryRecorder
    from repro.testing import build_nf_world

    class WriteClock(HistoryRecorder):
        """Keeps the interval operations (SRO/ERO writes, initiate to
        ack) and skips the per-read records, which would cost a record
        per packet for a number the benchmark does not report."""

        def record_instant(self, *args: Any, **kwargs: Any) -> None:
            return None

    kwargs: Dict[str, Any] = {}
    sinks = None
    if workload.obs:
        from repro.obs import AccessProfiler, FlightRecorder, MetricsRegistry, SLOMonitor

        slo = SLOMonitor()
        slo.add_objective("sro.write_commit p99 < 5ms over 10ms windows")
        slo.add_objective("sro.write availability >= 0.999 over 10ms windows")
        sinks = {
            "metrics": MetricsRegistry(),
            "flight_recorder": FlightRecorder(),
            "access_profiler": AccessProfiler(),
            "slo_monitor": slo,
        }
        kwargs.update(sinks)
    if workload.chaos:
        kwargs["controller_replicas"] = 3
    world = build_nf_world(seed=seed, cluster_size=3, clients=8, servers=8, **kwargs)
    history = world.deployment.history = WriteClock()
    flows = max(1, round(workload.flows * scale))
    load_end = _schedule_load(world, workload, flows)
    t_end = load_end + DRAIN
    if workload.chaos:
        leader_back = (T_START + CHAOS_CRASH_AT + CHAOS_DOWN_FOR
                       + world.deployment.controller.drain_delay
                       + CHAOS_LEADER_DOWN_FOR)
        t_end = max(t_end, leader_back) + CHAOS_TAIL
    _install_nfs(world, workload.nfs, operator_until=load_end)
    scenario = Scenario(workload, world, t_end, flows, history, sinks=sinks)
    if workload.chaos:
        _schedule_chaos(scenario, seed)
    return scenario


# ----------------------------------------------------------------------
# Reading the results off the public API
# ----------------------------------------------------------------------
def _rank(sorted_values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def tail_percentile(sorted_values: List[float]) -> Tuple[float, float]:
    """(share, value) of the highest percentile, at most p99, that still
    has ten samples beyond it; the median when there are too few."""
    n = len(sorted_values)
    if n < 21:
        return 0.5, _rank(sorted_values, 0.5)
    index = min(math.ceil(0.99 * n) - 1, n - 11)
    return (index + 1) / n, sorted_values[index]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hosts(world: Any) -> List[Any]:
    return list(world.clients) + list(world.servers)


def _ewo_specs(deployment: Any) -> List[Any]:
    from repro import Consistency

    return [
        spec
        for _, spec in sorted(deployment.specs.items())
        if spec.consistency is Consistency.EWO
    ]


def _ewo_converged(deployment: Any, specs: List[Any]) -> bool:
    for spec in specs:
        states = deployment.ewo_states(spec)
        if any(state != states[0] for state in states[1:]):
            return False
    return True


def _sum_groups(summary: Dict[str, Any], levels: Tuple[str, ...]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for group in summary["groups"].values():
        if group["consistency"] in levels:
            for key, value in group["totals"].items():
                totals[key] = totals.get(key, 0) + value
    return totals


def read_counters(scenario: Scenario) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Any]]:
    """(end-to-end sim-clock metrics, per-layer counters, detail) as they
    stand when the timed phase ends."""
    world = scenario.world
    sim = world.sim
    deployment = world.deployment
    hosts = _hosts(world)
    attempted = sum(host.sent_count for host in hosts)
    ops = sum(len(host.received) for host in hosts)

    latencies = sorted(r.latency for server in world.servers for r in server.received)
    tail_share, tail_value = tail_percentile(latencies)

    writes = [
        op for op in scenario.history.operations() if op.kind == "write" and op.complete
    ]
    commits = sorted(op.completed_at - op.invoked_at for op in writes)
    commit_times = sorted(op.completed_at for op in writes)
    commit_tail_share, commit_tail = tail_percentile(commits) if commits else (0.0, 0.0)
    # longest gap between consecutive commits that spans an injected crash
    unavail = 0.0
    for record in scenario.injector.log if scenario.injector else []:
        if record.kind not in ("crash", "controller-crash"):
            continue
        before = [t for t in commit_times if t <= record.at]
        after = [t for t in commit_times if t > record.at]
        if before and after:
            unavail = max(unavail, after[0] - before[-1])

    channels = [c for link in world.topo.links for c in (link.ab, link.ba)]
    wire_bytes = sum(c.stats.bytes_sent for c in channels)
    wire_packets = sum(c.stats.packets_sent for c in channels)
    wire_drops = sum(c.stats.packets_dropped for c in channels)
    # what is left after the delivered packets' own bytes is SwiShmem's
    data_bytes = DATA_PATH_LINKS * sum(
        r.packet.wire_size for host in hosts for r in host.received
    )

    summary = deployment.summary()
    fwd: Dict[str, int] = {}
    for switch in summary["switches"].values():
        for key, value in switch["forwarding"].items():
            fwd[key] = fwd.get(key, 0) + value
    cpu_ops = sum(switch["cpu_ops"] for switch in summary["switches"].values())
    sro = _sum_groups(summary, ("sro", "ero"))
    ewo = _sum_groups(summary, ("ewo",))
    sro_reads = sro.get("local_reads", 0) + sro.get("forwarded_reads", 0)
    controller = deployment.controller
    failures = [f for f in controller.failures if not f.false_positive]
    recoveries = [
        max(r.promoted_at.values()) - r.started_at
        for r in controller.recoveries
        if r.promoted_at
    ]
    scrub = deployment.scrubber.stats.as_dict() if deployment.scrubber else {}

    end_to_end = {
        "pkt_latency_p50_us": _rank(latencies, 0.5) * 1e6,
        "pkt_latency_p99_us": tail_value * 1e6,
        "wire_bytes_per_op": _ratio(wire_bytes, ops),
        "delivered_share": _ratio(ops, attempted),
    }
    layers = {
        "engine.events_per_op": _ratio(sim.events_processed, ops),
        "engine.cancelled_share": _ratio(
            sim.events_cancelled, sim.events_processed + sim.events_cancelled
        ),
        "engine.peak_queue_len": sim.peak_queue_len,
        "engine.compactions": sim.compactions,
        "link.pkts_per_op": _ratio(wire_packets, ops),
        "link.bytes_per_op": _ratio(wire_bytes, ops),
        "link.repl_bytes_per_op": _ratio(wire_bytes - data_bytes, ops),
        "link.drop_share": _ratio(wire_drops, wire_packets),
        "pisa.rx_per_op": _ratio(fwd["rx_packets"], ops),
        "pisa.punt_share": _ratio(fwd["punted_packets"], fwd["rx_packets"]),
        "pisa.recirc_per_op": _ratio(fwd["recirculated_packets"], ops),
        "pisa.cpu_ops_per_op": _ratio(cpu_ops, ops),
        "pisa.queue_drops": fwd["queue_drops"],
        "manager.state_ops_per_op": _ratio(
            sro_reads + sro.get("writes_initiated", 0)
            + ewo.get("local_reads", 0) + ewo.get("local_writes", 0),
            ops,
        ),
        "sro.writes_committed": sro.get("writes_committed", 0),
        "sro.writes_failed": sro.get("writes_failed", 0),
        "sro.msgs_per_commit": _ratio(
            sro.get("chain_updates_seen", 0) + sro.get("acks_seen", 0),
            sro.get("writes_committed", 0),
        ),
        "sro.retry_share": _ratio(sro.get("retries", 0), sro.get("writes_initiated", 0)),
        "sro.fwd_read_share": _ratio(sro.get("forwarded_reads", 0), sro_reads),
        "sro.dup_update_share": _ratio(
            sro.get("duplicate_updates", 0), sro.get("chain_updates_seen", 0)
        ),
        "sro.reorder_stashed": sro.get("reorder_stashed", 0),
        "sro.commit_p50_us": (_rank(commits, 0.5) * 1e6) if commits else 0.0,
        "sro.commit_p99_us": commit_tail * 1e6,
        "ewo.local_writes": ewo.get("local_writes", 0),
        "ewo.update_pkts_per_write": _ratio(
            ewo.get("update_packets_sent", 0), ewo.get("local_writes", 0)
        ),
        "ewo.stale_merge_share": _ratio(
            ewo.get("merges_stale", 0), ewo.get("updates_received", 0)
        ),
        "ewo.sync_entries_per_op": _ratio(ewo.get("sync_entries_sent", 0), ops),
        "controller.heartbeats": controller.heartbeats_received,
        "controller.failures_detected": len(failures),
        "controller.detect_max_us": max(
            (f.detection_latency for f in failures), default=0.0
        ) * 1e6,
        "controller.leader_changes": controller.leader_changes,
        "controller.recoveries": len(controller.recoveries),
        "controller.recovery_max_ms": max(recoveries, default=0.0) * 1e3,
        "controller.unavail_max_ms": unavail * 1e3,
        "antientropy.rounds": scrub.get("rounds_started", 0),
        "antientropy.repairs": scrub.get("repairs_sent", 0),
        "antientropy.mgmt_bytes": scrub.get("mgmt_bytes", 0),
    }
    detail = {
        "attempted": attempted,
        "delivered": ops,
        "pkt_latency_samples": len(latencies),
        "pkt_latency_tail_share": tail_share,
        "sro_commit_samples": len(commits),
        "sro_commit_tail_share": commit_tail_share,
    }
    return end_to_end, layers, detail


def send_marker(scenario: Scenario) -> Dict[str, float]:
    """Send one lone packet into the quiet network and step the
    simulator, event time by event time, until it is delivered and every
    EWO group's replicas are identical again."""
    from repro import TcpFlags, make_tcp_packet

    world = scenario.world
    sim = world.sim
    deployment = world.deployment
    specs = _ewo_specs(deployment)
    quiet = _ewo_converged(deployment, specs)
    client, server = world.clients[0], world.servers[0]
    before = len(server.received)
    sent_at = sim.now
    # A bare ACK: the responder does not answer it, so this is the last
    # packet any host injects.
    client.inject(
        make_tcp_packet(
            src_ip=client.ip,
            dst_ip=server.ip,
            src_port=29999,
            dst_port=scenario.workload.dst_port,
            flags=TcpFlags.ACK,
            payload_size=0,
        )
    )
    deadline = sent_at + MARKER_HORIZON
    done_at = None
    while True:
        if len(server.received) > before and _ewo_converged(deployment, specs):
            done_at = sim.now
            break
        upcoming = sim.peek_time()
        if upcoming is None or upcoming > deadline:
            break
        sim.run(until=upcoming)
    return {
        "quiet_before": float(quiet),
        "settled": float(done_at is not None),
        "latency_us": (done_at - sent_at) * 1e6 if done_at is not None else 0.0,
        "ewo_groups": len(specs),
    }


def sim_digest(scenario: Scenario, metrics: Dict[str, float]) -> str:
    """sha256 over everything a faster simulator must leave identical."""
    world = scenario.world
    deployment = world.deployment
    ewo = _ewo_specs(deployment)
    groups = []
    for _, spec in sorted(deployment.specs.items()):
        stores = deployment.ewo_states(spec) if spec in ewo else deployment.sro_stores(spec)
        groups.append((
            spec.name,
            [sorted((repr(k), repr(v)) for k, v in store.items()) for store in stores],
        ))
    material = (
        world.sim.events_processed,
        [(h.name, h.sent_count, len(h.received)) for h in _hosts(world)],
        groups,
        repr(scenario.injector.log_digest()) if scenario.injector else "",
        sorted((name, repr(value)) for name, value in metrics.items()),
    )
    return hashlib.sha256(repr(material).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
def calibrate() -> float:
    """CPU-seconds this process needs, right now, for a fixed kernel of
    heap pushes and pops and dict updates (the simulator's own mix).

    On a shared VM, machine-wide slowdowns that last seconds move a run
    by a quarter.  They move this kernel with it, so host times are
    reported in *calibrated* seconds: the set-up's and each slice's
    measured seconds times CALIBRATION_NOMINAL_S over the mean of the
    kernel's time just before and just after it.  A change to ``src/``
    cannot touch the kernel."""
    started = time.process_time()
    heap: List[Tuple[int, int]] = []
    counts: Dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    for step in range(CALIBRATION_STEPS):
        push(heap, (step * 7919 % 10007, step))
        counts[step % 997] = counts.get(step % 997, 0) + 1
        if len(heap) > 512:
            pop(heap)
    return time.process_time() - started


def run_timed(sim: Any, t_end: float, tracer: Any,
              profile: Any) -> Tuple[List[float], float, float]:
    """The timed phase.  Returns the kernel's times around the slices
    and the phase's CPU-seconds, as measured and calibrated."""
    calibrations = [calibrate()]
    raw_s = calibrated_s = 0.0
    for piece in range(1, SLICES + 1):
        if tracer is not None:
            tracer.start(sim)
        if profile is not None:
            profile.enable()
        started = time.process_time()
        sim.run(until=t_end * piece / SLICES)
        elapsed = time.process_time() - started
        if profile is not None:
            profile.disable()
        if tracer is not None:
            tracer.stop(sim)
        calibrations.append(calibrate())
        raw_s += elapsed
        calibrated_s += elapsed * CALIBRATION_NOMINAL_S / (sum(calibrations[-2:]) / 2)
    return calibrations, raw_s, calibrated_s


def _load_tracer() -> Any:
    """perf/trace.py, loaded by path: imported by name it would shadow
    the standard library's ``trace`` for the whole process."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace.py")
    spec = importlib.util.spec_from_file_location("perf_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def measure(name: str, seed: int, scale: float, mode: str,
            ledger: Optional[str]) -> Dict[str, Any]:
    """Run one workload once.

    ``mode`` is ``plain`` (what every end-to-end number comes from),
    ``spans`` (boundary spans from ``perf/trace.py``), ``calls``
    (cProfile, for the exactly repeating call count) or ``setup`` (one
    more set-up time, nothing run).
    """
    src = os.path.join(REPO, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perf: no repro package under {src}")
    sys.path.insert(0, src)
    workload = WORKLOADS[name]
    calibration_first = calibrate()

    tracer = None
    if mode == "spans":
        for nf in workload.nfs:
            _nf_class(nf)  # subclasses must exist before they can be wrapped
        tracer = _load_tracer()
        tracer.install()
    scenario = build(workload, seed, scale)
    sim = scenario.world.sim
    setup_raw_s = time.process_time() - calibration_first

    profile = None
    if mode == "calls":
        import cProfile

        profile = cProfile.Profile()
    gc.collect()
    if mode == "setup":
        around = (calibration_first + calibrate()) / 2
        return {"workload": name, "seed": seed, "mode": mode,
                "host": {"setup_s": setup_raw_s * CALIBRATION_NOMINAL_S / around,
                         "raw_setup_s": setup_raw_s}}
    calibrations, run_raw_s, run_s = run_timed(sim, scenario.t_end, tracer, profile)
    setup_s = setup_raw_s * CALIBRATION_NOMINAL_S / ((calibration_first + calibrations[0]) / 2)

    end_to_end, layers, detail = read_counters(scenario)
    marker = send_marker(scenario)
    layers["ewo.converge_us"] = marker["latency_us"] if marker["ewo_groups"] else 0.0
    report = scenario.suite.finalize() if scenario.suite is not None else None
    layers["chaos.invariant_violations"] = len(report.violations) if report else 0
    detail.update(
        marker=marker,
        invariant_checks=sum(report.checks.values()) if report else 0,
        violations=[str(v) for v in report.violations] if report else [],
        faults=[str(r) for r in scenario.injector.log] if scenario.injector else [],
        nemesis=scenario.nemesis.counters() if scenario.nemesis else {},
    )
    if scenario.sinks is not None:
        detail["sinks"] = {
            "metrics_instruments": len(scenario.sinks["metrics"]),
            "flight_spans": scenario.sinks["flight_recorder"].recorded,
            "access_events": scenario.sinks["access_profiler"].events,
            "slo_samples": scenario.sinks["slo_monitor"].samples,
        }
    ops = detail["delivered"]
    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "mode": mode,
        "flows": scenario.flows,
        "sim_seconds": scenario.t_end,
        "attempted": detail["attempted"],
        "delivered": ops,
        "end_to_end": end_to_end,
        "layers": layers,
        "detail": detail,
        "digest": sim_digest(scenario, {**end_to_end, **layers}),
        "host": {
            "setup_s": setup_s,
            "run_host_s": run_s,
            "ops_per_host_s": ops / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "raw_setup_s": setup_raw_s,
            "raw_run_host_s": run_raw_s,
            "calibration_s": calibrations,
        },
    }
    if profile is not None:
        import pstats

        result["py_calls"] = pstats.Stats(profile).total_calls
    if tracer is not None:
        result["trace"] = tracer.ledger()
        if ledger:
            tracer.write(ledger, {
                "workload": name, "seed": seed, "scale": scale,
                "sim_digest": result["digest"], "ops": ops,
                "ledger": result["trace"],
            })
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=("plain", "spans", "calls", "setup"), default="plain")
    parser.add_argument("--ledger", default=None)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.scale, args.mode, args.ledger)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
