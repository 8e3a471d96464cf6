"""[T2] Consistency advisor: re-derive Table 1 from live traffic alone.

Experiment T1 reproduces the paper's Table 1 with the *post-hoc* profiler
in ``repro.core.compiler``, which still needs the operator to hand it
each state's consistency requirement.  This experiment closes that loop:
the six NFs run under a Zipf-skewed workload with the streaming
:class:`~repro.obs.accessprof.AccessProfiler` attached to the protocol
hot paths, and :class:`~repro.obs.advisor.ConsistencyAdvisor` must
recover every Table 1 row — write frequency, read frequency, *and* the
register type each NF was built with — from observed traffic with zero
hand labels.

Also asserted:

* **advice, not just agreement** — a per-source meter deliberately
  *misdeclared* as SRO is flagged as a high-confidence mismatch with an
  SRO -> EWO demotion recommendation (the docs/OBSERVABILITY.md worked
  example);
* **observer neutrality** — a same-seed NF run and a same-seed chaos
  soak are byte-identical (event-history digests) with the profiler on
  and off: profiling never perturbs what it measures;
* **skew visibility** — the Zipf drive's heavy hitters surface in the
  deployment-wide hot-key ranking (the input state migration needs).

Run standalone::

    python benchmarks/bench_access_advisor.py [--quick]
"""

from __future__ import annotations

import hashlib
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

import pytest

# Resolve imports relative to this file, not the caller's CWD.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.core.manager import Decision, PacketContext
from repro.core.registers import Consistency, RegisterSpec
from repro.nf.base import NetworkFunction
from repro.nf.ddos import DdosDetectorNF
from repro.nf.firewall import FirewallNF
from repro.nf.ips import IpsNF
from repro.nf.loadbalancer import LoadBalancerNF
from repro.nf.nat import NatNF
from repro.nf.ratelimiter import RateLimiterNF
from repro.obs import AccessProfiler, ConsistencyAdvisor, render_access_profile
from repro.workload.flows import FlowSpec, inject_flow
from repro.workload.zipf import ZipfSampler

from benchmarks.bench_chaos_soak import run_chaos_soak
from benchmarks.common import emit_json, print_header, print_table
from repro.testing import build_nf_world

VIP = "100.0.0.100"
NAT_IP = "100.0.0.1"

#: Paper Table 1, transcribed: state -> (write freq, read freq).  The
#: advisor must reproduce these labels AND the register type below from
#: traffic alone (T1's NEEDS_STRONG hand labels are deliberately absent).
PAPER_TABLE1 = {
    "nat_table": ("New connection", "Every packet"),
    "fw_conntrack": ("New connection", "Every packet"),
    "ips_signatures": ("Low", "Every packet"),
    "lb_connections": ("New connection", "Every packet"),
    "ddos_src": ("Every packet", "Every packet"),
    "ddos_dst": ("Every packet", "Every packet"),
    "rl_usage": ("Every packet", "Every window"),
}

#: Register type each NF was built with (section 5 mapping).
EXPECTED_CLASS = {
    "nat_table": "sro",
    "fw_conntrack": "sro",
    "ips_signatures": "ero",
    "lb_connections": "sro",
    "ddos_src": "ewo",
    "ddos_dst": "ewo",
    "rl_usage": "ewo",
}


# ----------------------------------------------------------------------
# Zipf-skewed drive
# ----------------------------------------------------------------------

def _drive_zipf_flows(world, flows=30, data_packets=6, dst_ips=None, gap=2e-3, s=1.2):
    """Drive TCP flows with Zipf-skewed clients and destinations.

    :class:`~repro.workload.flows.FlowGenerator` picks both uniformly;
    real traffic is heavy-hitter skewed, and the skew is what makes the
    profiler's hot-key ranking non-trivial.  The 2 ms default gap models
    a client that waits out the handshake RTT, as in T1.
    """
    rng = world.rng.stream("zipf-flows")
    destinations = list(dst_ips or world.server_ips())
    client_picker = ZipfSampler(len(world.clients), s=s, rng=rng)
    dst_picker = ZipfSampler(len(destinations), s=s, rng=rng)
    at = world.sim.now
    port = 31000
    for _ in range(flows):
        at += rng.expovariate(4000.0)
        port += 1
        inject_flow(
            world.sim,
            FlowSpec(
                client=client_picker.pick(world.clients),
                dst_ip=dst_picker.pick(destinations),
                src_port=port,
                data_packets=data_packets,
                inter_packet_gap=gap,
                start_at=at,
            ),
        )
    world.sim.run(until=0.2)


class MeterSroNF(NetworkFunction):
    """A per-source packet meter deliberately *misdeclared* as SRO.

    Every packet updates its source's counter through the replication
    chain — exactly the pattern Observation 2 says cannot afford SRO.
    The advisor must flag the declaration and recommend EWO.
    """

    NAME = "meter-sro"

    @classmethod
    def build_specs(cls, **kwargs: Any) -> List[RegisterSpec]:
        return [RegisterSpec("meter_usage", Consistency.SRO, capacity=4096)]

    def process(self, ctx: PacketContext) -> Decision:
        flow = self.flow_of(ctx)
        if flow is None:
            return self.forward()
        handle = self.handles["meter_usage"]
        handle.write(flow.src_ip, (handle.read(flow.src_ip) or 0) + 1)
        return self.forward()


# ----------------------------------------------------------------------
# Neutrality digests
# ----------------------------------------------------------------------

def _world_digest(world, state_names: Sequence[str]) -> str:
    """Event-history digest of an NF world run: kernel event count, every
    host's injection count, and the named groups' replica states."""
    stores = []
    for name in state_names:
        spec = world.deployment.spec_by_name(name)
        if spec.consistency is Consistency.EWO:
            replicas = world.deployment.ewo_states(spec)
        else:
            replicas = world.deployment.sro_stores(spec)
        stores.append(
            tuple(
                tuple(sorted(replica.items(), key=lambda kv: repr(kv[0])))
                for replica in replicas
            )
        )
    history = (
        world.sim.events_processed,
        tuple(h.sent_count for h in world.clients + world.servers),
        tuple(stores),
    )
    return hashlib.sha256(repr(history).encode("utf-8")).hexdigest()


def _neutrality_check(seed: int = 4242) -> Dict[str, Any]:
    """Same seed, profiler off vs on: the digests must match exactly."""

    def run(**kwargs):
        world = build_nf_world(seed=seed, **kwargs)
        world.deployment.install_nf(FirewallNF)
        _drive_zipf_flows(world)
        return world

    baseline = _world_digest(run(), ["fw_conntrack"])
    profiler = AccessProfiler()
    instrumented_world = run(access_profiler=profiler)
    instrumented = _world_digest(instrumented_world, ["fw_conntrack"])

    chaos_baseline = run_chaos_soak(1, duration=0.08)
    chaos_instrumented = run_chaos_soak(
        1, duration=0.08, access_profiler=AccessProfiler()
    )
    return {
        "nf_digest": baseline,
        "nf_digest_instrumented": instrumented,
        "nf_match": baseline == instrumented,
        "profiler_events": profiler.events,
        "chaos_digest": chaos_baseline.digest,
        "chaos_digest_instrumented": chaos_instrumented.digest,
        "chaos_match": chaos_baseline.digest == chaos_instrumented.digest,
    }


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------

@dataclass
class AdvisorResult:
    rows: List[Dict[str, Any]]            # advice for every profiled group
    hot_keys: List[Dict[str, Any]]        # deployment-wide ranking (DDoS world)
    demotion: Dict[str, Any]              # the misdeclared-meter advice
    neutrality: Dict[str, Any]
    packets: Dict[str, int] = field(default_factory=dict)
    sample_report: Dict[str, Any] = field(default_factory=dict)


def run_experiment(quick: bool = False) -> AdvisorResult:
    flows = 15 if quick else 30
    rows: List[Dict[str, Any]] = []
    packets_by_nf: Dict[str, int] = {}
    hot_keys: List[Dict[str, Any]] = []
    sample_report: Dict[str, Any] = {}

    def profile(label, install, drive, responders=True, keep_hot_keys=False):
        profiler = AccessProfiler()
        world = build_nf_world(
            seed=2000 + len(packets_by_nf),
            responder_servers=responders,
            access_profiler=profiler,
        )
        install(world)
        drive(world)
        # Denominator: data packets the hosts actually injected (replies
        # included), not per-hop or replication receives.
        packets = sum(h.sent_count for h in world.clients + world.servers)
        packets_by_nf[label] = packets
        advisor = ConsistencyAdvisor(profiler, packets=packets)
        rows.extend(a.as_dict() for a in advisor.advise())
        if keep_hot_keys:
            hot_keys.extend(advisor.hot_keys(limit=8))
            sample_report.update(advisor.report(hot_keys=8))

    profile(
        "NAT",
        lambda w: (w.book.register(NAT_IP, "egress"),
                   w.deployment.install_nf(NatNF, nat_ip=NAT_IP)),
        lambda w: _drive_zipf_flows(w, flows=flows),
    )
    profile(
        "Firewall",
        lambda w: w.deployment.install_nf(FirewallNF),
        lambda w: _drive_zipf_flows(w, flows=flows),
    )

    def drive_ips(world):
        ips = world.deployment.managers[world.ingress.name].nfs[0]
        ips.add_signature(0xBAD)  # the rare control-plane write
        _drive_zipf_flows(world, flows=flows)

    profile(
        "IPS",
        lambda w: w.deployment.install_nf(IpsNF),
        drive_ips,
        responders=False,
    )
    profile(
        "L4 load-balancer",
        lambda w: (w.book.register(VIP, "egress"),
                   w.deployment.install_nf(
                       LoadBalancerNF, vip=VIP,
                       dips=["192.168.0.1", "192.168.0.2"])),
        lambda w: _drive_zipf_flows(w, flows=flows, dst_ips=[VIP]),
        responders=False,
    )
    profile(
        "DDoS detection",
        lambda w: w.deployment.install_nf(DdosDetectorNF),
        lambda w: _drive_zipf_flows(w, flows=flows),
        responders=False,
        keep_hot_keys=True,
    )
    profile(
        "Rate limiter",
        # the enforcement window is long relative to the packet rate, so
        # meter reads are measured as per-window, not per-packet
        lambda w: w.deployment.install_nf(RateLimiterNF, limit_bps=1e9, window=20e-3),
        lambda w: _drive_zipf_flows(w, flows=flows, gap=100e-6),
        responders=False,
    )

    # The worked example: a write-per-packet meter misdeclared as SRO.
    demotion_profiler = AccessProfiler()
    world = build_nf_world(
        seed=2100, responder_servers=False, access_profiler=demotion_profiler
    )
    world.deployment.install_nf(MeterSroNF)
    _drive_zipf_flows(world, flows=flows, gap=100e-6)
    demotion_packets = sum(h.sent_count for h in world.clients + world.servers)
    demotion = ConsistencyAdvisor(
        demotion_profiler, packets=demotion_packets
    ).advice_for("meter_usage").as_dict()

    return AdvisorResult(
        rows=rows,
        hot_keys=hot_keys,
        demotion=demotion,
        neutrality=_neutrality_check(),
        packets=packets_by_nf,
        sample_report=sample_report,
    )


def report(result: AdvisorResult) -> None:
    print_header(
        "T2",
        "Consistency advisor: Table 1 re-derived from live traffic",
        "the streaming profiler recovers every NF's write/read frequency "
        "and register type with zero hand labels",
    )
    print_table(
        ["State", "NF", "Write freq", "Read freq", "Pattern",
         "Declared", "Advised", "Confidence"],
        [
            (r["name"], r["nf"] or "-", r["write_freq"], r["read_freq"],
             r["pattern"], r["declared"].upper(), r["recommended"].upper(),
             r["confidence"])
            for r in result.rows
        ],
    )
    d = result.demotion
    print(
        f"misdeclared meter: {d['name']} declared {d['declared'].upper()} "
        f"-> advised {d['recommended'].upper()} "
        f"({d['writes_per_packet']:.2f} writes/pkt, "
        f"confidence {d['confidence']})"
    )
    n = result.neutrality
    print(
        f"observer neutrality: NF digest match={n['nf_match']} "
        f"({n['profiler_events']} profiler events), "
        f"chaos digest match={n['chaos_match']}"
    )
    if result.sample_report:
        print()
        print(render_access_profile(result.sample_report, title="DDoS world"))


def check_result(result: AdvisorResult) -> None:
    by_state = {r["name"]: r for r in result.rows}
    for state, (write_freq, read_freq) in PAPER_TABLE1.items():
        advice = by_state[state]
        assert advice["write_freq"] == write_freq, (
            f"{state}: write freq {advice['write_freq']!r} != {write_freq!r}"
        )
        assert advice["read_freq"] == read_freq, (
            f"{state}: read freq {advice['read_freq']!r} != {read_freq!r}"
        )
        assert advice["recommended"] == EXPECTED_CLASS[state], (
            f"{state}: advised {advice['recommended']} != {EXPECTED_CLASS[state]}"
        )
        assert advice["confidence"] == "high", f"{state}: low confidence"
        assert not advice["mismatch"], f"{state}: spurious mismatch"
    # The misdeclared meter is caught with an SRO -> EWO demotion.
    assert result.demotion["declared"] == "sro"
    assert result.demotion["recommended"] == "ewo"
    assert result.demotion["mismatch"] and result.demotion["confidence"] == "high"
    # Profiling never perturbs what it measures.
    assert result.neutrality["nf_match"], "profiler perturbed the NF world"
    assert result.neutrality["profiler_events"] > 0
    assert result.neutrality["chaos_match"], "profiler perturbed the chaos soak"
    # The Zipf drive's heavy hitters surface in the hot-key ranking.
    assert result.hot_keys, "no hot keys ranked"
    accesses = [k["reads"] + k["writes"] + k["tail_estimate"] for k in result.hot_keys]
    assert accesses == sorted(accesses, reverse=True)


@pytest.mark.benchmark(group="experiment")
def test_advisor_rederives_table1(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(result)
    check_result(result)


@pytest.mark.benchmark(group="advisor")
def test_benchmark_access_advisor(benchmark):
    benchmark.pedantic(lambda: run_experiment(quick=True), rounds=1, iterations=1)


def main(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="halve the flow count per NF world",
    )
    args = parser.parse_args(argv)
    result = run_experiment(quick=args.quick)
    report(result)
    try:
        check_result(result)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    emit_json(
        "T2",
        "Consistency advisor re-derives Table 1 from live traffic",
        result,
    )
    print("T2: advisor reproduced Table 1 from traffic alone (zero hand labels)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
