"""[T1] Table 1 reproduction: NF access patterns and consistency needs.

Paper Table 1 classifies six NFs by write frequency, read frequency, and
consistency requirement.  This experiment *measures* those columns: each
NF runs on a 3-switch SwiShmem cluster under a representative workload,
the streaming access profiler (``repro.obs.accessprof``) counts reads
and writes on every shared register group, and the consistency advisor
(``repro.obs.advisor``, the paper's Observations 1 and 2) must reproduce
the register type each NF was built with.  T2
(``bench_access_advisor.py``) repeats this under Zipf-skewed flows and
gates the result as a sidecar.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict, List

import pytest

# Resolve imports relative to this file, not the caller's CWD.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.core.registers import Consistency
from repro.net.headers import TcpFlags
from repro.net.packet import make_tcp_packet, make_udp_packet
from repro.nf.ddos import DdosDetectorNF
from repro.nf.firewall import FirewallNF
from repro.nf.ips import IpsNF
from repro.nf.loadbalancer import LoadBalancerNF
from repro.nf.nat import NatNF
from repro.nf.ratelimiter import RateLimiterNF
from repro.obs import AccessProfiler, ConsistencyAdvisor
from repro.workload.flows import FlowGenerator

from benchmarks.common import print_header, print_table
from repro.testing import build_nf_world

VIP = "100.0.0.100"

#: Paper Table 1, transcribed: state -> (write freq, read freq, consistency).
PAPER_TABLE1 = {
    "nat_table": ("New connection", "Every packet", "Strong"),
    "fw_conntrack": ("New connection", "Every packet", "Strong"),
    "ips_signatures": ("Low", "Every packet", "Weak"),
    "lb_connections": ("New connection", "Every packet", "Strong"),
    "ddos_src": ("Every packet", "Every packet", "Weak"),
    "ddos_dst": ("Every packet", "Every packet", "Weak"),
    "rl_usage": ("Every packet", "Every window", "Weak"),
}

#: Register type each NF was built with (section 5 mapping).
EXPECTED_TYPE = {
    "nat_table": Consistency.SRO,
    "fw_conntrack": Consistency.SRO,
    "ips_signatures": Consistency.ERO,
    "lb_connections": Consistency.SRO,
    "ddos_src": Consistency.EWO,
    "ddos_dst": Consistency.EWO,
    "rl_usage": Consistency.EWO,
}


@dataclass
class Table1Row:
    nf: str
    state: str
    write_freq: str
    read_freq: str
    required: str
    recommended: Consistency


def _drive_flows(world, flows=25, data_packets=6, dst_ips=None, gap=2e-3):
    """Drive TCP flows.  The default inter-packet gap (2 ms) models a
    client that waits out the handshake RTT before sending data — data
    packets must not race the connection-establishing chain write, or
    every one of them would look like a new connection to the NF."""
    generator = FlowGenerator(
        world.sim,
        world.clients,
        dst_ips or world.server_ips(),
        world.rng,
        flow_rate=4000,
        data_packets=data_packets,
        inter_packet_gap=gap,
    )
    generator.start(duration=flows / 4000)
    world.sim.run(until=0.2)
    return generator


def run_experiment() -> List[Table1Row]:
    rows: List[Table1Row] = []

    nf_state_names = {
        "NAT": ("nat_table",),
        "Firewall": ("fw_conntrack",),
        "IPS": ("ips_signatures",),
        "L4 load-balancer": ("lb_connections",),
        "DDoS detection": ("ddos_src", "ddos_dst"),
        "Rate limiter": ("rl_usage",),
    }

    def profile(nf_label, install, drive, responders=True):
        profiler = AccessProfiler()
        world = build_nf_world(
            seed=1000 + len(rows),
            responder_servers=responders,
            access_profiler=profiler,
        )
        install(world)
        drive(world)
        # Denominator: data packets the hosts actually injected (replies
        # included), not per-hop or replication receives.
        data_packets = sum(h.sent_count for h in world.clients + world.servers)
        advisor = ConsistencyAdvisor(profiler, packets=data_packets)
        for state_name in nf_state_names[nf_label]:
            advice = advisor.advice_for(state_name)
            rows.append(
                Table1Row(
                    nf=nf_label,
                    state=state_name,
                    write_freq=advice.write_freq,
                    read_freq=advice.read_freq,
                    # Table 1's last column, inferred: only the state the
                    # advisor sends down the pending-bit chain needs it.
                    required="Strong" if advice.recommended == "sro" else "Weak",
                    recommended=Consistency(advice.recommended),
                )
            )

    profile(
        "NAT",
        lambda w: (w.book.register("100.0.0.1", "egress"),
                   w.deployment.install_nf(NatNF, nat_ip="100.0.0.1")),
        lambda w: _drive_flows(w),
    )
    profile(
        "Firewall",
        lambda w: w.deployment.install_nf(FirewallNF),
        lambda w: _drive_flows(w),
    )

    def drive_ips(world):
        instances = world.deployment.managers[world.ingress.name].nfs
        ips = instances[0]
        ips.add_signature(0xBAD)  # the rare control-plane write
        _drive_flows(world)

    profile(
        "IPS",
        lambda w: w.deployment.install_nf(IpsNF),
        drive_ips,
        responders=False,
    )
    profile(
        "L4 load-balancer",
        lambda w: (w.book.register(VIP, "egress"),
                   w.deployment.install_nf(LoadBalancerNF, vip=VIP, dips=["192.168.0.1", "192.168.0.2"])),
        lambda w: _drive_flows(w, dst_ips=[VIP]),
        responders=False,
    )
    profile(
        "DDoS detection",
        lambda w: w.deployment.install_nf(DdosDetectorNF),
        lambda w: _drive_flows(w),
        responders=False,
    )
    profile(
        "Rate limiter",
        # the enforcement window is long relative to the packet rate, so
        # meter reads are measured as per-window, not per-packet
        lambda w: w.deployment.install_nf(RateLimiterNF, limit_bps=1e9, window=20e-3),
        lambda w: _drive_flows(w, gap=100e-6),
        responders=False,
    )
    return rows


def report(rows: List[Table1Row]) -> None:
    print_header(
        "T1",
        "Table 1: NFs classified by access pattern and consistency",
        "NAT/FW/LB: write on new connection, read every packet, strong; "
        "IPS: low writes, weak; DDoS/rate limiter: write every packet, weak",
    )
    print_table(
        ["NF", "State", "Write freq (measured)", "Read freq (measured)",
         "Consistency", "SwiShmem type"],
        [(r.nf, r.state, r.write_freq, r.read_freq, r.required,
          r.recommended.value.upper()) for r in rows],
    )


@pytest.mark.benchmark(group="experiment")
def test_table1_shape_matches_paper(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(rows)
    by_state = {r.state: r for r in rows}
    for state, (write_freq, read_freq, consistency) in PAPER_TABLE1.items():
        row = by_state[state]
        assert row.write_freq == write_freq, f"{state}: write freq {row.write_freq} != {write_freq}"
        assert row.read_freq == read_freq, f"{state}: read freq {row.read_freq} != {read_freq}"
        assert row.required == consistency
        assert row.recommended == EXPECTED_TYPE[state], (
            f"{state}: recommended {row.recommended} != {EXPECTED_TYPE[state]}"
        )


@pytest.mark.benchmark(group="table1")
def test_benchmark_table1(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)
