#!/usr/bin/env python
"""The "one big switch" abstraction end to end (paper sections 5 and 9).

Writes a *single-switch* program — it declares registers and processes
packets with no notion of replication — and lets the compiler layer
distribute it across a fabric.  Then uses the streaming access profiler
and the consistency advisor to reproduce the paper's register-type
analysis: measure each register's access pattern and check that the
advisor picks the type the program's author chose.

Run:  python examples/one_big_switch.py
"""

from repro import (
    Consistency,
    Decision,
    EwoMode,
    PisaSwitch,
    RegisterSpec,
    SeededRng,
    SingleSwitchProgram,
    Simulator,
    SwiShmemDeployment,
    Topology,
    build_full_mesh,
    distribute,
)
from repro.net.endhost import AddressBook, EndHost
from repro.net.packet import make_udp_packet
from repro.obs import AccessProfiler, ConsistencyAdvisor


class FlowAuditor(SingleSwitchProgram):
    """A toy NF written for one logical switch.

    Tracks per-flow first-seen records (strong: a flow must not be
    'new' on two switches) and per-source packet counters (weak:
    volume statistics tolerate approximation).
    """

    def registers(self):
        return [
            RegisterSpec("first_seen", Consistency.SRO, capacity=1024),
            RegisterSpec(
                "volume", Consistency.EWO, ewo_mode=EwoMode.COUNTER, capacity=1024
            ),
        ]

    def process(self, ctx, handles):
        packet = ctx.packet
        flow = packet.five_tuple()
        if flow is None:
            return Decision.forward()
        handles["volume"].increment(packet.ipv4.src, packet.wire_size)
        if handles["first_seen"].read(flow.as_tuple()) is None:
            handles["first_seen"].write(flow.as_tuple(), ctx.now)
        return Decision.forward()


def main() -> None:
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed=5))
    book = AddressBook()
    switches = build_full_mesh(topo, lambda name: PisaSwitch(name, sim), 3)
    hosts = []
    for i, switch in enumerate(switches):
        host = topo.add_node(EndHost(f"h{i}", sim, f"10.0.0.{i + 1}", book))
        topo.connect(host.name, switch.name)
        hosts.append(host)
    profiler = AccessProfiler()
    deployment = SwiShmemDeployment(
        sim, topo, switches, address_book=book, access_profiler=profiler
    )

    # One call distributes the single-switch program everywhere.
    adapters = distribute(FlowAuditor, deployment)
    print(f"distributed FlowAuditor onto {len(adapters)} switches\n")

    # traffic between all host pairs, entering at different switches
    count = 0
    for round_index in range(20):
        for src in hosts:
            for dst in hosts:
                if src is dst:
                    continue
                count += 1
                sim.schedule(
                    round_index * 1e-3 + count * 7e-6,
                    lambda s=src, d=dst: s.inject(
                        make_udp_packet(s.ip, d.ip, 40000 + count % 7, 443, payload_size=120)
                    ),
                )
    sim.run(until=0.05)
    injected = sum(h.sent_count for h in hosts)

    volume_spec = deployment.spec_by_name("volume")
    first_seen_spec = deployment.spec_by_name("first_seen")
    merged = deployment.managers["s0"].ewo.local_state(volume_spec.group_id)
    table = deployment.sro_stores(first_seen_spec)[0]
    print(f"injected {injected} packets; "
          f"{len(table)} distinct flows recorded (strong table), "
          f"volume tracked for {len(merged)} sources (weak counters)\n")

    print("access-pattern analysis (the Table 1 method):")
    for advice in ConsistencyAdvisor(profiler, packets=injected).advise():
        verdict = "DIFFERS" if advice.mismatch else "matches author's choice"
        print(f"  {advice.name:<12} writes: {advice.write_freq:<15} "
              f"reads: {advice.read_freq:<13} -> recommend "
              f"{advice.recommended.upper()} ({verdict})")


if __name__ == "__main__":
    main()
