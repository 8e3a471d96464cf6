"""Edge cases across the stack: resource exhaustion, double failures,
clock skew, degenerate deployments."""

from __future__ import annotations

import pytest

from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.headers import TcpFlags
from repro.net.packet import make_tcp_packet
from repro.nf.nat import NatNF

from repro.testing import build_nf_world


class TestNatPortExhaustion:
    def test_connections_dropped_when_pool_exhausted(self):
        world = build_nf_world(seed=7, cluster_size=1, clients=1, servers=1)
        world.book.register("100.0.0.1", "egress")
        nats = world.deployment.install_nf(NatNF, nat_ip="100.0.0.1")
        # shrink every instance's local range to 3 ports
        for nat in nats:
            nat._port_limit = nat._next_port + 3
        client, server = world.clients[0], world.servers[0]
        for i in range(6):
            world.sim.schedule(
                i * 2e-3,
                lambda p=2000 + i: client.inject(
                    make_tcp_packet(client.ip, server.ip, p, 80, flags=TcpFlags.SYN)
                ),
            )
        world.sim.run(until=0.1)
        # the first NF switch (ingress) exhausts its 3 ports; further
        # SYNs are dropped rather than mis-translated
        syns_delivered = sum(
            1 for r in server.received if r.packet.tcp.flags & TcpFlags.SYN
        )
        assert syns_delivered == 3
        assert sum(n.stats.dropped for n in nats) == 3


class TestDoubleFailure:
    def test_chain_survives_two_sequential_failures(self, make_deployment):
        dep, _, _ = make_deployment(4)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "a", 1)
        dep.sim.run(until=0.02)
        for victim in ("s1", "s2"):
            dep.controller.note_failure_time(victim)
            dep.fail_switch(victim)
            dep.sim.run(until=dep.sim.now + 0.01)
        assert dep.chains[spec.group_id].members == ("s0", "s3")
        dep.manager("s3").register_write(spec, "b", 2)
        dep.sim.run(until=dep.sim.now + 0.1)
        stores = dep.sro_stores(spec)
        assert all(s == {"a": 1, "b": 2} for s in stores)

    def test_single_survivor_chain_still_serves(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", "v")
        dep.sim.run(until=0.02)
        for victim in ("s1", "s2"):
            dep.controller.note_failure_time(victim)
            dep.fail_switch(victim)
            dep.sim.run(until=dep.sim.now + 0.01)
        chain = dep.chains[spec.group_id]
        assert len(chain) == 1 and chain.head == "s0"
        # the lone member is head, tail, and reader at once
        dep.manager("s0").register_write(spec, "solo", 1)
        dep.sim.run(until=dep.sim.now + 0.05)
        assert dep.manager("s0").register_read(spec, "solo", None) == 1

    def test_ewo_sole_survivor_keeps_state(self, make_deployment):
        dep, _, _ = make_deployment(3, sync_period=1e-3)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        for i in range(9):
            dep.manager(f"s{i % 3}").register_increment(spec, "k", 1)
        dep.sim.run(until=0.01)
        for victim in ("s1", "s2"):
            dep.controller.note_failure_time(victim)
            dep.fail_switch(victim)
        dep.sim.run(until=0.05)
        assert dep.manager("s0").ewo.local_state(spec.group_id)["k"] == 9


class TestClockSkew:
    def test_lww_winner_consistent_despite_skew(self, make_deployment):
        """Even with clock offsets far beyond DPTP's tens of ns, all
        replicas agree on one winner (timestamps order globally)."""
        dep, _, _ = make_deployment(3, clock_skew=1e-3, sync_period=1e-3)
        spec = dep.declare(RegisterSpec("lww", Consistency.EWO, ewo_mode=EwoMode.LWW))
        dep.manager("s0").register_write(spec, "k", "a")
        dep.manager("s1").register_write(spec, "k", "b")
        dep.manager("s2").register_write(spec, "k", "c")
        dep.sim.run(until=0.05)
        states = dep.ewo_states(spec)
        values = {repr(s.get("k")) for s in states}
        assert len(values) == 1

    def test_skew_can_reorder_concurrent_lww_writes(self, make_deployment):
        """For truly *concurrent* writes (no causal delivery in between),
        a fast clock beats a later wall-clock write — the paper's reason
        to bound skew to tens of ns.  (Once causality exists, the hybrid
        clock repairs the order regardless of skew; see the test above.)"""
        dep, _, _ = make_deployment(2, clock_skew=0.0, sync_period=1e-3)
        spec = dep.declare(RegisterSpec("lww", Consistency.EWO, ewo_mode=EwoMode.LWW))
        dep.manager("s0").clock.offset = +10e-3  # fast clock
        dep.manager("s0").register_write(spec, "k", "early-but-fast-clock")
        # s1 writes 2 us later — before s0's update can arrive (5 us link),
        # so the writes are concurrent and only timestamps decide
        dep.sim.schedule(
            2e-6,
            lambda: dep.manager("s1").register_write(spec, "k", "later-wall-clock"),
        )
        dep.sim.run(until=0.05)
        states = dep.ewo_states(spec)
        assert all(s["k"] == "early-but-fast-clock" for s in states)


class TestDegenerateDeployments:
    def test_single_switch_deployment(self, sim, rng):
        from repro.core.manager import SwiShmemDeployment
        from repro.net.topology import Topology, build_full_mesh
        from repro.switch.pisa import PisaSwitch

        topo = Topology(sim, rng)
        switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 1)
        dep = SwiShmemDeployment(sim, topo, switches)
        sro = dep.declare(RegisterSpec("r", Consistency.SRO))
        ewo = dep.declare(RegisterSpec("c", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
        dep.manager("s0").register_write(sro, "k", 1)
        dep.manager("s0").register_increment(ewo, "k", 1)
        sim.run(until=0.05)
        assert dep.manager("s0").register_read(sro, "k", None) == 1
        assert dep.manager("s0").register_read(ewo, "k", None) == 1

    def test_two_switch_chain_head_is_not_tail(self, make_deployment):
        dep, _, _ = make_deployment(2)
        spec = dep.declare(RegisterSpec("r", Consistency.SRO))
        chain = dep.chains[spec.group_id]
        assert chain.head == "s0" and chain.members[-1] == "s1"
        dep.manager("s1").register_write(spec, "k", "v")  # writer = tail
        dep.sim.run(until=0.05)
        assert all(s.get("k") == "v" for s in dep.sro_stores(spec))


class TestPartition:
    def test_ewo_heals_after_full_partition(self, make_deployment):
        """Split a 4-switch mesh into {s0,s1} | {s2,s3}, write on both
        sides, heal, and verify exact convergence — the CRDT + periodic
        sync story under the harshest link failure."""
        dep, topo, _ = make_deployment(4, sync_period=1e-3)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        cut = [("s0", "s2"), ("s0", "s3"), ("s1", "s2"), ("s1", "s3")]
        for a, b in cut:
            topo.link_between(a, b).set_up(False)
        dep.sim.run(until=0.002)  # controller notices, reroutes (nothing to reroute)
        for i in range(10):
            dep.manager("s0").register_increment(spec, "k", 1)
            dep.manager("s2").register_increment(spec, "k", 1)
        dep.sim.run(until=0.02)
        # during the partition, each side only sees its own half
        left = dep.manager("s0").ewo.local_state(spec.group_id)["k"]
        right = dep.manager("s2").ewo.local_state(spec.group_id)["k"]
        assert left == 10 and right == 10
        # heal and wait for sync rounds
        for a, b in cut:
            topo.link_between(a, b).set_up(True)
        dep.sim.run(until=0.2)
        states = dep.ewo_states(spec)
        assert all(state["k"] == 20 for state in states)

    def test_lww_partition_converges_to_one_winner(self, make_deployment):
        dep, topo, _ = make_deployment(2, sync_period=1e-3)
        spec = dep.declare(RegisterSpec("lww", Consistency.EWO, ewo_mode=EwoMode.LWW))
        topo.link_between("s0", "s1").set_up(False)
        dep.manager("s0").register_write(spec, "k", "left")
        dep.sim.run(until=0.005)
        dep.manager("s1").register_write(spec, "k", "right")  # later stamp
        dep.sim.run(until=0.01)
        topo.link_between("s0", "s1").set_up(True)
        dep.sim.run(until=0.1)
        states = dep.ewo_states(spec)
        assert all(state["k"] == "right" for state in states)


class TestDscpMarkStacking:
    def test_rate_limiter_and_heavy_hitter_marks_do_not_clash(self):
        """Both NFs mark packets as counted; their DSCP bits are
        distinct, so stacking them double-counts nothing and loses
        nothing."""
        from repro.nf.heavyhitter import COUNTED_MARK, HeavyHitterNF
        from repro.nf.ratelimiter import RateLimiterNF

        assert RateLimiterNF.METERED_MARK != COUNTED_MARK
        assert RateLimiterNF.METERED_MARK & COUNTED_MARK == 0

        world = build_nf_world(seed=13, responder_servers=False)
        world.deployment.install_nf(RateLimiterNF, limit_bps=1e9)
        hh_instances = world.deployment.install_nf(HeavyHitterNF, threshold=5)
        client, server = world.clients[0], world.servers[0]
        from repro.net.packet import make_udp_packet

        for i in range(8):
            world.sim.schedule(
                i * 100e-6,
                lambda: client.inject(
                    make_udp_packet(client.ip, server.ip, 1, 2, payload_size=100)
                ),
            )
        world.sim.run(until=0.05)
        # the heavy-hitter count equals packets sent — once each, despite
        # crossing 3+ marking switches
        hh_spec = world.deployment.spec_by_name("hh_counts")
        count = world.deployment.manager("ingress").ewo.local_state(
            hh_spec.group_id
        )[client.ip]
        assert count == 8
        # and the rate limiter metered exactly the same bytes once
        rl_spec = world.deployment.spec_by_name("rl_usage")
        usage = world.deployment.manager("ingress").ewo.local_state(rl_spec.group_id)
        packet_bytes = 100 + 42
        assert usage["10.0.0"] == 8 * packet_bytes
        # the heavy hitter was still detected
        assert any(client.ip in i.detected for i in hh_instances)


class TestWriteGiveUp:
    def test_unreachable_chain_head_exhausts_retries(self, make_deployment):
        """With the whole rest of the deployment dead and no detector
        running, the writer gives up after MAX_WRITE_ATTEMPTS and drops
        the buffered output instead of leaking it."""
        dep, _, _ = make_deployment(3)
        dep.controller.stop()  # no failure detection -> no chain repair
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.fail_switch("s0")  # head dead, chain never repaired
        writer = dep.manager("s1")
        writer.register_write(spec, "k", "v")
        dep.sim.run(until=3.0)
        stats = writer.sro.stats_for(spec.group_id)
        assert stats.writes_failed == 1
        assert len(writer.sro._outstanding) == 0
        assert writer.switch.control.buffered_count == 0
