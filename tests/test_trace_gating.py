"""A trace is stamped only while a flight recorder listens.

A deployment's causal clocks record exactly while its observability
spine has a flight recorder.  With none attached, every protocol message
carries ``trace=None`` and no clock allocates a context or advances its
Lamport value, whichever other sinks watch.  A recorder attached
mid-run traces every write initiated after it.  Neither changes what the
simulation does.
"""

from __future__ import annotations

import hashlib

from repro.chaos import FaultInjector, InvariantSuite
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.obs import (
    AccessProfiler,
    CausalClock,
    CriticalPathAnalyzer,
    FlightRecorder,
    MetricsRegistry,
    ObsSpine,
    SLOMonitor,
    TraceContext,
)
from repro.net.topology import Topology, build_full_mesh
from repro.protocols.messages import EwoSyncProbe
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch


class TestRecordingClock:
    def test_a_standalone_clock_records(self):
        clock = CausalClock("s0")
        assert isinstance(clock.root(), TraceContext)
        assert clock.child(None) is None  # an unstamped message stays unstamped

    def test_a_clock_that_is_not_recording_derives_nothing(self):
        clock = CausalClock("s0")
        clock.recording = False
        parent = TraceContext("T:s1:1", "s1:1", None, 9)
        assert clock.root() is None and clock.child(parent) is None
        assert (clock.lamport, clock._spans, clock._traces) == (0, 0, 0)

    def test_the_spine_records_exactly_while_a_recorder_is_attached(self):
        spine = ObsSpine(sim=None, metrics=MetricsRegistry())
        early = spine.clock("s0")
        assert not early.recording
        spine.attach(flight_recorder=FlightRecorder())
        late = spine.clock("s1")
        assert early.recording and late.recording
        spine.attach(slo_monitor=SLOMonitor())  # another sink leaves it on
        assert early.recording


class TestNobodyWatching:
    def test_no_clock_allocates_without_a_recorder(self):
        """NAT (SRO), IPS (ERO + EWO) and HeavyHitter (EWO) under 1 %
        loss and a crash/recover, with every sink but the recorder
        attached: no context is allocated anywhere."""
        from repro.nf.heavyhitter import HeavyHitterNF
        from repro.nf.ips import IpsNF
        from repro.nf.nat import NatNF
        from repro.testing import build_nf_world
        from repro.workload.flows import FlowGenerator

        monitor = SLOMonitor()
        monitor.add_objective("sro.write_commit p99 < 1ms over 10ms windows")
        monitor.add_objective("ewo.sync_agreed availability >= 0.5 over 10ms windows")
        profiler = AccessProfiler()
        world = build_nf_world(
            seed=77, loss_rate=0.01, metrics=MetricsRegistry(),
            access_profiler=profiler, slo_monitor=monitor,
        )
        dep = world.deployment
        world.book.register("100.0.0.1", "egress")
        dep.install_nf(NatNF, nat_ip="100.0.0.1")
        dep.install_nf(IpsNF)
        dep.install_nf(HeavyHitterNF, threshold=10**9)
        injector = FaultInjector(dep, seed=77)
        injector.crash_recover(6e-3, world.cluster[1].name, down_for=8e-3)
        InvariantSuite(dep).start(period=1e-3)
        FlowGenerator(
            world.sim, world.clients, world.server_ips(), world.rng,
            flow_rate=3000, data_packets=4, inter_packet_gap=300e-6,
        ).start(duration=15e-3)
        world.sim.run(until=45e-3)
        clocks = dep.obs.clocks
        assert {switch.name for switch in world.cluster} <= set(clocks)
        assert {
            node: (clock.lamport, clock._spans, clock._traces)
            for node, clock in clocks.items()
        } == {node: (0, 0, 0) for node in clocks}
        # the sinks that were attached saw the run
        assert profiler.events > 0 and monitor.samples > 0
        assert dep.controller.failures and dep.controller.recoveries


class TestSyncFlag:
    def test_an_unstamped_probe_is_answered_as_a_round_not_a_repair(self, make_deployment):
        """The probed member's answer is a regular sync round — an
        ``ewo.sync_agreed`` failure for the SLO monitor — even when the
        probe carries no trace."""
        monitor = SLOMonitor()
        monitor.add_objective("ewo.sync_agreed availability >= 0.5 over 1ms windows")
        dep, _, _ = make_deployment(3, sync_period=10.0, slo_monitor=monitor)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER, ewo_batch_size=100)
        )
        dep.manager("s1").register_increment(spec, "k", 1)
        state = dep.manager("s0").ewo.groups[spec.group_id]
        probe = EwoSyncProbe(group=spec.group_id, origin="s0", digest=state.digest())
        assert probe.trace is None
        dep.manager("s1").ewo.handle_probe(probe)
        assert dep.manager("s1").ewo.stats_for(spec.group_id).sync_packets_sent == 1
        monitor.finalize(dep.sim.now + 1e-3)
        assert monitor.samples == 1
        (breach,) = monitor.breaches
        assert (breach["metric"], breach["observed"]) == ("ewo.sync_agreed", 0.0)


class TestLateRecorder:
    #: Between the second and third chain hop of the write from 3 ms.
    ATTACH_AT = 3.027e-3

    def _run(self, recorder=None):
        """A fresh world: a write from ``s0`` every 200 us on a 4-chain,
        and ``recorder`` (``None``: nothing) attached at
        :attr:`ATTACH_AT`, mid-write.  Returns the deployment, the group
        and the times writes were initiated."""
        sim = Simulator()
        topo = Topology(sim, SeededRng(3))
        switches = build_full_mesh(topo, lambda name: PisaSwitch(name, sim), 4)
        dep = SwiShmemDeployment(sim, topo, switches)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=16))
        started = []

        def write(i=0):
            started.append(dep.sim.now)
            dep.manager("s0").register_write(spec, f"k{i % 3}", i)
            if i < 30:
                dep.sim.schedule(200e-6, write, i + 1)

        dep.sim.schedule(1e-3, write)
        dep.sim.schedule(
            self.ATTACH_AT, lambda: dep.rebind_observability(flight_recorder=recorder)
        )
        dep.sim.run(until=15e-3)
        return dep, spec, started

    @staticmethod
    def _digest(dep, spec) -> str:
        stores = tuple(tuple(sorted(s.items())) for s in dep.sro_stores(spec))
        return hashlib.sha256(repr((stores, dep.sim.events_processed)).encode()).hexdigest()

    def test_a_write_initiated_after_the_attach_records_its_full_chain(self):
        recorder = FlightRecorder()
        dep, spec, started = self._run(recorder)
        bare, bare_spec, _ = self._run()
        assert self._digest(dep, spec) == self._digest(bare, bare_spec)

        after = [t for t in started if t > self.ATTACH_AT]
        roots = [s for s in recorder.spans if s.name == "sro.write.initiate"]
        assert [s.time for s in roots] == after  # no trace rooted before it
        first = recorder.query(trace_id=roots[0].trace_id)
        for name in (
            "sro.write.initiate", "sro.write.send", "sro.head.sequence",
            "sro.ack.emit", "sro.write.commit",
        ):
            assert first.span_count(name) == 1, name
        assert first.span_count("sro.chain.apply") == 4  # every hop
        first.assert_happens_before("sro.write.initiate", "sro.head.sequence")
        first.assert_happens_before("sro.ack.emit", "sro.write.commit")

        report = CriticalPathAnalyzer(recorder).report()
        assert sorted(w.trace_id for w in report.writes) == sorted(s.trace_id for s in roots)
        assert report.fraction_sum_error_max <= 1e-9
        # The write in flight at the attach starts a partial trace at its
        # next hop (a chain apply roots on an unstamped update); its
        # commit has no initiate to attribute back to, so it is skipped.
        early = [s for s in recorder.spans if s.time < roots[0].time]
        assert len({s.trace_id for s in early}) == 1
        assert (early[0].name, early[0].node, early[0].parent_id) == (
            "sro.chain.apply", "s2", None
        )
        assert report.skipped == 1
