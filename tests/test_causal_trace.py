"""Tests for causal tracing: trace contexts, the flight recorder, and
span propagation across SRO chains, EWO merges, controller failover,
and recovery — plus the post-mortem engine that explains violations.

The two properties everything else leans on:

* stamping is digest-neutral (trace fields carry zero wire bytes and
  tick pure counters), so instrumented and uninstrumented replays stay
  byte-identical — asserted here by running the same seeded scenario
  with the recorder on and off;
* span ids are per-node counters, so the same seed reproduces the
  *identical* span tree, not just an isomorphic one.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultInjector, InvariantSuite
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.topology import Topology, build_full_mesh
from repro.obs.causal import CausalClock, TraceContext
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.protocols.messages import ControllerCommand
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch


class TestCausalClock:
    def test_root_and_child_ids_are_deterministic(self):
        clock = CausalClock("s0")
        root = clock.root()
        child = clock.child(root)
        assert root.trace_id == "T:s0:1"
        assert root.span_id == "s0:1"
        assert root.parent_id is None
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.lamport > root.lamport

    def test_observe_advances_past_remote_lamport(self):
        a, b = CausalClock("a"), CausalClock("b")
        ctx = a.root()
        for _ in range(5):
            ctx = a.child(ctx)
        remote = b.child(ctx)
        assert remote.lamport == ctx.lamport + 1

    def test_two_clocks_same_node_produce_same_ids(self):
        ids_a = [CausalClock("s1").root().span_id for _ in range(1)]
        ids_b = [CausalClock("s1").root().span_id for _ in range(1)]
        assert ids_a == ids_b

    def test_context_str(self):
        ctx = TraceContext(trace_id="T:x:1", span_id="x:2", parent_id="x:1", lamport=3)
        assert "T:x:1" in str(ctx) and "x:2" in str(ctx)


class TestFlightRecorderBasics:
    def test_none_context_is_dropped(self):
        recorder = FlightRecorder()
        assert recorder.record(None, "x", "s0", 0.0) is None
        assert recorder.recorded == 0

    def test_ring_bounds_and_evictions(self):
        recorder = FlightRecorder(max_records=4)
        clock = CausalClock("s0")
        for i in range(10):
            recorder.record(clock.root(), f"e{i}", "s0", float(i))
        assert len(recorder.spans) == 4
        assert recorder.evictions == 6
        assert recorder.recorded == 10

    def test_bind_metrics_exports_gauges(self):
        recorder = FlightRecorder(max_records=2)
        clock = CausalClock("s0")
        for i in range(3):
            recorder.record(clock.root(), f"e{i}", "s0", 0.0)
        registry = MetricsRegistry()
        recorder.bind_metrics(registry)
        assert registry.value("gauge", "flightrec.evictions", "obs") == 1
        assert registry.value("gauge", "flightrec.spans", "obs") == 2
        assert registry.value("gauge", "flightrec.recorded", "obs") == 3

    def test_render_timeline_requires_selector(self):
        with pytest.raises(ValueError):
            FlightRecorder().render_timeline()

    def test_empty_selection_renders_placeholder(self):
        out = FlightRecorder().render_timeline(trace_id="T:none:1")
        assert "no spans recorded" in out


class TestChainTracing:
    """One SRO write must leave a causally connected span trail across
    every chain hop, from initiate to commit."""

    def _write_once(self, make_deployment, n=3):
        recorder = FlightRecorder()
        dep, _, _ = make_deployment(n, flight_recorder=recorder)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=16))
        dep.sim.schedule(1e-3, lambda: dep.manager("s0").register_write(spec, "k", 7))
        dep.sim.run(until=10e-3)
        return recorder, dep, spec

    def test_write_spans_every_chain_member(self, make_deployment):
        recorder, dep, spec = self._write_once(make_deployment)
        traces = recorder.traces_for_key(spec.group_id, "k")
        assert len(traces) == 1
        query = recorder.query(trace_id=traces[0])
        assert query.span_count("sro.write.initiate") == 1
        assert query.span_count("sro.chain.apply") == 3  # every member applies
        assert query.span_count("sro.pending.set") == 2  # all but the tail
        assert query.span_count("sro.write.commit") == 1
        assert set(query.nodes()) == {"s0", "s1", "s2"}

    def test_initiate_happens_before_commit(self, make_deployment):
        recorder, dep, spec = self._write_once(make_deployment)
        trace_id = recorder.traces_for_key(spec.group_id, "k")[0]
        query = recorder.query(trace_id=trace_id)
        query.assert_happens_before("sro.write.initiate", "sro.write.commit")
        query.assert_happens_before("sro.pending.set", "sro.ack.deliver")

    def test_chain_depth_grows_with_chain_length(self, make_deployment):
        recorder, dep, spec = self._write_once(make_deployment, n=4)
        trace_id = recorder.traces_for_key(spec.group_id, "k")[0]
        query = recorder.query(trace_id=trace_id)
        # initiate > send > sequence > apply > forward > apply ... > commit:
        # three forwards on a 4-chain push the depth past the member count.
        assert query.max_chain_depth() >= 4
        assert query.span_count("sro.chain.forward") == 3

    def test_happens_before_violation_raises_with_timeline(self, make_deployment):
        recorder, dep, spec = self._write_once(make_deployment)
        trace_id = recorder.traces_for_key(spec.group_id, "k")[0]
        query = recorder.query(trace_id=trace_id)
        with pytest.raises(AssertionError) as err:
            query.assert_happens_before("sro.write.commit", "sro.write.initiate")
        assert "timeline" in str(err.value)

    def test_missing_span_name_raises(self, make_deployment):
        recorder, dep, spec = self._write_once(make_deployment)
        trace_id = recorder.traces_for_key(spec.group_id, "k")[0]
        with pytest.raises(AssertionError):
            recorder.query(trace_id=trace_id).assert_happens_before(
                "sro.write.initiate", "no.such.span"
            )


class TestEwoMergeTracing:
    def test_broadcast_fans_into_merge_spans(self, make_deployment):
        recorder = FlightRecorder()
        dep, _, _ = make_deployment(3, flight_recorder=recorder, sync_period=1e-3)
        ctr = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        dep.sim.schedule(1e-3, lambda: dep.manager("s0").register_increment(ctr, "c", 1))
        dep.sim.run(until=10e-3)
        broadcasts = [s for s in recorder.spans if s.name == "ewo.update.broadcast"]
        merges = [s for s in recorder.spans if s.name == "ewo.merge"]
        assert broadcasts and merges
        # every merge is a direct causal child of the broadcast that
        # carried it, recorded at a *different* node (fan-in evidence)
        broadcast_ids = {s.span_id: s for s in broadcasts}
        for merge in merges:
            parent = broadcast_ids.get(merge.parent_id)
            if parent is not None:
                assert merge.node != parent.node
                assert merge.lamport > parent.lamport
        origins = {broadcast_ids[m.parent_id].node
                   for m in merges if m.parent_id in broadcast_ids}
        assert "s0" in origins


class TestControllerTracing:
    def test_activation_roots_a_controller_trace(self, make_deployment):
        recorder = FlightRecorder()
        dep, _, _ = make_deployment(3, flight_recorder=recorder)
        activates = [s for s in recorder.spans if s.name == "controller.activate"]
        assert len(activates) == 1
        assert activates[0].node == "ctl0"
        assert activates[0].attrs["initial"] is True

    def test_failure_detection_and_repair_spans(self, make_deployment):
        recorder = FlightRecorder()
        dep, _, _ = make_deployment(3, flight_recorder=recorder)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=16))
        injector = FaultInjector(dep, seed=3)
        injector.crash(2e-3, "s1")
        dep.sim.run(until=20e-3)
        detects = [s for s in recorder.spans if s.name == "controller.failure.detect"]
        assert len(detects) == 1
        assert detects[0].attrs["switch"] == "s1"
        sends = [s for s in recorder.spans if s.name == "controller.command.send"]
        applies = [s for s in recorder.spans if s.name == "controller.command.apply"]
        assert sends and applies
        # repair commands descend from the failure-detection span, which
        # descends from the activation root — one trace tells the story
        root_trace = detects[0].trace_id
        assert all(s.trace_id == root_trace for s in sends)
        repair_sends = [s for s in sends if s.attrs["kind"] == "set_chain"]
        assert {s.attrs["target"] for s in repair_sends} == {"s0", "s2"}

    def test_recovery_and_snapshot_spans(self, make_deployment):
        recorder = FlightRecorder()
        dep, _, _ = make_deployment(3, flight_recorder=recorder)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=16))
        dep.sim.schedule(1e-3, lambda: dep.manager("s0").register_write(spec, "k", 1))
        injector = FaultInjector(dep, seed=3)
        injector.crash_recover(3e-3, "s2", down_for=10e-3)
        dep.sim.run(until=60e-3)
        names = {s.name for s in recorder.spans}
        assert "controller.recovery.begin" in names
        assert "controller.snapshot.start" in names
        assert "failover.snapshot.round" in names
        assert "failover.snapshot.apply" in names
        assert "failover.transfer.complete" in names
        assert "controller.promote" in names
        begin = next(s for s in recorder.spans if s.name == "controller.recovery.begin")
        promote = next(s for s in recorder.spans if s.name == "controller.promote")
        assert begin.attrs["switch"] == "s2"
        assert promote.trace_id == begin.trace_id
        assert promote.lamport > begin.lamport
        # snapshot applies happen at the recovering switch
        applies = [s for s in recorder.spans if s.name == "failover.snapshot.apply"]
        assert applies and all(s.node == "s2" for s in applies)

    def test_fenced_command_records_fencing_span(self, make_deployment):
        recorder = FlightRecorder()
        dep, _, _ = make_deployment(3, flight_recorder=recorder)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=16))
        manager = dep.manager("s1")
        manager.observe_controller_epoch(99)
        leader = dep.controller.replicas[0]
        stale = ControllerCommand(
            epoch=1,
            kind="set_chain",
            group=spec.group_id,
            payload=dep.chains[spec.group_id],
            trace=leader.causal.child(leader.trace_ctx),
        )
        assert manager.apply_controller_command(stale) is False
        fenced = [s for s in recorder.spans if s.name == "controller.command.fenced"]
        assert len(fenced) == 1
        assert fenced[0].node == "s1"
        assert fenced[0].attrs["command_epoch"] == 1
        assert fenced[0].attrs["fencing_epoch"] == 99
        # the span descends from the deposed leader's reign trace
        assert fenced[0].trace_id == leader.trace_ctx.trace_id

    def test_takeover_roots_fresh_trace_under_new_epoch(self, make_deployment):
        recorder = FlightRecorder()
        dep, _, _ = make_deployment(3, flight_recorder=recorder, controller_replicas=2)
        dep.controller.crash_replica(0)
        dep.sim.run(until=60e-3)
        activates = [s for s in recorder.spans if s.name == "controller.activate"]
        assert len(activates) >= 2
        first, second = activates[0], activates[1]
        assert first.node == "ctl0" and second.node == "ctl1"
        assert second.attrs["epoch"] > first.attrs["epoch"]
        assert second.trace_id != first.trace_id  # a reign = a trace
        reconstruct = [
            s for s in recorder.spans if s.name == "controller.reconstruct.begin"
        ]
        assert reconstruct and reconstruct[0].trace_id == second.trace_id


class TestDeterminismAndDigestNeutrality:
    def _soak(self, seed, recorder, slo_monitor=None):
        sim = Simulator()
        topo = Topology(sim, SeededRng(seed))
        nodes = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 3)
        dep = SwiShmemDeployment(
            sim, topo, nodes, sync_period=1e-3, flight_recorder=recorder,
            slo_monitor=slo_monitor,
        )
        sro = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=32))
        ctr = dep.declare(RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
        injector = FaultInjector(dep, seed=seed)
        injector.crash_recover(5e-3, "s1", down_for=8e-3)
        counter = [0]

        def workload():
            i = counter[0]
            counter[0] += 1
            dep.manager("s0").register_write(sro, f"k{i % 4}", i)
            dep.manager("s2").register_increment(ctr, "c", 1)
            if sim.now < 25e-3:
                sim.schedule(500e-6, workload)

        sim.schedule(1e-3, workload)
        sim.run(until=40e-3)
        stores = tuple(tuple(sorted(s.items())) for s in dep.sro_stores(sro))
        return stores, sim.events_processed

    @staticmethod
    def _tree(recorder):
        return [
            (s.name, s.node, s.span_id, s.parent_id, s.trace_id, s.lamport,
             s.time, s.group, s.key, tuple(sorted(s.attrs.items())))
            for s in recorder.spans
        ]

    def test_same_seed_identical_span_tree(self):
        first, second = FlightRecorder(), FlightRecorder()
        out_a = self._soak(11, first)
        out_b = self._soak(11, second)
        assert out_a == out_b
        assert first.recorded == second.recorded > 0
        assert self._tree(first) == self._tree(second)

    def test_recorder_does_not_perturb_the_simulation(self):
        baseline = self._soak(11, None)
        traced = self._soak(11, FlightRecorder())
        assert baseline == traced

    def test_slo_monitor_does_not_perturb_the_simulation(self):
        """Live SLO evaluation (plus critical-path span recording) is
        digest-neutral: the instrumented replay matches the bare run
        while the monitor demonstrably saw the traffic."""
        from repro.obs.critpath import CriticalPathAnalyzer
        from repro.obs.slo import SLOMonitor

        baseline = self._soak(11, None)
        monitor = SLOMonitor()
        monitor.add_objective("sro.write_commit p99 < 1s over 10ms windows")
        monitor.add_objective("sro.write availability >= 0.5 over 10ms windows")
        recorder = FlightRecorder()
        instrumented = self._soak(11, recorder, slo_monitor=monitor)
        assert baseline == instrumented
        assert monitor.samples > 0
        # and the same spans decompose into an honest attribution
        report = CriticalPathAnalyzer(recorder).report()
        assert report.writes
        assert report.fraction_sum_error_max <= 1e-9


    # -- sink independence: the spine's subscribers never see each other --
    @staticmethod
    def _nf_world_run(**sinks):
        """One seeded NF world under 1% loss and a crash; returns its
        chaos replay digest."""
        import hashlib

        from repro.nf.heavyhitter import HeavyHitterNF
        from repro.nf.nat import NatNF
        from repro.testing import build_nf_world
        from repro.workload.flows import FlowGenerator

        world = build_nf_world(seed=77, loss_rate=0.01, **sinks)
        dep = world.deployment
        world.book.register("100.0.0.1", "egress")
        dep.install_nf(NatNF, nat_ip="100.0.0.1")
        dep.install_nf(HeavyHitterNF, threshold=10**9)
        injector = FaultInjector(dep, seed=77)
        injector.crash_recover(6e-3, world.cluster[1].name, down_for=8e-3)
        suite = InvariantSuite(dep).start(period=1e-3)
        FlowGenerator(
            world.sim, world.clients, world.server_ips(), world.rng,
            flow_rate=3000, data_packets=4, inter_packet_gap=300e-6,
        ).start(duration=15e-3)
        world.sim.run(until=45e-3)
        report = suite.finalize()
        history = (
            world.sim.events_processed,
            tuple((h.sent_count, len(h.received)) for h in world.clients + world.servers),
            tuple(
                tuple(sorted((repr(k), repr(v)) for k, v in store.items()))
                for spec in dep.specs.values()
                for store in (
                    dep.ewo_states(spec)
                    if spec.consistency is Consistency.EWO
                    else dep.sro_stores(spec)
                )
            ),
            injector.log_digest(),
            tuple(str(v) for v in report.violations),
        )
        return hashlib.sha256(repr(history).encode("utf-8")).hexdigest()

    def test_sinks_are_independent_of_each_other_and_of_the_simulation(self):
        from repro.obs import AccessProfiler, ConsistencyAdvisor, SLOMonitor

        def fresh():
            monitor = SLOMonitor()
            monitor.add_objective("sro.write_commit p99 < 1ms over 10ms windows")
            monitor.add_objective("sro.write availability >= 0.999 over 10ms windows")
            return {
                "metrics": MetricsRegistry(),
                "flight_recorder": FlightRecorder(),
                "access_profiler": AccessProfiler(),
                "slo_monitor": monitor,
            }

        output = {
            "metrics": lambda registry: registry.snapshot(),
            "flight_recorder": self._tree,
            "access_profiler": lambda profiler: ConsistencyAdvisor(profiler, packets=1).report(),
            "slo_monitor": lambda monitor: monitor.as_dict(),
        }
        together = fresh()
        digests = {"none": self._nf_world_run(), "all": self._nf_world_run(**together)}
        for name, read in output.items():
            alone = fresh()[name]
            digests[name] = self._nf_world_run(**{name: alone})
            assert read(alone) == read(together[name]), f"{name} output depends on other sinks"
        assert len(set(digests.values())) == 1, digests
        # every sink demonstrably saw the run
        assert together["flight_recorder"].recorded > 0
        assert together["access_profiler"].events > 0
        assert together["slo_monitor"].samples > 0
        assert together["metrics"].value("counter", "state.reads", "nf0") > 0


class TestPostMortem:
    def _force_lost_apply(self, make_deployment, recorder):
        dep, _, _ = make_deployment(3, flight_recorder=recorder)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=16))
        injector = FaultInjector(dep, seed=5)
        suite = InvariantSuite(dep).start(period=1e-3)
        injector.drop_chain_applies(0.5e-3, "s1", spec.group_id, count=1)
        dep.sim.schedule(1e-3, lambda: dep.manager("s0").register_write(spec, "k", 42))
        dep.sim.run(until=6e-3)
        return suite.finalize(), injector

    def test_dropped_apply_violates_no_lost_write(self, make_deployment):
        report, injector = self._force_lost_apply(make_deployment, FlightRecorder())
        assert not report.ok
        assert sum(v.monitor == "no_lost_write" for v in report.violations) >= 1
        assert any(r.kind == "drop-applies" for r in injector.log)

    def test_post_mortem_names_the_losing_hop(self, make_deployment):
        report, _ = self._force_lost_apply(make_deployment, FlightRecorder())
        story = report.post_mortems()[0]
        assert "LOST HOP" in story
        assert "forwarded to s1" in story
        assert "sro.write.commit" in story  # the write did commit at the tail
        # the plain violation line stays recorder-independent
        assert str(report.violations[0]).startswith("[")
        assert "timeline" not in str(report.violations[0])

    def test_without_recorder_post_mortem_degrades_gracefully(self, make_deployment):
        report, _ = self._force_lost_apply(make_deployment, None)
        assert not report.ok
        assert report.violations[0].timeline is None
        assert report.post_mortems()[0] == str(report.violations[0])

    def test_drop_chain_applies_validates_arguments(self, make_deployment):
        dep, _, _ = make_deployment(2)
        injector = FaultInjector(dep, seed=1)
        with pytest.raises(ValueError):
            injector.drop_chain_applies(1e-3, "s0", 0, count=0)


class TestLinearizabilityExplanations:
    def test_explanation_renders_intervals_and_timeline(self, make_deployment):
        from repro.analysis.history import HistoryRecorder
        from repro.analysis.linearizability import check_history

        history = HistoryRecorder()
        recorder = FlightRecorder()
        clock = CausalClock("s0")
        recorder.record(clock.root(), "sro.write.commit", "s0", 1e-3, group=0, key="k")
        # w(1) completes, then a later read returns a stale 0 — not
        # linearizable by construction
        history.begin("t1", "write", 0, "k", 1, "s0", 0.0)
        history.complete("t1", 1e-3)
        history.record_instant("read", 0, "k", 0, "s1", 2e-3)
        report = check_history(history, initial=0, flight_recorder=recorder)
        assert not report.ok
        explanation = report.explain()
        assert "non-linearizable history" in explanation
        assert "write" in explanation and "read" in explanation
        assert "timeline for group=0" in explanation
        assert "sro.write.commit" in explanation

    def test_linearizable_history_has_no_explanations(self, deployment):
        from repro.analysis.linearizability import check_history

        spec = deployment.declare(RegisterSpec("reg", Consistency.SRO, capacity=8))
        deployment.sim.schedule(
            1e-3, lambda: deployment.manager("s0").register_write(spec, "k", 1)
        )
        deployment.sim.run(until=10e-3)
        report = check_history(deployment.history)
        assert report.ok
        assert report.explanations == []
        assert report.explain() == "linearizable: no violations"
