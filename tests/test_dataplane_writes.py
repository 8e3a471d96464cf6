"""Tests for data-plane write buffering (the section 9 open question)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultInjector
from repro.core.manager import Decision, SwiShmemDeployment
from repro.core.registers import Consistency, RegisterSpec
from repro.net.endhost import AddressBook, EndHost
from repro.net.packet import make_tcp_packet
from repro.net.topology import Topology, build_full_mesh
from repro.nf.base import NetworkFunction
from repro.obs.slo import SLOMonitor
from repro.protocols.sro import (
    DP_MAX_RESENDS,
    DP_RESEND_EVERY,
    SroEngine,
    _pass_instant,
    _passes_before,
)
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import RECIRCULATION_LATENCY, PisaSwitch
from tests.test_antientropy import build


def declare_dp(deployment, **kwargs):
    return deployment.declare(
        RegisterSpec("dpreg", Consistency.SRO, dataplane_write_buffering=True, **kwargs)
    )


class TestSpecValidation:
    def test_incompatible_with_control_plane_tables(self):
        with pytest.raises(ValueError):
            RegisterSpec(
                "bad",
                Consistency.SRO,
                dataplane_write_buffering=True,
                control_plane_state=True,
            )


class TestDataplaneWritePath:
    def test_commits_without_cpu(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = declare_dp(dep)
        writer = dep.manager("s1")
        writer.register_write(spec, "k", "v")
        dep.sim.run(until=0.01)
        assert writer.sro.stats_for(spec.group_id).writes_committed == 1
        assert writer.switch.control.ops_executed == 0
        assert all(s.get("k") == "v" for s in dep.sro_stores(spec))

    def test_faster_than_control_plane_path(self, make_deployment):
        dep, _, _ = make_deployment(3)
        dp = declare_dp(dep)
        cp = dep.declare(RegisterSpec("cpreg", Consistency.SRO))
        writer = dep.manager("s1")
        writer.register_write(dp, "k", 1)
        writer.register_write(cp, "k", 1)
        dep.sim.run(until=0.05)
        dp_latency = writer.sro.stats_for(dp.group_id).mean_write_latency
        cp_latency = writer.sro.stats_for(cp.group_id).mean_write_latency
        assert dp_latency < cp_latency

    def test_linearizable(self, make_deployment):
        from repro.analysis.linearizability import check_history

        dep, _, _ = make_deployment(3, record_history=True)
        spec = declare_dp(dep)
        for i in range(10):
            dep.sim.schedule(
                i * 30e-6,
                lambda i=i: dep.manager(f"s{i % 3}").register_write(spec, "k", i),
            )
        for i in range(20):
            dep.sim.schedule(
                7e-6 + i * 17e-6,
                lambda i=i: dep.manager(f"s{i % 3}").register_read(spec, "k", None),
            )
        dep.sim.run(until=0.05)
        assert check_history(dep.history).ok


class _DpWriterNF(NetworkFunction):
    """Installs a flow record via the data-plane write path (or the
    control-plane punt, with ``dataplane=False``)."""

    @classmethod
    def build_specs(cls, dataplane=True, **kwargs):
        return [
            RegisterSpec(
                "flows", Consistency.SRO, capacity=128, dataplane_write_buffering=dataplane
            )
        ]

    def process(self, ctx):
        flow = ctx.packet.five_tuple()
        handle = self.handles["flows"]
        if flow is not None and handle.read(flow.as_tuple()) is None:
            handle.write(flow.as_tuple(), True)
        return Decision.forward()


class TestRecirculationHold:
    @staticmethod
    def _world(make_deployment, dataplane=True, **kwargs):
        dep, topo, switches = make_deployment(3, **kwargs)
        book = dep.address_book
        src = topo.add_node(EndHost("src", dep.sim, "10.0.0.1", book))
        dst = topo.add_node(EndHost("dst", dep.sim, "10.0.0.2", book))
        topo.connect("src", "s0")
        topo.connect("dst", "s2")
        dep.routing.recompute()
        dep.install_nf(_DpWriterNF, dataplane=dataplane)
        return dep, src, dst

    def test_output_held_by_recirculation_then_released(self, make_deployment):
        dep, src, dst = self._world(make_deployment)
        src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        dep.sim.run(until=8e-6)
        # the packet reached s0 and is circling the pipeline, not in DRAM
        assert dep.manager("s0").switch.control.buffered_count == 0
        assert len(dep.manager("s0").sro._dp_holds) == 1
        assert dst.received == []
        dep.sim.run(until=0.05)
        assert len(dst.received) == 1
        assert len(dep.manager("s0").sro._dp_holds) == 0
        # recirculation passes were charged to the pipeline
        assert dep.manager("s0").switch.stats.recirculated_packets > 0

    def test_dataplane_resend_recovers_from_loss(self, make_deployment):
        dep, topo, _ = make_deployment(3, loss_rate=0.35)
        spec = declare_dp(dep)
        book = dep.address_book
        src = topo.add_node(EndHost("src", dep.sim, "10.0.0.1", book))
        dst = topo.add_node(EndHost("dst", dep.sim, "10.0.0.2", book))
        topo.connect("src", "s0")
        topo.connect("dst", "s2")
        dep.routing.recompute()
        for i in range(10):
            dep.sim.schedule(
                i * 100e-6,
                lambda i=i: dep.manager("s0").register_write(spec, f"k{i}", i),
            )
        dep.sim.run(until=1.0)
        committed = dep.manager("s0").sro.stats_for(spec.group_id).writes_committed
        assert committed == 10
        stores = dep.sro_stores(spec)
        assert all(store == stores[0] for store in stores)

    def test_hold_dropped_when_chain_unreachable(self, make_deployment):
        dep, src, dst = self._world(make_deployment)
        dep.controller.stop()  # never repair the chain
        for name in ("s1", "s2"):
            dep.fail_switch(name)
        src.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        engine = dep.manager("s0").sro
        drops = []
        engine.switch.drop = lambda packet, reason="": drops.append((dep.sim.now, reason))
        dep.sim.run(until=15.0)
        assert engine.dp_drops == 1
        assert len(engine._dp_holds) == 0
        assert dst.received == []
        # The parent's exact figures (one kernel event per pass, at
        # df95024): the hold gives up on retransmitting pass
        # DP_MAX_RESENDS + 1, and its instant is 12 864 repeated
        # additions of the recirculation latency — not 12 864 x 800 ns.
        passes = (DP_MAX_RESENDS + 1) * DP_RESEND_EVERY
        assert passes == 12_864
        assert engine.dp_recirculations == passes
        assert engine.switch.stats.recirculated_packets == passes
        assert engine.dp_resends == DP_MAX_RESENDS + 1
        stats = engine.stats_for(next(iter(engine.groups)))
        assert stats.retries == DP_MAX_RESENDS
        assert stats.writes_failed == 1
        assert [at for at, reason in drops if reason == "dp-write-giveup"] == [
            0.010296204319999473
        ]
        # ... reached in hundreds of events, not one per pass (13 267 there)
        assert dep.sim.events_processed < 1_000

    def test_dp_hold_retries_through_repaired_chain(self, make_deployment):
        """Head fails with the write in flight: the data-plane resend
        targets the repaired chain's new head and still commits."""
        dep, _, _ = make_deployment(3)
        spec = declare_dp(dep)
        writer = dep.manager("s1")
        # fail the head a moment before the write, so the first request
        # is lost and the chain is repaired while the hold recirculates
        dep.controller.note_failure_time("s0")
        dep.fail_switch("s0")
        writer.register_write(spec, "k", "v")
        dep.sim.run(until=0.5)
        assert dep.chains[spec.group_id].head == "s1"
        stats = writer.sro.stats_for(spec.group_id)
        assert stats.writes_committed == 1
        live_stores = dep.sro_stores(spec)
        assert all(s.get("k") == "v" for s in live_stores)
        assert writer.sro.dp_resends > 0  # the data plane retried

    def test_mixed_write_set_falls_back_to_cpu(self, make_deployment):
        dep, _, _ = make_deployment(2)
        dp = declare_dp(dep)
        cp = dep.declare(RegisterSpec("cpreg", Consistency.SRO))

        class MixedNF(NetworkFunction):
            @classmethod
            def build_specs(cls, **kwargs):
                return []

            def process(self, ctx):
                ctx.write_set.append((dp, "a", 1))
                ctx.write_set.append((cp, "b", 2))
                return Decision.drop()

        # write sets are engine-level; drive initiate_writes directly
        engine = dep.manager("s0").sro
        engine.initiate_writes([(dp, "a", 1), (cp, "b", 2)], None, None)
        dep.sim.run(until=0.05)
        assert engine.stats_for(dp.group_id).writes_committed == 1
        assert engine.stats_for(cp.group_id).writes_committed == 1
        assert engine.dp_holds_created == 0  # conservative CPU path used


# ----------------------------------------------------------------------
# One write lifecycle, two hold media: what the writer owes on either.
# ----------------------------------------------------------------------
_MEDIA = {"control-plane": False, "data-plane": True}


class TestOneLifecycleTwoMedia:
    @pytest.mark.parametrize("medium", sorted(_MEDIA))
    def test_give_up_reaches_the_availability_slo(self, make_deployment, medium):
        """A give-up on either medium is one failed ``sro.write``
        outcome per failed write."""
        monitor = SLOMonitor()
        monitor.add_objective("sro.write availability >= 0.999 over 100s windows")
        dep, _, _ = make_deployment(3, slo_monitor=monitor)
        spec = dep.declare(
            RegisterSpec("reg", Consistency.SRO, dataplane_write_buffering=_MEDIA[medium])
        )
        dep.controller.stop()  # never repair the chain
        for name in ("s1", "s2"):
            dep.fail_switch(name)
        writer = dep.manager("s0")
        writer.register_write(spec, "k", "v")
        dep.sim.run(until=3.0)  # past the control plane's retry horizon
        stats = writer.sro.stats_for(spec.group_id)
        assert (stats.writes_committed, stats.writes_failed) == (0, 1)
        (window,) = monitor._windows.values()
        assert (window.ok, window.failed) == (0, stats.writes_failed)
        monitor.finalize(dep.sim.now)
        assert len(monitor.breaches) == 1

    @pytest.mark.parametrize("medium", sorted(_MEDIA))
    @pytest.mark.parametrize("loss", [0.0, 0.3, 0.6])
    def test_every_write_commits_or_fails(self, make_deployment, medium, loss):
        """Through a loss sweep to quiescence, every write a writer
        started ends committed or failed, and nothing stays held."""
        dep, src, dst = TestRecirculationHold._world(
            make_deployment, dataplane=_MEDIA[medium], loss_rate=loss
        )
        (state,) = dep.manager("s0").sro.groups.values()
        spec = state.spec
        for i in range(8):
            dep.sim.schedule(
                i * 50e-6,
                src.inject,
                make_tcp_packet("10.0.0.1", "10.0.0.2", 1000 + i, 80),
            )
            dep.sim.schedule(
                25e-6 + i * 50e-6,
                lambda i=i: dep.manager(f"s{i % 3}").register_write(spec, ("ctl", i % 3), i),
            )
        dep.sim.run(until=3.0)  # past the control plane's retry horizon
        started = ended = 0
        for manager in dep.managers.values():
            engine = manager.sro
            stats = engine.stats_for(spec.group_id)
            assert stats.writes_initiated == stats.writes_committed + stats.writes_failed
            started += stats.writes_initiated
            ended += stats.writes_committed
            assert not engine._outstanding
            assert not engine._dp_holds
            assert manager.switch.control.buffered_count == 0
        assert started >= 8
        if loss == 0.0:
            assert ended == started and len(dst.received) == 8

    @pytest.mark.parametrize("medium", sorted(_MEDIA))
    def test_a_crash_ends_the_writes_in_flight(self, medium):
        """A crash takes the whole switch, CPU included: a write in
        flight on its writer is abandoned on either medium, so the
        recovered writer holds nothing and the group quiesces."""
        dep = build(seed=11)
        spec = dep.declare(
            RegisterSpec("reg", Consistency.SRO, dataplane_write_buffering=_MEDIA[medium])
        )
        writer = dep.manager("s1")
        dep.sim.schedule_at(1e-3, writer.register_write, spec, "k", "v")
        FaultInjector(dep).crash_recover(1e-3 + 5e-6, "s1", 5e-3)
        dep.sim.run(until=3.0)
        stats = writer.sro.stats_for(spec.group_id)
        assert (stats.writes_initiated, stats.writes_committed) == (1, 0)
        assert not writer.sro._outstanding
        assert writer.sro.quiesced(spec.group_id)
        assert writer.switch.control.buffered_count == 0

    @pytest.mark.parametrize("medium", sorted(_MEDIA))
    def test_a_dead_switch_starts_no_write(self, medium):
        """A driver's ``register_write`` on a crashed switch starts
        nothing on either medium: no token, no outstanding write."""
        dep = build(seed=11)
        spec = dep.declare(
            RegisterSpec("reg", Consistency.SRO, dataplane_write_buffering=_MEDIA[medium])
        )
        writer = dep.manager("s1")
        dep.fail_switch("s1")
        writer.register_write(spec, "k", "v")
        assert not writer.sro._outstanding
        dep.sim.run(until=50e-3)
        assert writer.sro.stats_for(spec.group_id).writes_initiated == 0
        assert writer.sro.quiesced(spec.group_id)


# ----------------------------------------------------------------------
# Hold by arithmetic: the passes between two retransmitting passes are
# counted when the hold is next touched, not simulated.
# ----------------------------------------------------------------------
class _PerPassEngine(SroEngine):
    """The formulation the arithmetic replaced, kept here as the
    reference: every recirculation pass is a kernel event that charges
    itself and schedules the next (``_dp_tick`` at df95024)."""

    def _dp_arm(self, write_set):
        write_set.armed = self.sim.schedule(
            RECIRCULATION_LATENCY, self._tick, write_set, label="per-pass"
        )

    def _dp_settle(self, write_set):
        pass  # nothing to catch up on: every pass was an event

    def _tick(self, write_set):
        write_set.recirculations += 1
        self.dp_recirculations += 1
        self.switch.stats.recirculated_packets += 1
        if write_set.recirculations % DP_RESEND_EVERY == 0:
            write_set.resends += 1
            self.dp_resends += 1
            if write_set.resends > DP_MAX_RESENDS:
                self._give_up(write_set, write_set.writes)
                return
            for token in write_set.writes:
                self._retransmit(token)
        self._dp_arm(write_set)


class _LabelCount:
    """A ``Simulator.profiler`` stub: counts fired events by label."""

    def __init__(self):
        self.fired = Counter()

    def dispatch(self, event):
        self.fired[event.label] += 1
        event.callback(*event.args)


def _dp_world(per_pass, loss_rate=0.0, seed=7):
    """A 3-switch mesh with one data-plane-buffered group; every hold's
    sends and its end are logged with their instants."""
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed))
    switches = build_full_mesh(
        topo, lambda name: PisaSwitch(name, sim), 3, loss_rate=loss_rate
    )
    dep = SwiShmemDeployment(sim, topo, switches)
    spec = declare_dp(dep)
    sim.profiler = _LabelCount()
    log = []
    for manager in dep.managers.values():
        engine = manager.sro
        if per_pass:
            engine.__class__ = _PerPassEngine

        def send(outstanding, inner=engine._send):
            log.append(("send", sim.now, str(outstanding.request.token)))
            inner(outstanding)

        def unhold(write_set, inner=engine._unhold, holds=engine._dp_holds):
            live = write_set.token in holds
            inner(write_set)
            if live:
                log.append(
                    ("end", sim.now, str(write_set.token), write_set.recirculations,
                     write_set.resends)
                )

        def give_up(write_set, failed, inner=engine._give_up):
            log.append(
                ("give-up", sim.now, str(write_set.token), write_set.recirculations,
                 write_set.resends)
            )
            inner(write_set, failed)

        engine._send, engine._unhold, engine._give_up = send, unhold, give_up
    return dep, spec, log


def _fingerprint(dep, spec, log):
    """Everything the two formulations must agree on."""
    per_switch = {}
    for name, manager in dep.managers.items():
        engine = manager.sro
        state = engine.groups.get(spec.group_id)
        per_switch[name] = (
            engine.dp_holds_created,
            engine.dp_recirculations,
            engine.dp_resends,
            engine.dp_drops,
            manager.switch.stats.recirculated_packets,
            len(engine._dp_holds),
            state.stats.as_dict() if state is not None else None,
            dict(state.store) if state is not None else None,
        )
    return {"switches": per_switch, "log": log, "now": dep.sim.now}


def _loss_free(dep, spec):
    for i in range(12):
        dep.sim.schedule(
            i * 9e-6, lambda i=i: dep.manager(f"s{i % 3}").register_write(spec, f"k{i % 4}", i)
        )
    dep.sim.run(until=5e-3)


def _lossy(dep, spec):
    for i in range(10):
        dep.sim.schedule(
            i * 100e-6, lambda i=i: dep.manager("s0").register_write(spec, f"k{i}", i)
        )
    dep.sim.run(until=1.0)


def _head_fails_mid_hold(dep, spec):
    dep.sim.schedule(1e-6, dep.manager("s1").register_write, spec, "k", "v")
    dep.sim.schedule(3e-6, dep.controller.note_failure_time, "s0")
    dep.sim.schedule(3e-6, dep.fail_switch, "s0")
    dep.sim.run(until=0.5)


def _unreachable(dep, spec):
    dep.controller.stop()
    for name in ("s1", "s2"):
        dep.fail_switch(name)
    dep.manager("s0").register_write(spec, "k", "v")
    dep.sim.run(until=0.05)


def _remove_group_mid_hold(dep, spec):
    writer = dep.manager("s1")
    dep.sim.schedule(1e-6, writer.register_write, spec, "k", "v")
    dep.sim.schedule(7.3e-6, writer.sro.remove_group, spec.group_id)
    dep.sim.run(until=5e-3)


def _crash_mid_hold(dep, spec):
    writer = dep.manager("s1")
    for i in range(3):
        dep.sim.schedule(i * 2e-6, writer.register_write, spec, f"k{i}", i)
    dep.sim.schedule(6.1e-6, dep.fail_switch, "s1")
    dep.sim.schedule(5e-3, dep.controller.recover_switch, "s1")
    dep.sim.run(until=0.05)


def _crash_on_a_pass_instant(dep, spec):
    # The crash lands exactly on the writer's fifth pass and was
    # scheduled first: it goes first, and that pass is never made.
    dep.sim.schedule(_pass_instant(0.0, 5), dep.fail_switch, "s1")
    dep.manager("s1").register_write(spec, "k", "v")
    dep.sim.run(until=5e-3)


_SCENARIOS = {
    "loss-free": (_loss_free, 0.0),
    "lossy": (_lossy, 0.35),
    "head-fails-mid-hold": (_head_fails_mid_hold, 0.0),
    "unreachable": (_unreachable, 0.0),
    "remove-group-mid-hold": (_remove_group_mid_hold, 0.0),
    "crash-mid-hold": (_crash_mid_hold, 0.0),
    "crash-on-a-pass-instant": (_crash_on_a_pass_instant, 0.0),
}


class TestHoldByArithmetic:
    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    @pytest.mark.parametrize("seed", [7, 23])
    def test_same_as_one_event_per_pass(self, scenario, seed):
        drive, loss = _SCENARIOS[scenario]
        prints, fired = [], []
        for per_pass in (False, True):
            dep, spec, log = _dp_world(per_pass, loss_rate=loss, seed=seed)
            drive(dep, spec)
            prints.append(_fingerprint(dep, spec, log))
            fired.append(dep.sim.profiler.fired)
        assert prints[0] == prints[1]
        assert any(entry[0] == "send" for entry in log)
        engines = [manager.sro for manager in dep.managers.values()]
        assert not any(engine._dp_holds for engine in engines)
        # The point: a hold's events are its retransmitting passes (the
        # give-up pass is one, and counts in dp_resends), not its passes.
        assert fired[0]["sro-dp-hold"] == sum(engine.dp_resends for engine in engines)
        assert fired[1]["per-pass"] == sum(engine.dp_recirculations for engine in engines)

    def test_scenarios_reach_what_they_name(self):
        """The differential above is only as good as its scenarios."""
        seen = {}
        for name, (drive, loss) in _SCENARIOS.items():
            dep, spec, log = _dp_world(False, loss_rate=loss)
            drive(dep, spec)
            seen[name] = (dep, spec, log)

        def ends(log):
            return [(entry[1], entry[3]) for entry in log if entry[0] == "end"]

        dep, spec, log = seen["lossy"]
        assert dep.manager("s0").sro.dp_resends > 0
        assert dep.manager("s0").sro.stats_for(spec.group_id).writes_committed == 10
        dep, spec, log = seen["head-fails-mid-hold"]
        assert dep.chains[spec.group_id].head == "s1"
        assert dep.manager("s1").sro.dp_resends > 0
        assert dep.manager("s1").sro.stats_for(spec.group_id).writes_committed == 1
        dep, spec, log = seen["unreachable"]
        assert [entry[0] for entry in log].count("give-up") == 1
        assert dep.manager("s0").sro.dp_recirculations == 12_864
        assert ends(seen["remove-group-mid-hold"][2]) == [(7.3e-6, 7)]
        assert ends(seen["crash-mid-hold"][2]) == [(6.1e-6, 7), (6.1e-6, 5), (6.1e-6, 2)]
        assert ends(seen["crash-on-a-pass-instant"][2]) == [(_pass_instant(0.0, 5), 4)]

    def test_crashed_writer_leaks_nothing(self, make_deployment):
        """At df95024 the first tick after the crash popped the hold but
        left its writes outstanding for good: nothing could retransmit,
        give up on or ack them, so the writer never quiesced again."""
        dep, _, _ = make_deployment(3)
        spec = declare_dp(dep)
        writer = dep.manager("s1")
        writer.register_write(spec, "k", "v")
        dep.sim.schedule(2e-6, dep.fail_switch, "s1")
        dep.sim.schedule(5e-3, dep.controller.recover_switch, "s1")
        dep.sim.profiler = _LabelCount()
        dep.sim.run(until=0.05)
        assert dep.sim.profiler.fired["sro-dp-hold"] == 0  # disarmed by the crash
        assert not writer.switch.failed
        assert len(writer.sro._dp_holds) == 0
        assert len(writer.sro._outstanding) == 0
        assert writer.sro.quiesced(spec.group_id)
        # the passes that fit before the crash: 0.8 us and 1.6 us
        assert writer.sro.dp_recirculations == 2
        assert writer.switch.stats.recirculated_packets == 2
        assert writer.sro.dp_resends == 0 and writer.sro.dp_drops == 0

    def test_dead_switch_holds_nothing(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = declare_dp(dep)
        writer = dep.manager("s1")
        dep.fail_switch("s1")
        writer.register_write(spec, "k", "v")  # only a driver can do this
        dep.sim.run(until=0.05)
        assert writer.sro.dp_holds_created == 0
        assert writer.sro.dp_recirculations == 0
        assert writer.sro.quiesced(spec.group_id)

    def test_live_hold_is_charged_at_its_next_touch(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = declare_dp(dep)
        writer = dep.manager("s1")
        writer.register_write(spec, "k", "v")
        dep.sim.run(until=8e-6)  # mid-hold: ten passes made, none charged yet
        (hold,) = writer.sro._dp_holds.values()
        assert hold.recirculations == 0 and not hold.armed.cancelled
        dep.sim.run(until=0.01)
        assert hold.armed.cancelled  # released by the ack: disarmed
        assert hold.recirculations == writer.sro.dp_recirculations > 10


_instants = st.floats(min_value=0.0, max_value=0.2, allow_nan=False)


class TestPassArithmetic:
    """The settle arithmetic alone, against the literal chain of
    per-pass kernel events."""

    @staticmethod
    def _literal(start, instant):
        """Passes a per-pass event chain starting at ``start`` fires
        before an event at ``instant`` that was scheduled ahead of it."""
        sim = Simulator()
        fired = []

        def begin():
            sim.schedule_at(instant, sim.stop)
            sim.schedule(RECIRCULATION_LATENCY, tick)

        def tick():
            fired.append(sim.now)
            sim.schedule(RECIRCULATION_LATENCY, tick)

        sim.schedule(start, begin)
        sim.run()
        assert sim.now == instant
        return fired

    @settings(max_examples=150, deadline=None)
    @given(start=_instants, gap=st.floats(min_value=0.0, max_value=200 * RECIRCULATION_LATENCY))
    def test_passes_before_an_arbitrary_instant(self, start, gap):
        instant = start + gap
        fired = self._literal(start, instant)
        assert _passes_before(start, instant) == len(fired)
        assert all(at < instant for at in fired)

    @settings(max_examples=150, deadline=None)
    @given(start=_instants, k=st.integers(min_value=1, max_value=200))
    def test_a_pass_on_the_instant_itself_does_not_count(self, start, k):
        instant = _pass_instant(start, k)
        fired = self._literal(start, instant)
        assert len(fired) == k - 1
        assert _passes_before(start, instant) == k - 1
        # ... and the walk reaches the same floats the event chain does
        assert fired == [_pass_instant(start, n) for n in range(1, k)]

    @settings(max_examples=300, deadline=None)
    @given(start=_instants, passes=st.integers(min_value=0, max_value=DP_RESEND_EVERY))
    def test_pass_instant_is_repeated_addition(self, start, passes):
        at = start
        for _ in range(passes):
            at += RECIRCULATION_LATENCY
        assert _pass_instant(start, passes) == at

    def test_armed_event_meets_an_instant_no_delay_reaches(self, make_deployment):
        """A hold that starts 6.77 us into a run: ``now + (instant -
        now)`` is an ulp short of its 64th pass, and no delay added to
        ``now`` rounds to it at all."""
        start = 6.7703395520213144e-06
        instant = _pass_instant(start, DP_RESEND_EVERY)
        assert start + (instant - start) != instant
        dep, _, _ = make_deployment(3)
        spec = declare_dp(dep)
        dep.controller.stop()
        for name in ("s0", "s2"):
            dep.fail_switch(name)
        writer = dep.manager("s1")
        dep.sim.schedule(start, writer.register_write, spec, "k", "v")
        dep.sim.run(until=start)
        (hold,) = writer.sro._dp_holds.values()
        assert hold.armed.time == instant
        dep.sim.run(until=instant)
        assert (hold.counted_through, hold.recirculations) == (instant, DP_RESEND_EVERY)
