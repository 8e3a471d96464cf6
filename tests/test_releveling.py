"""Runtime consistency re-leveling: drain -> switch -> unfence.

Covers the :class:`~repro.protocols.releveling.RelevelingCoordinator`
handoff protocol end to end on live NF worlds: value preservation in
both directions, fenced-write replay, leader crashes in every phase
(via the :class:`~repro.chaos.nemesis.LeaderKiller` nemesis), a
re-level racing an anti-entropy scrub round, back-to-back flaps,
rollback on member death, and same-seed byte-identical replay of a run
containing a re-level.
"""

from __future__ import annotations

import hashlib
from typing import Any, List

import pytest

from repro.chaos import InvariantSuite, LeaderKiller
from repro.core.manager import Decision, PacketContext
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.endhost import EndHost
from repro.net.packet import make_tcp_packet
from repro.nf.base import NetworkFunction
from repro.nf.heavyhitter import HeavyHitterNF
from repro.obs import AccessProfiler, ConsistencyAdvisor, FlightRecorder, SLOMonitor
from repro.obs.metrics import MetricsRegistry
from repro.testing import build_nf_world


class MeterSroNF(NetworkFunction):
    """A per-source packet meter deliberately misdeclared as SRO —
    write-per-packet through the chain, the canonical demotion case."""

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


def _drive(world, flows: int = 20, gap: float = 100e-6) -> None:
    from repro.workload.flows import FlowSpec, inject_flow
    from repro.workload.zipf import ZipfSampler

    rng = world.rng.stream("relevel-flows")
    destinations = world.server_ips()
    client_picker = ZipfSampler(len(world.clients), s=1.2, rng=rng)
    dst_picker = ZipfSampler(len(destinations), s=1.2, rng=rng)
    at = world.sim.now
    port = 41000
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
    world.sim.run(until=at + 0.05)


def _meter_world(seed: int = 2100, **kwargs: Any):
    world = build_nf_world(seed=seed, responder_servers=False, **kwargs)
    world.deployment.install_nf(MeterSroNF)
    _drive(world)
    return world


def _world_digest(world, state_names) -> str:
    """Event-history digest: kernel event count, per-host injections,
    and every named group's replica states (engine-agnostic)."""
    dep = world.deployment
    stores = []
    for name in state_names:
        spec = dep.spec_by_name(name)
        if spec.consistency is Consistency.EWO:
            replicas = dep.ewo_states(spec)
        else:
            replicas = dep.sro_stores(spec)
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


# ----------------------------------------------------------------------
# Value preservation, both directions
# ----------------------------------------------------------------------

class TestHandoffPreservesState:
    def test_demotion_preserves_every_committed_write(self):
        world = _meter_world()
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        committed = dict(dep.sro_stores(spec)[0])
        assert committed, "drive produced no meter state"

        assert dep.releveler.request(spec, Consistency.EWO, reason="test")
        world.sim.run(until=world.sim.now + 0.05)

        assert spec.consistency is Consistency.EWO
        assert dep.releveler.stats.completed == 1
        assert dep.releveler.active_handoff(spec.group_id) is None
        replicas = dep.ewo_states(spec)
        assert len(replicas) == len(dep.managers)
        for replica in replicas:
            assert dict(replica) == committed
        # The old engine is fully torn down everywhere.
        for manager in dep.managers.values():
            assert spec.group_id not in manager.sro.groups
            assert manager.relevel_fence_for(spec.group_id) is None
            assert manager.level_of(spec) is Consistency.EWO

    def test_promotion_merges_and_restores_chain(self):
        world = _meter_world()
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        dep.releveler.request(spec, Consistency.EWO, reason="down")
        world.sim.run(until=world.sim.now + 0.05)
        committed = dict(dep.ewo_states(spec)[0])
        retired_version = dep.releveler._retired_versions[spec.group_id]

        dep.releveler.request(spec, Consistency.SRO, reason="up")
        world.sim.run(until=world.sim.now + 0.05)

        assert spec.consistency is Consistency.SRO
        assert dep.releveler.stats.completed == 2
        chain = dep.chains[spec.group_id]
        # Monotone continuation past the retired chain, so stale
        # set_chain commands from before the flap stay fenced.
        assert chain.version > retired_version
        assert not dep.multicast.has(spec.group_id)
        for store in dep.sro_stores(spec):
            assert store == committed
        for manager in dep.managers.values():
            assert spec.group_id not in manager.ewo.groups
            assert manager.level_of(spec) is Consistency.SRO
        # The chain still commits writes after the round trip.
        mgr = dep.managers[chain.head]
        mgr.register_write(spec, "post-key", 7)
        world.sim.run(until=world.sim.now + 0.02)
        assert all(s.get("post-key") == 7 for s in dep.sro_stores(spec))

    def test_sro_ero_flip_toggles_pending_tracking(self):
        world = _meter_world()
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        chain_before = dep.chains[spec.group_id]
        committed = dict(dep.sro_stores(spec)[0])

        dep.releveler.request(spec, Consistency.ERO, reason="reads-local")
        world.sim.run(until=world.sim.now + 0.05)
        assert spec.consistency is Consistency.ERO
        # Same chain, same stores — only the read path changed.
        assert dep.chains[spec.group_id] is chain_before
        for manager in dep.managers.values():
            state = manager.sro.groups[spec.group_id]
            assert not state.track_pending
            assert state.pending.pending_count() == 0
        assert dep.sro_stores(spec)[0] == committed

        dep.releveler.request(spec, Consistency.SRO, reason="back")
        world.sim.run(until=world.sim.now + 0.05)
        assert spec.consistency is Consistency.SRO
        for manager in dep.managers.values():
            assert manager.sro.groups[spec.group_id].track_pending

    def test_fenced_writes_survive_the_handoff(self):
        world = _meter_world()
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        writer = dep.managers[dep.switch_names[1]]
        observed = {}

        def write_mid_drain():
            fence = writer.relevel_fence_for(spec.group_id)
            assert fence is not None, "fence not yet installed"
            writer.register_write(spec, "drain-key", 99)
            observed["writes_fenced"] = fence.writes_fenced

        # One config latency after the request the fence command has
        # landed; the drain poll has not finished yet.
        dep.releveler.request(spec, Consistency.EWO, reason="test")
        world.sim.schedule(1.5 * dep.controller.config_latency, write_mid_drain)
        world.sim.run(until=world.sim.now + 0.05)

        assert observed["writes_fenced"] == 1
        assert dep.releveler.stats.completed == 1
        # The fenced write replayed into the *new* engine on unfence and
        # broadcast to every replica.
        for replica in dep.ewo_states(spec):
            assert replica.get("drain-key") == 99


# ----------------------------------------------------------------------
# Advisor integration
# ----------------------------------------------------------------------

class TestAdvisorDriven:
    def test_apply_advice_demotes_the_misdeclared_meter(self):
        profiler = AccessProfiler()
        world = _meter_world(access_profiler=profiler)
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        packets = sum(h.sent_count for h in world.clients + world.servers)
        advisor = ConsistencyAdvisor(profiler, packets=packets)
        advice = advisor.advice_for("meter_usage")
        assert advice.mismatch and advice.confidence == "high"

        acted = dep.releveler.apply_advice(advisor)
        assert acted == ["meter_usage"]
        world.sim.run(until=world.sim.now + 0.05)
        assert spec.consistency is Consistency.EWO
        # The profiler's declared side tracks the re-level, so the
        # advisor stops re-flagging an already-fixed group.
        assert profiler.groups[spec.group_id].declared == "ewo"

    def test_refuses_non_lww_groups(self):
        world = build_nf_world(seed=7)
        dep = world.deployment
        spec = dep.declare(
            RegisterSpec(
                "hits", Consistency.EWO, ewo_mode=EwoMode.COUNTER, capacity=64
            )
        )
        with pytest.raises(ValueError, match="counter"):
            dep.releveler.request(spec, Consistency.SRO)
        assert dep.releveler.stats.refused == 1

    def test_noop_target_rejected(self):
        world = build_nf_world(seed=7)
        dep = world.deployment
        spec = dep.declare(RegisterSpec("tbl", Consistency.SRO, capacity=64))
        with pytest.raises(ValueError, match="already"):
            dep.releveler.request(spec, Consistency.SRO)


# ----------------------------------------------------------------------
# Chaos: leader crashes, member death, scrub races
# ----------------------------------------------------------------------

class TestChaos:
    @pytest.mark.parametrize("phase", ["drain", "switch", "unfence"])
    def test_leader_crash_in_each_phase(self, phase):
        world = _meter_world(controller_replicas=2)
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        committed = dict(dep.sro_stores(spec)[0])
        killer = LeaderKiller(dep, phase=phase, kills=1)

        dep.releveler.request(spec, Consistency.EWO, reason="chaos")
        world.sim.run(until=world.sim.now + 0.3)

        assert len(killer.log) == 1, f"no kill fired in phase {phase}"
        assert spec.consistency is Consistency.EWO
        assert dep.releveler.stats.completed == 1
        assert dep.releveler.stats.rollbacks == 0
        if phase in ("drain", "switch"):
            # The successor had to resume the handoff mid-flight; an
            # unfence-phase kill completes on already-sent commands.
            assert dep.releveler.stats.resumed >= 1
        for replica in dep.ewo_states(spec):
            assert dict(replica) == committed
        for manager in dep.managers.values():
            assert manager.relevel_fence_for(spec.group_id) is None

    def test_member_death_mid_drain_rolls_back(self):
        world = _meter_world()
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        committed = dict(dep.sro_stores(spec)[0])
        victim = dep.chains[spec.group_id].members[1]

        dep.releveler.request(spec, Consistency.EWO, reason="doomed")
        world.sim.schedule(
            1.5 * dep.controller.config_latency,
            lambda: dep.fail_switch(victim),
        )
        world.sim.run(until=world.sim.now + 0.3)

        assert dep.releveler.stats.rollbacks == 1
        assert dep.releveler.stats.completed == 0
        # The group kept its level; live fences are gone; survivors intact.
        assert spec.consistency is Consistency.SRO
        for manager in dep.managers.values():
            if not manager.switch.failed:
                assert manager.relevel_fence_for(spec.group_id) is None
        for store in dep.sro_stores(spec):
            assert store == committed
        # The dead member still holds its fence; recovery reconciliation
        # releases it.
        assert dep.managers[victim].relevel_fence_for(spec.group_id) is not None
        dep.controller.recover_switch(victim)
        world.sim.run(until=world.sim.now + 0.1)
        assert dep.managers[victim].relevel_fence_for(spec.group_id) is None

    def test_relevel_racing_a_scrub_round(self):
        world = _meter_world()
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        committed = dict(dep.sro_stores(spec)[0])
        scrubber = dep.start_scrubbing(period=5e-4)
        # Let scrubbing reach steady state, then re-level mid-stream.
        world.sim.run(until=world.sim.now + 2e-3)
        dep.releveler.request(spec, Consistency.EWO, reason="race")
        world.sim.run(until=world.sim.now + 0.05)

        assert spec.consistency is Consistency.EWO
        assert dep.releveler.stats.completed == 1
        for replica in dep.ewo_states(spec):
            assert dict(replica) == committed
        # Scrubbing continued across the handoff and scrubs the *new*
        # engine cleanly (rounds started after the switch complete).
        clean_before = scrubber.stats.rounds_clean
        world.sim.run(until=world.sim.now + 5e-3)
        assert scrubber.stats.rounds_clean > clean_before
        assert not any(s[0] == spec.group_id for s in scrubber._suspects)

    def test_queued_when_leaderless(self):
        world = _meter_world(controller_replicas=1)
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        dep.controller.crash_replica(dep.controller.active_leader().replica_id)
        started = dep.releveler.request(spec, Consistency.EWO, reason="wait")
        assert not started
        assert len(dep.releveler._queue) == 1
        assert dep.releveler.stats.deferred == 1
        world.sim.run(until=world.sim.now + 0.05)
        assert spec.consistency is Consistency.SRO  # still waiting


# ----------------------------------------------------------------------
# Flaps and determinism
# ----------------------------------------------------------------------

class TestFlapsAndReplay:
    def test_back_to_back_flaps_queue_and_converge(self):
        world = _meter_world()
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        committed = dict(dep.sro_stores(spec)[0])

        version_before = dep.chains[spec.group_id].version

        # Demote; queue the promote while the demotion is mid-flight.
        assert dep.releveler.request(spec, Consistency.EWO, reason="flap-1")
        assert not dep.releveler.request(spec, Consistency.SRO, reason="flap-2")
        assert len(dep.releveler._queue) == 1
        world.sim.run(until=world.sim.now + 0.2)

        assert dep.releveler.stats.completed == 2
        assert len(dep.releveler._queue) == 0
        assert spec.consistency is Consistency.SRO
        for store in dep.sro_stores(spec):
            assert store == committed
        # Chain versions stayed monotone across the flap.
        assert dep.chains[spec.group_id].version > version_before

    def test_same_seed_replay_is_byte_identical(self):
        def run() -> str:
            world = _meter_world(seed=3111)
            dep = world.deployment
            spec = dep.spec_by_name("meter_usage")
            dep.releveler.request(spec, Consistency.EWO, reason="replay")
            world.sim.run(until=world.sim.now + 0.05)
            _drive(world, flows=8)
            return _world_digest(world, ["meter_usage"])

        assert run() == run()


# ----------------------------------------------------------------------
# Satellite (a): late observability attach
# ----------------------------------------------------------------------

class TestRebindObservability:
    def test_direct_assignment_fails_loudly(self):
        world = build_nf_world(seed=5)
        dep = world.deployment
        for attr in ("metrics", "flight_recorder", "access_profiler", "slo_monitor"):
            with pytest.raises(AttributeError, match="rebind_observability"):
                setattr(dep, attr, object())

    def test_late_attach_via_rebind_reaches_the_hot_paths(self):
        world = _meter_world(seed=2100)
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        profiler = AccessProfiler()
        metrics = MetricsRegistry()
        assert dep.metrics is None

        dep.rebind_observability(metrics=metrics, access_profiler=profiler)
        assert dep.metrics is metrics
        assert dep.access_profiler is profiler
        _drive(world, flows=8)

        # The profiler attached mid-run sees traffic (engines rebound
        # their cached hooks instead of silently ignoring the attach).
        profile = profiler.groups[spec.group_id]
        assert profile.writes > 0 and profile.reads > 0
        write_counters = [
            c.value
            for (kind, name, _node), c in metrics._instruments.items()
            if kind == "counter" and name == "state.writes"
        ]
        assert sum(write_counters) > 0

    def test_rebound_world_still_re_levels(self):
        world = _meter_world(seed=2100)
        dep = world.deployment
        spec = dep.spec_by_name("meter_usage")
        metrics = MetricsRegistry()
        recorder = FlightRecorder()
        dep.rebind_observability(metrics=metrics, flight_recorder=recorder)
        dep.releveler.request(spec, Consistency.EWO, reason="after-rebind")
        world.sim.run(until=world.sim.now + 0.05)
        assert spec.consistency is Consistency.EWO
        completed = metrics.counter("relevel.completed", "controller")
        assert completed.value == 1
        # every phase is on the recorder's timeline, under the group's name
        phases = [s for s in recorder.spans if s.name.startswith("relevel.")]
        assert [s.name for s in phases] == [
            "relevel.begin", "relevel.drain", "relevel.switch",
            "relevel.unfence", "relevel.complete",
        ]
        assert all(s.node == "releveler" for s in phases)
        assert all(s.attrs["name"] == "meter_usage" for s in phases)

    def test_metrics_attached_after_the_invariant_suite_started(self):
        world = build_nf_world(seed=2100, responder_servers=False)
        dep = world.deployment
        dep.install_nf(MeterSroNF)
        suite = InvariantSuite(dep).start(period=1e-3)
        registry = MetricsRegistry()
        dep.rebind_observability(metrics=registry)
        _drive(world, flows=8)
        report = suite.finalize()

        commits = registry.get("counter", "invariant.commits_observed", "invariants")
        assert commits is not None and commits.value == len(suite.commit_times) > 0
        for monitor, count in report.checks.items():
            checks = registry.get("counter", f"invariant.{monitor}.checks", "invariants")
            assert checks is not None and checks.value == count > 0
            violations = registry.get(
                "counter", f"invariant.{monitor}.violations", "invariants"
            )
            assert violations is not None and violations.value == sum(v.monitor == monitor for v in report.violations)

    def test_profiler_attached_after_install_nf_names_the_owners(self):
        world = build_nf_world(seed=2100, responder_servers=False)
        dep = world.deployment
        dep.install_nf(MeterSroNF)
        dep.install_nf(HeavyHitterNF, threshold=10**9)
        profiler = AccessProfiler()
        dep.rebind_observability(access_profiler=profiler)
        _drive(world, flows=8)
        groups = list(profiler.groups.values())
        assert {g.name for g in groups} == {spec.name for spec in dep.specs.values()}
        owners = {g.name: g.nf for g in groups}
        assert owners["meter_usage"] == MeterSroNF.NAME
        assert all(
            nf == (MeterSroNF.NAME if name == "meter_usage" else HeavyHitterNF.NAME)
            for name, nf in owners.items()
        )
        assert all(g.reads + g.writes > 0 for g in groups)

    def test_sinks_attached_late_reach_replicas_promoted_afterwards(self):
        world = build_nf_world(seed=2100, responder_servers=False, controller_replicas=3)
        dep = world.deployment
        dep.install_nf(MeterSroNF)
        world.sim.run(until=2e-3)
        registry, recorder = MetricsRegistry(), FlightRecorder()
        profiler, monitor = AccessProfiler(), SLOMonitor()
        monitor.add_objective("sro.write_commit p99 < 1s over 10ms windows")
        dep.rebind_observability(
            metrics=registry, flight_recorder=recorder,
            access_profiler=profiler, slo_monitor=monitor,
        )
        standbys = [r for r in dep.controller.replicas if r.role == "standby"]
        assert len(standbys) == 2
        dep.controller.crash_replica(dep.controller.active_leader().replica_id)
        world.sim.run(until=world.sim.now + 40e-3)
        successor = dep.controller.active_leader()
        assert successor in standbys
        _drive(world, flows=8)

        # the promoted standby's reign is on the timeline and in the counters
        activations = [s for s in recorder.spans if s.name == "controller.activate"]
        assert [s.node for s in activations] == [successor.node]
        assert any(
            s.name == "controller.reconstruct.reply" and s.node == successor.node
            for s in recorder.spans
        )
        assert registry.value("counter", "controller.leader_changes", "controller") == 1
        heartbeats = registry.value("counter", "controller.heartbeats", "controller")
        assert 0 < heartbeats <= dep.controller.heartbeats_received
        assert registry.get(
            "histogram", "controller.reconstruction_latency_seconds", "controller"
        ).count == 1
        # and the traffic that followed reached the other two sinks
        assert profiler.groups[dep.spec_by_name("meter_usage").group_id].writes > 0
        assert monitor.samples > 0

    # -- the dataplane counts once: devices own the counters, the
    # -- registry reads them (lifetime totals, read at snapshot time)

    #: pulled counter -> the ``stats`` field of the device it is read from
    DEVICE_FIELD = {
        "switch.rx_packets": "rx_packets",
        "switch.tx_packets": "tx_packets",
        "switch.dropped_packets": "dropped_packets",
        "switch.punted_packets": "punted_packets",
        "switch.queue_drops": "queue_drops",
        "link.packets_sent": "packets_sent",
        "link.bytes_sent": "bytes_sent",
        "link.drops": "packets_dropped",
        "link.busy_seconds": "busy_seconds",
    }

    @staticmethod
    def _channels(world):
        return {
            f"{channel.src.name}->{channel.dst.name}": channel
            for link in world.topo.links
            for channel in (link.ab, link.ba)
        }

    def test_registry_attached_mid_run_reads_the_devices_lifetime_totals(self):
        world = _meter_world(seed=2100)  # 20 flows before anyone watches
        dep = world.deployment
        registry = MetricsRegistry()
        dep.rebind_observability(metrics=registry)
        _drive(world, flows=8)
        devices = {switch.name: switch for switch in dep.switches}
        devices.update(self._channels(world))
        dataplane = [
            i for i in registry.instruments()
            if i.kind == "counter" and i.name.split(".")[0] in ("link", "switch")
        ]
        assert len(dataplane) == 5 * len(dep.switches) + 4 * len(self._channels(world))
        for instrument in dataplane:
            owned = getattr(devices[instrument.node].stats, self.DEVICE_FIELD[instrument.name])
            assert instrument.value == owned, (instrument.name, instrument.node)
        assert sum(i.value for i in dataplane if i.name == "link.packets_sent") > 0
        assert sum(i.value for i in dataplane if i.name == "switch.rx_packets") > 0

    def test_link_connected_after_the_deployment_is_in_the_snapshot(self):
        registry = MetricsRegistry()
        world = build_nf_world(seed=5, metrics=registry)
        late = world.topo.add_node(EndHost("late", world.sim, "10.9.9.9", world.book))
        world.topo.connect("late", world.ingress.name)
        for _ in range(3):
            late.inject(make_tcp_packet("10.9.9.9", world.server_ips()[0], 1, 2))
        world.sim.run(until=world.sim.now + 1e-3)
        sent = {
            c["node"]: c["value"]
            for c in registry.snapshot()["counters"]
            if c["name"] == "link.packets_sent"
        }
        assert sent[f"late->{world.ingress.name}"] == 3

    def test_worlds_sharing_one_registry_report_their_sum(self):
        registry = MetricsRegistry()
        worlds = [build_nf_world(seed=seed, metrics=registry) for seed in (5, 6)]
        for world, flows in zip(worlds, (4, 9)):
            world.deployment.install_nf(MeterSroNF)
            _drive(world, flows=flows)
        for node, channel in self._channels(worlds[0]).items():
            twin = self._channels(worlds[1])[node]
            for name in ("link.packets_sent", "link.bytes_sent", "link.drops"):
                field = self.DEVICE_FIELD[name]
                assert registry.value("counter", name, node) == (
                    getattr(channel.stats, field) + getattr(twin.stats, field)
                ), (name, node)
        totals = [
            sum(c.stats.packets_sent for c in self._channels(world).values())
            for world in worlds
        ]
        assert 0 < totals[0] != totals[1] > 0  # two different worlds, both busy
        # reading again does not add the worlds in a second time
        assert sum(
            c["value"] for c in registry.snapshot()["counters"]
            if c["name"] == "link.packets_sent"
        ) == sum(totals)
