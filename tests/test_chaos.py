"""Tests for the chaos harness: fault injection, nemesis interference,
heartbeat-detection edge cases, snapshot-transfer robustness, and the
continuous invariant monitors (paper section 6.3 under an adversarial
fault model)."""

from __future__ import annotations

import pytest

from repro.chaos import FaultInjector, InvariantSuite, Nemesis
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.protocols.controller import MAX_TRANSFER_ATTEMPTS
from repro.protocols.messages import ChainUpdate, SnapshotAck, SnapshotWrite, WriteToken
from repro.protocols.sro import SroEngine
from tests.test_antientropy import build


def _breaches(report, monitor: str) -> int:
    return sum(v.monitor == monitor for v in report.violations)


def fail_and_note(deployment, name):
    deployment.controller.note_failure_time(name)
    deployment.fail_switch(name)


class TestFaultInjector:
    def test_crash_recover_cycle(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        injector = FaultInjector(dep, seed=7)
        injector.crash_recover(2e-3, "s1", down_for=10e-3)
        dep.sim.run(until=0.05)
        kinds = [record.kind for record in injector.log]
        assert kinds == ["crash", "recover"]
        assert not dep.manager("s1").switch.failed
        assert dep.controller.failures and dep.controller.recoveries
        # the injected failure time was noted, so latency is measurable
        assert dep.controller.failures[0].detection_latency >= 0

    def test_crashing_a_dead_switch_is_a_noop(self, make_deployment):
        dep, _, _ = make_deployment(3)
        injector = FaultInjector(dep, seed=7)
        injector.crash(1e-3, "s1")
        injector.crash(2e-3, "s1")
        dep.sim.run(until=0.01)
        assert [r.kind for r in injector.log] == ["crash"]

    def test_loss_burst_restores_rates(self, make_deployment):
        dep, topo, _ = make_deployment(3)
        injector = FaultInjector(dep, seed=7)
        injector.loss_burst(1e-3, duration=2e-3, loss_rate=0.5)
        rates_mid = []
        dep.sim.schedule_at(
            2e-3, lambda: rates_mid.extend(l.ab.loss_rate for l in topo.links)
        )
        dep.sim.run(until=0.01)
        assert all(rate == 0.5 for rate in rates_mid)
        assert all(l.ab.loss_rate == 0.0 and l.ba.loss_rate == 0.0 for l in topo.links)
        assert [r.kind for r in injector.log] == ["loss-burst", "loss-burst-end"]

    def test_loss_burst_rejects_bad_rate(self, make_deployment):
        dep, _, _ = make_deployment(2)
        injector = FaultInjector(dep, seed=7)
        with pytest.raises(ValueError):
            injector.loss_burst(0.0, duration=1e-3, loss_rate=1.5)

    def test_partition_downs_crossing_links_then_heals(self, make_deployment):
        dep, topo, _ = make_deployment(3)
        injector = FaultInjector(dep, seed=7)
        injector.partition(1e-3, duration=5e-3, side_a=["s0"])
        down_mid = []
        dep.sim.schedule_at(
            3e-3, lambda: down_mid.extend(l for l in topo.links if not l.up)
        )
        dep.sim.run(until=0.02)
        # mid-partition: exactly the two links touching s0 were down
        assert sorted({l.a.name for l in down_mid} | {l.b.name for l in down_mid}) == [
            "s0", "s1", "s2",
        ]
        assert len(down_mid) == 2
        assert all(l.up for l in topo.links)

    def test_partition_rejects_overlapping_sides(self, make_deployment):
        dep, _, _ = make_deployment(3)
        injector = FaultInjector(dep, seed=7)
        with pytest.raises(ValueError):
            injector.partition(0.0, duration=1e-3, side_a=["s0"], side_b=["s0", "s1"])

    def test_schedule_random_is_seed_deterministic(self, make_deployment):
        dep, _, _ = make_deployment(4)
        plan_a = FaultInjector(dep, seed=42).schedule_random(1e-3, 50e-3)
        plan_b = FaultInjector(dep, seed=42).schedule_random(1e-3, 50e-3)
        plan_c = FaultInjector(dep, seed=43).schedule_random(1e-3, 50e-3)
        assert plan_a == plan_b
        assert plan_a != plan_c

    def test_schedule_random_protects_named_switches(self, make_deployment):
        dep, _, _ = make_deployment(3)
        injector = FaultInjector(dep, seed=5)
        plans = injector.schedule_random(
            1e-3, 50e-3, crashes=5, flaps=0, bursts=0, partitions=0,
            protect=["s0"],
        )
        assert all("crash s0 " not in plan for plan in plans)


class TestNemesis:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Nemesis(seed=1, duplicate_prob=1.5)
        with pytest.raises(ValueError):
            Nemesis(seed=1, delay_prob=-0.1)
        with pytest.raises(ValueError):
            Nemesis(seed=1, max_delay=-1e-6)

    def test_counts_duplicates_and_delays(self, make_deployment):
        dep, topo, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        nemesis = Nemesis(seed=9, duplicate_prob=1.0, delay_prob=1.0).install(topo)
        for i in range(5):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.1)
        assert nemesis.packets_inspected > 0
        assert nemesis.packets_duplicated == nemesis.packets_inspected
        assert nemesis.packets_delayed == nemesis.packets_inspected
        # protocol safety under 100% duplication + delay: all commits land
        for store in dep.sro_stores(spec):
            assert all(store.get(f"k{i}") == i for i in range(5))

    def test_disabled_nemesis_touches_nothing(self, make_deployment):
        dep, topo, _ = make_deployment(2)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        nemesis = Nemesis(seed=9, duplicate_prob=1.0).install(topo)
        nemesis.enabled = False
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=0.05)
        assert nemesis.packets_inspected == 0
        assert nemesis.counters()["packets_duplicated"] == 0

    def test_uninstall_detaches_all_channels(self, make_deployment):
        dep, topo, _ = make_deployment(3)
        nemesis = Nemesis(seed=9).install(topo)
        nemesis.uninstall(topo)
        assert all(l.ab.nemesis is None and l.ba.nemesis is None for l in topo.links)

    def test_same_seed_same_interference(self, make_deployment):
        """The nemesis is a pure function of its seed: identical runs
        produce identical interference counters."""
        counters = []
        for _ in range(2):
            from repro.core.manager import SwiShmemDeployment
            from repro.net.topology import Topology, build_full_mesh
            from repro.sim.engine import Simulator
            from repro.sim.random import SeededRng
            from repro.switch.pisa import PisaSwitch

            sim = Simulator()
            topo = Topology(sim, SeededRng(1))
            switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 3)
            dep = SwiShmemDeployment(sim, topo, switches)
            spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
            nemesis = Nemesis(seed=77, duplicate_prob=0.4, delay_prob=0.4).install(topo)
            for i in range(20):
                sim.schedule(
                    i * 100e-6,
                    lambda i=i: dep.manager("s0").register_write(spec, f"k{i}", i),
                )
            sim.run(until=0.05)
            counters.append(nemesis.counters())
        assert counters[0] == counters[1]


class TestHeartbeatChaos:
    def test_partition_causes_false_positive_then_readmission(self, make_deployment):
        """A fully partitioned-but-alive switch is suspected (split
        brain); when its beacons resume it is counted as a false
        positive and re-admitted through catch-up."""
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        injector = FaultInjector(dep, seed=3)
        injector.partition(2e-3, duration=3e-3, side_a=["s2"])
        dep.sim.run(until=4e-3)
        suspected = [e for e in dep.controller.failures if e.switch == "s2"]
        assert suspected and suspected[0].false_positive
        assert "s2" not in dep.chains[spec.group_id]
        dep.sim.run(until=0.05)
        assert dep.controller.false_positives >= 1
        readmissions = [r for r in dep.controller.recoveries if r.readmission]
        assert readmissions and readmissions[0].switch == "s2"
        # fully back: in the chain, caught up, holding the data
        assert "s2" in dep.chains[spec.group_id]
        assert dep.manager("s2").sro.groups[spec.group_id].catching_up is False
        assert dep.manager("s2").sro.groups[spec.group_id].store.get("k") == 1

    def test_host_switch_crash_rehomes_controller(self, make_deployment):
        dep, _, _ = make_deployment(3)
        assert dep.controller.active_leader().host == "s0"
        fail_and_note(dep, "s0")
        dep.sim.run(until=0.01)
        assert dep.controller.active_leader().host != "s0"
        assert dep.controller.active_leader().rehomes >= 1
        detected = {e.switch for e in dep.controller.failures}
        assert "s0" in detected
        # the detector still works from its new home
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.02)
        assert "s1" in {e.switch for e in dep.controller.failures}

    def test_heartbeats_flow_and_detection_is_quiet_without_faults(
        self, make_deployment
    ):
        dep, _, _ = make_deployment(3)
        dep.sim.run(until=0.02)
        assert dep.controller.heartbeats_received > 0
        assert dep.controller.failures == []
        assert dep.controller.false_positives == 0

    def test_stale_epoch_chain_update_is_fenced(self, make_deployment):
        """An update sequenced under a replaced configuration must be
        rejected by members holding the newer one."""
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=0.01)
        old_members = tuple(dep.chains[spec.group_id].members)
        fail_and_note(dep, "s1")  # bumps the chain version
        dep.sim.run(until=0.02)
        state = dep.manager("s2").sro.groups[spec.group_id]
        stale = ChainUpdate(
            group=spec.group_id,
            key="k",
            value=999,
            seq=state.pending.applied_seq(state.pending.slot_of("k")) + 1,
            slot=state.pending.slot_of("k"),
            token=WriteToken("stale-writer", 1),
            chain=old_members,
            epoch=0,  # pre-repair configuration
        )
        before = state.stats.fenced_updates
        dep.manager("s2").sro._process_chain_update(stale)
        assert state.stats.fenced_updates == before + 1
        assert state.store.get("k") == 1  # untouched


class TestSnapshotTransferRobustness:
    def test_transfer_completes_under_loss(self, make_deployment):
        dep, _, _ = make_deployment(3, loss_rate=0.15)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        for i in range(20):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.1)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.12)
        dep.controller.recover_switch("s1")
        dep.sim.run(until=1.0)
        transfer = dep.failover.transfer_for(spec.group_id, "s1")
        assert transfer is not None and transfer.done
        assert transfer.rounds > 1  # loss forced retransmission rounds
        store = dep.manager("s1").sro.groups[spec.group_id].store
        assert all(store.get(f"k{i}") == i for i in range(20))

    def test_duplicated_snapshot_write_is_idempotent(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        target = dep.manager("s2")
        state = target.sro.groups[spec.group_id]
        slot = state.pending.slot_of("k")
        message = SnapshotWrite(
            group=spec.group_id, key="k", value=5, seq=3, slot=slot,
            source="s0", transfer_id=7,
        )
        dep.failover.handle_snapshot_write(target, message)
        dep.failover.handle_snapshot_write(target, message)  # duplicate
        assert state.store.get("k") == 5
        assert state.pending.applied_seq(slot) == 3
        # a *stale* duplicate must not roll the value back either
        stale = SnapshotWrite(
            group=spec.group_id, key="k", value=1, seq=2, slot=slot,
            source="s0", transfer_id=7,
        )
        dep.failover.handle_snapshot_write(target, stale)
        assert state.store.get("k") == 5
        assert state.pending.applied_seq(slot) == 3

    def test_stale_transfer_id_ack_is_dropped(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=0.01)
        transfer = dep.failover.start_transfer(spec.group_id, source="s0", target="s2")
        dep.failover._take_snapshot(transfer)  # populate entries synchronously
        assert "k" in transfer.unacked
        stale_ack = SnapshotAck(
            group=spec.group_id, key="k", seq=1, source="s2",
            transfer_id=transfer.transfer_id + 100,
        )
        dep.failover.handle_snapshot_ack(dep.manager("s0"), stale_ack)
        assert "k" in transfer.unacked  # ignored
        good_ack = SnapshotAck(
            group=spec.group_id, key="k", seq=1, source="s2",
            transfer_id=transfer.transfer_id,
        )
        dep.failover.handle_snapshot_ack(dep.manager("s0"), good_ack)
        assert "k" not in transfer.unacked

    def test_transfer_retries_from_another_member_when_source_dies(
        self, make_deployment
    ):
        dep, _, _ = make_deployment(4)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        for i in range(10):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.05)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.06)
        event = dep.controller.recover_switch("s1")
        # the snapshot starts after drain_delay; kill the chosen source
        # in the window between scheduling and the snapshot control op
        source_holder = []

        def kill_source():
            transfer = dep.failover.transfer_for(spec.group_id, "s1")
            assert transfer is not None
            source_holder.append(transfer.source)
            fail_and_note(dep, transfer.source)

        dep.sim.schedule(dep.controller.drain_delay + 10e-6, kill_source)
        dep.sim.run(until=1.0)
        assert dep.failover.transfers_failed >= 1
        assert event.transfer_attempts[spec.group_id] >= 2
        final = dep.failover.transfer_for(spec.group_id, "s1")
        assert final.done and final.source != source_holder[0]
        assert event.sro_recovery_time(spec.group_id) is not None
        store = dep.manager("s1").sro.groups[spec.group_id].store
        assert all(store.get(f"k{i}") == i for i in range(10))

    def test_recovery_aborts_after_bounded_retries(self, make_deployment, monkeypatch):
        """If every transfer attempt fails, the controller gives up
        loudly instead of stranding the target in catch-up forever."""
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=0.01)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.02)
        dep.controller.recover_switch("s1")
        # the recovering target swallows its snapshot traffic, so every
        # round times out; it stays alive and keeps beaconing, so the
        # detector does not re-declare it failed
        monkeypatch.setattr(
            dep.failover, "handle_snapshot_write", lambda manager, message: None
        )
        dep.sim.run(until=0.6)
        assert len(dep.controller.aborted_recoveries) == 1
        group_id, target, _at = dep.controller.aborted_recoveries[0]
        assert (group_id, target) == (spec.group_id, "s1")
        assert dep.failover.transfers_failed == MAX_TRANSFER_ATTEMPTS
        # target is visibly stranded (catch-up), not silently promoted
        assert dep.manager("s1").sro.groups[spec.group_id].catching_up is True

    def test_catching_up_member_never_serves_snapshots(self, make_deployment):
        """Regression: with two members in catch-up at once, a snapshot
        sourced from the *other* catching-up replica would launder any
        writes committed while both were excised out of the chain."""
        dep, _, _ = make_deployment(4)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        for i in range(8):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.05)
        fail_and_note(dep, "s1")
        fail_and_note(dep, "s2")
        dep.sim.run(until=0.06)
        # recover both in the same drain window, so both snapshots fire
        # while the *other* recoverer is still catching up; the chain
        # tail is then a catching-up member — exactly the spot the old
        # read-tail preference picked a source from
        dep.controller.recover_switch("s1")
        dep.sim.run(until=0.0601)
        dep.controller.recover_switch("s2")
        # commit more writes while both are catching up
        for i in range(8, 12):
            dep.sim.schedule(3e-3, dep.manager("s0").register_write, spec, f"k{i}", i)
        dep.sim.run(until=1.0)
        for target in ("s1", "s2"):
            transfer = dep.failover.transfer_for(spec.group_id, target)
            assert transfer is not None and transfer.done
            assert transfer.source in ("s0", "s3")  # never the other recoverer
            state = dep.manager(target).sro.groups[spec.group_id]
            assert not state.catching_up
            assert all(state.store.get(f"k{i}") == i for i in range(12))

    def test_superseded_recovery_snapshot_event_is_ignored(self, make_deployment):
        """Regression: a snapshot-start scheduled by recovery N must not
        fire after the member was excised and readmitted (recovery N+1)
        — the stale event used to promote the member prematurely."""
        dep, topo, _ = make_deployment(4)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        for i in range(8):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.05)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.06)
        event1 = dep.controller.recover_switch("s1")
        gen1 = dep.controller.active_leader()._recovery_gen[(spec.group_id, "s1")]
        # before recovery 1's snapshot fires (drain_delay away), the
        # member is excised again and readmitted — recovery generation 2
        def excise_and_readmit():
            fail_and_note(dep, "s1")
            dep.sim.schedule(1e-3, dep.controller.recover_switch, "s1")
        dep.sim.schedule(1e-3, excise_and_readmit)
        dep.sim.run(until=1.0)
        assert dep.controller.active_leader()._recovery_gen[(spec.group_id, "s1")] > gen1
        # recovery 1's event fired into the void: no promotion recorded
        assert spec.group_id not in event1.promoted_at
        # recovery 2 finished the job properly
        event2 = dep.controller.recoveries[-1]
        assert event2 is not event1 and spec.group_id in event2.promoted_at
        state = dep.manager("s1").sro.groups[spec.group_id]
        assert not state.catching_up
        assert all(state.store.get(f"k{i}") == i for i in range(8))


class TestInvariantSuite:
    def _mixed_deployment(self, make_deployment):
        dep, topo, _ = make_deployment(3, sync_period=1e-3)
        sro = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        ctr = dep.declare(RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
        return dep, sro, ctr

    def test_clean_run_is_green(self, make_deployment):
        dep, sro, ctr = self._mixed_deployment(make_deployment)
        suite = InvariantSuite(dep).start(period=0.5e-3)
        for i in range(20):
            dep.sim.schedule(
                i * 200e-6,
                lambda i=i: dep.manager("s0").register_write(sro, f"k{i % 5}", i),
            )
            dep.sim.schedule(
                i * 200e-6,
                lambda i=i: dep.manager(f"s{i % 3}").register_increment(ctr, "c", 1),
            )
        dep.sim.run(until=0.05)
        report = suite.finalize()
        assert report.ok, report.violations
        assert all(count > 0 for count in report.checks.values())
        assert len(suite.commit_times) == 20

    def test_detects_a_lost_committed_write(self, make_deployment):
        """Negative control: tampering with a replica's store after a
        commit must trip the monitor."""
        dep, sro, _ctr = self._mixed_deployment(make_deployment)
        suite = InvariantSuite(dep)
        dep.manager("s0").register_write(sro, "k", 1)
        dep.sim.run(until=0.01)
        state = dep.manager("s1").sro.groups[sro.group_id]
        slot = state.pending.slot_of("k")
        del state.store["k"]
        state.pending._applied_seq[slot] = 0  # pretend it never applied
        report = suite.finalize()
        assert not report.ok
        assert _breaches(report, "no_lost_write") >= 1

    def test_detects_value_divergence_at_finalize(self, make_deployment):
        dep, sro, _ctr = self._mixed_deployment(make_deployment)
        suite = InvariantSuite(dep)
        dep.manager("s0").register_write(sro, "k", 1)
        dep.sim.run(until=0.01)
        dep.manager("s1").sro.groups[sro.group_id].store["k"] = 999
        report = suite.finalize()
        assert not report.ok
        assert _breaches(report, "no_lost_write") >= 1

    def test_counter_loss_with_fault_is_a_note_not_a_violation(
        self, make_deployment
    ):
        """Un-replicated increments destroyed by a crash are a documented
        EWO trade-off, not an invariant violation."""
        dep, topo, _ = make_deployment(2, sync_period=50e-3)
        ctr = dep.declare(RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
        suite = InvariantSuite(dep)
        # sever the only link so the increment's propagation is lost,
        # leaving s1 the sole holder of its slot value
        topo.link_between("s0", "s1").set_up(False)
        dep.manager("s1").register_increment(ctr, "c", 7)
        dep.sim.run(until=1e-3)
        suite.check_now()  # observe the floor of 7
        fail_and_note(dep, "s1")
        dep.sim.run(until=2e-3)
        suite.check_now()  # merged dropped to 0, but a fault happened
        report = suite.finalize()
        assert report.ok, report.violations
        assert any("re-baselined" in note for note in report.notes)

    def test_counter_regression_without_fault_is_a_violation(self, make_deployment):
        dep, _sro, ctr = self._mixed_deployment(make_deployment)
        suite = InvariantSuite(dep)
        dep.manager("s0").register_increment(ctr, "c", 5)
        dep.sim.run(until=0.01)
        suite.check_now()
        # tamper: zero the counter vector on every replica, no fault
        for name in dep.switch_names:
            dep.manager(name).ewo.groups[ctr.group_id].cells["c"]._vector[:] = [0, 0, 0]
        suite.check_now()
        assert _breaches(suite.report, "counter_monotonic") >= 1

    def test_detects_failed_switch_lingering_in_config(self, make_deployment):
        dep, sro, _ctr = self._mixed_deployment(make_deployment)
        suite = InvariantSuite(dep)
        dep.sim.run(until=0.01)
        # tamper: mark s1 detected-failed without repairing the chain
        dep.controller._known_failed.add("s1")
        suite.check_now()
        assert _breaches(suite.report, "config_consistent") >= 1


def _dataplane_only_pipeline_lost(self):
    """``SroEngine.pipeline_lost`` as it was before a crash ended every
    write: only the data-plane holds were abandoned."""
    if self._dp_holds:
        self._abandon([token for held in self._dp_holds.values() for token in held.writes])


class TestWritesAccounted:
    """``writes_accounted``: initiated == committed + failed + abandoned
    + outstanding on every switch and group, and at finalization no live
    switch holds a write past the retry horizon."""

    def _crash_mid_write(self, tamper=None):
        """One control-plane SRO write from s1 at 1 ms; s1 crashes 5 us
        later and recovers 5 ms after that; the run goes on to 3 s."""
        dep = build(seed=11)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        writer = dep.manager("s1")
        suite = InvariantSuite(dep).start(period=10e-3)
        dep.sim.schedule_at(1e-3, writer.register_write, spec, "k", "v")
        FaultInjector(dep).crash_recover(1e-3 + 5e-6, "s1", 5e-3)
        if tamper is not None:
            dep.sim.schedule_at(1e-3 + 1e-6, tamper, writer.sro)
        dep.sim.run(until=3.0)
        return suite.finalize(), writer.sro.stats_for(spec.group_id)

    def test_silent_when_the_crash_abandons_the_write(self):
        report, stats = self._crash_mid_write()
        assert _breaches(report, "writes_accounted") == 0, report.violations
        assert report.checks["writes_accounted"] > 0
        assert (stats.writes_initiated, stats.writes_committed, stats.writes_abandoned) == (1, 0, 1)

    def test_reports_a_write_the_crash_left_outstanding(self, monkeypatch):
        # The crash leak: a control-plane write in flight at the crash
        # keeps its outstanding entry for good (its CPU op and timer died
        # with the switch).
        monkeypatch.setattr(SroEngine, "pipeline_lost", _dataplane_only_pipeline_lost)
        report, stats = self._crash_mid_write()
        (breach,) = [v for v in report.violations if v.monitor == "writes_accounted"]
        assert "s1 still holds 1 write(s) outstanding past" in breach.detail
        assert (stats.writes_initiated, stats.writes_abandoned) == (1, 0)

    def test_reports_a_write_that_vanished_uncounted(self):
        # A write dropped from the writer's table without being counted
        # committed, failed or abandoned breaks the identity at once.
        report, _ = self._crash_mid_write(tamper=lambda engine: engine._outstanding.clear())
        breaches = [v for v in report.violations if v.monitor == "writes_accounted"]
        assert breaches and all("initiated 1 writes" in v.detail for v in breaches)


class TestCombinedAdversities:
    def test_partition_plus_nemesis_during_sro_writes(self, make_deployment):
        """Satellite scenario: a topology partition PLUS nemesis
        duplication/delay hitting the data plane while SRO writes are in
        flight.  Every invariant must stay green — the suspected-but-
        alive side is excised and readmitted, duplicates are deduped,
        and no committed write is lost."""
        dep, topo, _ = make_deployment(4, sync_period=1e-3)
        sro = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        ctr = dep.declare(RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
        nemesis = Nemesis(
            seed=21, duplicate_prob=0.3, delay_prob=0.3, max_delay=150e-6
        ).install(topo)
        injector = FaultInjector(dep, seed=21)
        injector.partition(4e-3, duration=6e-3, side_a=["s3"])
        suite = InvariantSuite(dep).start(period=0.5e-3)
        counter = [0]

        def workload():
            i = counter[0]
            counter[0] += 1
            dep.manager("s0").register_write(sro, f"k{i % 10}", i)
            dep.manager(f"s{i % 3}").register_increment(ctr, "c", 1)
            if dep.sim.now < 30e-3:
                dep.sim.schedule(300e-6, workload)

        dep.sim.schedule(1e-3, workload)
        dep.sim.run(until=0.1)
        report = suite.finalize()
        assert report.ok, report.violations
        assert all(count > 0 for count in report.checks.values())
        # the adversities actually bit
        assert nemesis.packets_duplicated > 0 and nemesis.packets_delayed > 0
        assert any(e.false_positive for e in dep.controller.failures)
        # the partitioned side came back as a full member
        assert any(r.readmission for r in dep.controller.recoveries)
        assert "s3" in dep.chains[sro.group_id]
        assert dep.manager("s3").sro.groups[sro.group_id].catching_up is False


class TestChaosSoakMini:
    """A miniature seeded soak; the full-size one lives in
    ``benchmarks/bench_chaos_soak.py``.

    Builds its own simulator (not the shared fixtures) so a test can run
    the same soak twice and compare event histories byte for byte."""

    def _run_soak(self, seed: int):
        from repro.core.manager import SwiShmemDeployment
        from repro.net.topology import Topology, build_full_mesh
        from repro.sim.engine import Simulator
        from repro.sim.random import SeededRng
        from repro.switch.pisa import PisaSwitch

        sim = Simulator()
        topo = Topology(sim, SeededRng(seed))
        switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 4)
        dep = SwiShmemDeployment(sim, topo, switches, sync_period=1e-3)
        sro = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        ctr = dep.declare(RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
        nemesis = Nemesis(
            seed=seed, duplicate_prob=0.1, delay_prob=0.1, max_delay=100e-6
        ).install(topo)
        injector = FaultInjector(dep, seed=seed)
        injector.schedule_random(
            start=5e-3, horizon=40e-3,
            crashes=1, flaps=1, bursts=1, partitions=1,
            burst_loss=0.05, protect=["s0"],
        )
        suite = InvariantSuite(dep).start(period=1e-3)
        counter = [0]

        def workload():
            i = counter[0]
            counter[0] += 1
            dep.manager("s0").register_write(sro, f"k{i % 8}", i)
            for name in dep.switch_names:
                if not dep.manager(name).switch.failed:
                    dep.manager(name).register_increment(ctr, "c", 1)
            if dep.sim.now < 60e-3:
                dep.sim.schedule(500e-6, workload)

        dep.sim.schedule(1e-3, workload)
        dep.sim.run(until=0.1)
        report = suite.finalize()
        digest = (
            injector.log_digest(),
            tuple(round(t, 12) for t in suite.commit_times),
            tuple((e.switch, round(e.detected_at, 12)) for e in dep.controller.failures),
            tuple(sorted(store.items()) for store in dep.sro_stores(sro)),
            dep.sim.events_processed,
        )
        return report, digest, dep

    def test_soak_invariants_green(self):
        report, _digest, dep = self._run_soak(seed=1)
        assert report.ok, report.violations
        assert all(count > 0 for count in report.checks.values())
        # detection latency bounded for every real (noted) failure
        for event in dep.controller.failures:
            if not event.false_positive:
                assert (
                    event.detection_latency
                    <= dep.controller.detection_bound + 1e-9
                )

    def test_identical_seeds_identical_histories(self):
        _r1, digest_1, _ = self._run_soak(seed=4)
        _r2, digest_2, _ = self._run_soak(seed=4)
        assert digest_1 == digest_2

    def test_different_seeds_diverge(self):
        _r1, digest_1, _ = self._run_soak(seed=5)
        _r2, digest_2, _ = self._run_soak(seed=6)
        assert digest_1[0]  # faults actually fired
        assert digest_1 != digest_2
