"""Tests for failure handling and recovery (paper section 6.3)."""

from __future__ import annotations

import pytest

from repro.chaos import FaultInjector
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.topology import Topology, build_full_mesh
from repro.protocols.controller import CentralController
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch


def fail_and_note(deployment, name):
    deployment.controller.note_failure_time(name)
    deployment.fail_switch(name)


class TestFailureDetection:
    def test_controller_detects_within_bound(self, make_deployment):
        """Heartbeat detection latency is bounded by period + timeout."""
        dep, _, _ = make_deployment(3)
        dep.sim.run(until=0.001)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.01)
        event = dep.controller.last_failure()
        assert event is not None and event.switch == "s1"
        assert not event.false_positive
        assert event.detection_latency <= dep.controller.detection_bound + 1e-9

    def test_detection_repairs_all_chains(self, make_deployment):
        dep, _, _ = make_deployment(3)
        a = dep.declare(RegisterSpec("a", Consistency.SRO))
        b = dep.declare(RegisterSpec("b", Consistency.ERO))
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.01)
        assert "s1" not in dep.chains[a.group_id]
        assert "s1" not in dep.chains[b.group_id]
        event = dep.controller.last_failure()
        assert sorted(event.chains_repaired) == [a.group_id, b.group_id]

    def test_detection_updates_multicast_groups(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(
            RegisterSpec("c", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        fail_and_note(dep, "s2")
        dep.sim.run(until=0.01)
        assert "s2" not in dep.multicast.get(spec.group_id)
        assert dep.controller.last_failure().multicast_groups_updated == 1

    def test_removal_reaches_the_very_next_fanout(self, make_deployment):
        """The group caches its sorted fan-out per sender; the failover
        removal must reach the next write's multicast and the next sync
        target pick, not a stale cached tuple."""
        dep, _, _ = make_deployment(3)
        spec = dep.declare(
            RegisterSpec("c", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        s0 = dep.manager("s0")
        copies = s0.switch.stats
        s0.register_increment(spec, "k", 1)  # warms the cached fan-out
        assert copies.multicast_copies == 2
        picks = {s0.ewo._pick_sync_target(spec.group_id) for _ in range(32)}
        assert picks == {"s1", "s2"}

        # exactly what the controller's failure handling does
        dep.multicast.remove_member_everywhere("s2")
        s0.register_increment(spec, "k", 1)
        assert copies.multicast_copies == 3
        picks = {s0.ewo._pick_sync_target(spec.group_id) for _ in range(32)}
        assert picks == {"s1"}

        # and recovery's re-add is seen just as promptly
        dep.multicast.get(spec.group_id).add("s2")
        s0.register_increment(spec, "k", 1)
        assert copies.multicast_copies == 5


class TestSroFailover:
    def test_writes_resume_after_middle_switch_fails(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "before", 1)
        dep.sim.run(until=0.01)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.02)
        dep.manager("s0").register_write(spec, "after", 2)
        dep.sim.run(until=0.2)
        live_stores = dep.sro_stores(spec)
        assert all(store.get("after") == 2 for store in live_stores)
        assert all(store.get("before") == 1 for store in live_stores)

    def test_in_flight_write_retried_through_repaired_chain(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        # fail the middle switch the instant a write is in flight
        dep.manager("s0").register_write(spec, "k", "v")
        dep.sim.run(until=21e-6)  # write request punted, not yet committed
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.5)
        stats = dep.manager("s0").sro.stats_for(spec.group_id)
        assert stats.writes_committed == 1
        assert all(store.get("k") == "v" for store in dep.sro_stores(spec))

    def test_head_failure_promotes_successor(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        fail_and_note(dep, "s0")
        dep.sim.run(until=0.01)
        assert dep.chains[spec.group_id].head == "s1"
        dep.manager("s2").register_write(spec, "k", 9)
        dep.sim.run(until=0.2)
        assert all(store.get("k") == 9 for store in dep.sro_stores(spec))

    def test_tail_failure_moves_read_tail(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=0.01)
        fail_and_note(dep, "s2")
        dep.sim.run(until=0.02)
        chain = dep.chains[spec.group_id]
        assert chain.read_tail == "s1" and chain.members[-1] == "s1"
        assert dep.manager("s1").register_read(spec, "k", None) == 1


class TestSroRecovery:
    def test_recovered_switch_catches_up_and_promotes(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        for i in range(20):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.1)
        fail_and_note(dep, "s2")
        dep.sim.run(until=0.11)
        # writes continue while s2 is down
        for i in range(20, 30):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.2)
        event = dep.controller.recover_switch("s2")
        dep.sim.run(until=0.5)
        # s2 has the full state including writes made while it was down
        store = dep.manager("s2").sro.groups[spec.group_id].store
        assert len(store) == 30
        assert store == dep.manager("s0").sro.groups[spec.group_id].store
        # and it was promoted back to read tail
        assert dep.chains[spec.group_id].read_tail == "s2"
        assert event.sro_recovery_time(spec.group_id) is not None
        assert dep.manager("s2").sro.groups[spec.group_id].catching_up is False

    def test_writes_during_catchup_reach_recovering_switch(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        dep.manager("s0").register_write(spec, "old", 1)
        dep.sim.run(until=0.05)
        fail_and_note(dep, "s2")
        dep.sim.run(until=0.06)
        dep.controller.recover_switch("s2")
        dep.sim.run(until=0.065)  # catch-up begun, snapshot not yet done
        dep.manager("s1").register_write(spec, "during", 2)
        dep.sim.run(until=0.5)
        store = dep.manager("s2").sro.groups[spec.group_id].store
        assert store.get("during") == 2
        assert store.get("old") == 1

    def test_snapshot_transfer_completes(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        for i in range(5):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.05)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.06)
        dep.controller.recover_switch("s1")
        dep.sim.run(until=0.5)
        assert dep.failover.transfers_completed >= 1
        transfer = dep.failover.transfer_for(spec.group_id, "s1")
        assert transfer is not None and transfer.done
        assert transfer.total_entries == 5

    def test_wipe_empties_everything_a_restart_loses(self, make_deployment):
        """A restarted pipeline holds no registers and no recirculating
        packets: store, pending table, dedup *and* the reorder stash."""
        from repro.protocols.messages import WriteToken

        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        state = dep.manager("s1").sro.groups[spec.group_id]  # mid-chain
        slot = state.pending.slot_of("k")
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=0.01)
        # Open a gap: s1 loses one apply, so the next update to the
        # slot arrives ahead of its predecessor and is stashed.
        FaultInjector(dep).drop_chain_applies(dep.sim.now, "s1", spec.group_id)
        dep.manager("s0").register_write(spec, "k", 2)
        dep.manager("s0").register_write(spec, "k", 3)
        dep.sim.run(until=0.0101)
        # Dedup is head-side state; plant an entry as a past head holds.
        state.remember_token(WriteToken("past-head", 1), 1, slot, 1, dep.sim.now)
        assert state.store and state.reorder and state.dedup
        assert state.pending.applied_seq(slot) == 1
        fail_and_note(dep, "s1")
        dep.controller.recover_switch("s1", wipe_state=True)
        assert not state.store and not state.dedup and not state.reorder
        assert state.pending.applied_seq(slot) == 0
        assert state.pending.pending_count() == 0
        # ... and the wiped member still catches up from the snapshot.
        dep.sim.run(until=0.5)
        assert state.store == dep.manager("s0").sro.groups[spec.group_id].store

    @staticmethod
    def _read_tail_samples(dep, group_id, events, recoveries):
        """Sample the controller's read tail every 1 us until all
        ``recoveries`` in ``events`` (switch -> RecoveryEvent, filled as
        the recoveries start) have caught up; collect each sample that
        sits on a member still catching up."""
        on_catching_up = []

        def sample():
            tail = dep.chains[group_id].read_tail
            if tail in events and group_id not in events[tail].promoted_at:
                on_catching_up.append((dep.sim.now, tail))
            if len(events) < recoveries or any(
                group_id not in event.promoted_at for event in events.values()
            ):
                dep.sim.schedule(1e-6, sample)

        sample()
        return on_catching_up

    def test_read_tail_never_on_a_member_catching_up(self, make_deployment):
        """Two excised switches re-admitted 60 us apart: the read tail
        stays on a member holding every committed write until each
        re-admitted one has caught up — neither the second append nor
        the first promotion moves it onto a member still catching up."""
        dep, _, _ = make_deployment(4)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        for i in range(10):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.01)
        for name in ("s2", "s3"):
            fail_and_note(dep, name)
        dep.sim.run(until=0.02)
        assert dep.chains[spec.group_id].members == ("s0", "s1")
        events = {"s2": dep.controller.recover_switch("s2")}
        dep.sim.schedule(
            60e-6, lambda: events.update(s3=dep.controller.recover_switch("s3"))
        )
        on_catching_up = self._read_tail_samples(dep, spec.group_id, events, 2)
        dep.sim.run(until=0.5)
        assert not on_catching_up
        assert all(spec.group_id in event.promoted_at for event in events.values())
        chain = dep.chains[spec.group_id]
        assert chain.members == ("s0", "s1", "s2", "s3") and chain.read_tail == "s3"
        assert chain.catching_up == ()

    def test_read_tail_stays_off_a_catching_up_member_across_a_crash(
        self, make_deployment
    ):
        """One switch re-admitted at 20 ms and the head crashed 100 us
        later: the repair that excises the head must not hand the read
        tail to the re-admitted member, which is still catching up."""
        dep, _, _ = make_deployment(4)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        for i in range(10):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.01)
        fail_and_note(dep, "s3")
        dep.sim.run(until=0.02)
        assert dep.chains[spec.group_id].members == ("s0", "s1", "s2")
        events = {"s3": dep.controller.recover_switch("s3")}
        dep.sim.schedule(100e-6, fail_and_note, dep, "s0")
        on_catching_up = self._read_tail_samples(dep, spec.group_id, events, 1)
        dep.sim.run(until=0.5)
        assert not on_catching_up, (len(on_catching_up), on_catching_up[:1])
        assert spec.group_id in events["s3"].promoted_at
        chain = dep.chains[spec.group_id]
        assert chain.members == ("s1", "s2", "s3") and chain.read_tail == "s3"
        assert chain.catching_up == ()

    def test_recover_unfailed_switch_rejected(self, make_deployment):
        dep, _, _ = make_deployment(2)
        with pytest.raises(ValueError):
            dep.controller.recover_switch("s0")


class TestCatchUpCompletionFencesNothing:
    """Completing a catch-up changes no member and no order: the
    descriptor that records it keeps its version, so a chain update in
    flight when it lands is applied, not fenced."""

    LINK = 5e-6
    CPU = 20e-6

    def _on_promote(self, dep, hook):
        """Call ``hook(target)`` right after the leader records each
        completed catch-up."""
        leader = dep.controller.active_leader()
        promote = leader._promote

        def wrapped(group_id, target, event, gen=None):
            promote(group_id, target, event, gen)
            hook(target)

        leader._promote = wrapped

    @staticmethod
    def _fenced(dep, group_id):
        return sum(
            dep.manager(name).sro.stats_for(group_id).fenced_updates
            for name in dep.switch_names
        )

    def test_update_in_flight_across_the_promotion_commits_first_try(
        self, make_deployment
    ):
        dep, _, _ = make_deployment(3, latency=self.LINK, control_op_latency=self.CPU)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        gid = spec.group_id
        for i in range(10):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.01)
        fail_and_note(dep, "s2")
        dep.sim.run(until=0.02)
        dep.controller.recover_switch("s2")
        head, middle = dep.manager("s0").sro, dep.manager("s1").sro
        seen = {}

        def at_head(request, receive=head._receive_write_request):
            if request.key == "inflight":
                promoted = head.groups[gid].chain.read_tail == "s2"
                seen.setdefault("sequenced_before_landing", not promoted)
            receive(request)

        def at_middle(update, handle=middle.handle_chain_update):
            if update.key == "inflight":
                promoted = middle.groups[gid].chain.read_tail == "s2"
                seen.setdefault("arrived_after_landing", promoted)
            handle(update)

        head._receive_write_request = at_head
        middle.handle_chain_update = at_middle
        # The head sequences the write half a link before the promoting
        # descriptor lands everywhere, so its update reaches s1 after.
        lead = self.CPU + self.LINK / 2
        config_latency = dep.controller.active_leader().config_latency
        self._on_promote(
            dep,
            lambda target: dep.sim.schedule(
                config_latency - lead,
                dep.manager("s0").register_write,
                spec,
                "inflight",
                99,
            ),
        )
        dep.sim.run(until=0.5)
        assert seen == {"sequenced_before_landing": True, "arrived_after_landing": True}
        stats = head.stats_for(gid)
        assert stats.writes_committed == 11 and stats.retries == 0
        assert self._fenced(dep, gid) == 0
        assert all(store.get("inflight") == 99 for store in dep.sro_stores(spec))

    def test_earlier_append_finishing_first_takes_the_read_tail(self, make_deployment):
        """Two members catch up and the one appended first finishes
        first: the read tail moves to it at once (the later one still
        catches up behind it), and neither completion fences a write."""
        dep, _, _ = make_deployment(4, latency=self.LINK, control_op_latency=self.CPU)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        gid = spec.group_id
        for i in range(10):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.01)
        for name in ("s2", "s3"):
            fail_and_note(dep, name)
        dep.sim.run(until=0.02)
        dep.controller.recover_switch("s2")
        dep.sim.schedule(60e-6, dep.controller.recover_switch, "s3")
        read_tails = []
        self._on_promote(
            dep, lambda target: read_tails.append((target, dep.chains[gid].read_tail))
        )
        dep.sim.run(until=0.021)  # both appends have landed
        fenced_at_appends = self._fenced(dep, gid)
        # a write every 20 us from here until both catch-ups are done
        for i in range(600):
            dep.sim.schedule(20e-6 * i, dep.manager("s0").register_write, spec, "w", i)
        dep.sim.run(until=0.5)
        assert read_tails == [("s2", "s2"), ("s3", "s3")]
        assert self._fenced(dep, gid) == fenced_at_appends
        assert dep.manager("s0").sro.stats_for(gid).retries == 0
        assert all(store.get("w") == 599 for store in dep.sro_stores(spec))


class TestEwoFailover:
    def test_counter_survives_replica_failure(self, make_deployment):
        dep, _, _ = make_deployment(3, sync_period=1e-3)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        for i in range(30):
            dep.manager(f"s{i % 3}").register_increment(spec, "k", 1)
        dep.sim.run(until=0.02)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.05)
        live_states = dep.ewo_states(spec)
        assert all(state["k"] == 30 for state in live_states)

    def test_failed_replica_slot_counts_preserved(self, make_deployment):
        """s1's own increments survive its failure: the other replicas
        hold its slot values (the CRDT vector's whole point)."""
        dep, _, _ = make_deployment(3, sync_period=1e-3)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        dep.manager("s1").register_increment(spec, "k", 17)
        dep.sim.run(until=0.01)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.02)
        assert all(state["k"] == 17 for state in dep.ewo_states(spec))

    def test_recovered_replica_refills_from_sync(self, make_deployment):
        dep, _, _ = make_deployment(3, sync_period=1e-3)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        dep.manager("s0").register_increment(spec, "k", 10)
        dep.manager("s1").register_increment(spec, "k", 7)
        dep.sim.run(until=0.01)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.02)
        dep.controller.recover_switch("s1")  # wipes s1's state
        assert dep.manager("s1").ewo.local_state(spec.group_id) == {}
        dep.sim.run(until=0.1)  # wait a few sync rounds
        # s1's own slot value came back from its peers
        assert dep.manager("s1").ewo.local_state(spec.group_id)["k"] == 17

    def test_sync_generator_restarts_after_recovery(self, make_deployment):
        dep, _, _ = make_deployment(2, sync_period=1e-3)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        dep.manager("s0").register_increment(spec, "k", 1)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.01)
        dep.controller.recover_switch("s1")
        dep.sim.run(until=0.05)
        stats = dep.manager("s1").ewo.stats_for(spec.group_id)
        # the recovered switch's generator runs again: its probes flow,
        # and the first one (its digest is the empty state's) pulls
        # s0's state back
        assert stats.sync_probes_sent > 0
        assert stats.sync_packets_received > 0
        assert dep.manager("s1").ewo.local_state(spec.group_id) == {"k": 1}


class TestRoutingRepair:
    def test_traffic_reroutes_around_failed_switch(self, make_deployment):
        """'We regain connectivity by reprogramming the routing of the
        failed switch neighbors.'"""
        dep, topo, switches = make_deployment(4)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.01)
        # full mesh: s0 still reaches s2 directly; routing table reflects it
        assert dep.routing.hops_for("s0", "s2") == ["s2"]
        assert dep.routing.hops_for("s0", "s1") == []


class TestLinkFailureHandling:
    def test_controller_reroutes_around_down_link(self, make_deployment):
        dep, topo, _ = make_deployment(4)
        dep.sim.run(until=0.001)
        link = topo.link_between("s0", "s1")
        link.set_up(False)
        dep.sim.run(until=0.005)  # detector polls, recomputes routing
        assert dep.controller.active_leader().link_events >= 1
        # s0 -> s1 now goes through a third switch
        assert dep.routing.hops_for("s0", "s1") == ["s2", "s3"]

    def test_link_recovery_restores_direct_path(self, make_deployment):
        dep, topo, _ = make_deployment(3)
        link = topo.link_between("s0", "s1")
        link.set_up(False)
        dep.sim.run(until=0.005)
        link.set_up(True)
        dep.sim.run(until=0.01)
        assert dep.routing.hops_for("s0", "s1") == ["s1"]

    def test_sro_survives_chain_link_failure(self, make_deployment):
        """A down link between chain members only lengthens the path:
        updates route around it and writes still commit."""
        dep, topo, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        topo.link_between("s0", "s1").set_up(False)
        dep.sim.run(until=0.005)
        dep.manager("s0").register_write(spec, "k", "v")
        dep.sim.run(until=0.1)
        assert all(s.get("k") == "v" for s in dep.sro_stores(spec))


class _ScanEveryTick(CentralController):
    """The link poll as it was: every liveness tick reads every link."""

    def _poll_links(self):
        down_now = {
            frozenset((link.a.name, link.b.name))
            for link in self.deployment.topo.links
            if not link.up
        }
        if down_now != self._known_down_links:
            self._known_down_links = down_now
            self.link_events += 1
            self.deployment.routing.recompute()


class TestLinkPoll:
    """The controller rescans links only when ``Link.set_up`` moved
    ``topo.link_version``; ``recompute()`` and ``link_events`` land on
    the ticks a scan on every tick gives."""

    @staticmethod
    def _run(scan_every_tick, replicas=1):
        sim = Simulator()
        topo = Topology(sim, SeededRng(5))
        switches = build_full_mesh(topo, lambda name: PisaSwitch(name, sim), 4)
        dep = SwiShmemDeployment(sim, topo, switches, controller_replicas=replicas,
                                 lease_duration=1e-3)
        if scan_every_tick:
            for replica in dep.controller.replicas:
                replica.__class__ = _ScanEveryTick
        period = dep.controller.replicas[0].heartbeat_period / 4
        recomputes = []
        recompute = dep.routing.recompute

        def logged():
            recomputes.append(sim.now)
            recompute()

        dep.routing.recompute = logged
        link = topo.link_between("s0", "s1")
        other = topo.link_between("s2", "s3")
        # down and back up between two ticks: no scan may see it
        sim.schedule_at(10.25 * period, link.set_up, False)
        sim.schedule_at(10.75 * period, link.set_up, True)
        # down across ticks, then up; a no-op set_up in between
        sim.schedule_at(20.5 * period, link.set_up, False)
        sim.schedule_at(24.5 * period, other.set_up, True)
        sim.schedule_at(30.5 * period, link.set_up, True)
        # two links down at once, one back up before the next tick
        sim.schedule_at(40.1 * period, link.set_up, False)
        sim.schedule_at(40.2 * period, other.set_up, False)
        sim.schedule_at(40.3 * period, link.set_up, True)
        sim.schedule_at(50.5 * period, other.set_up, True)
        # down across ticks again, with the other link flapping meanwhile
        sim.schedule_at(100.5 * period, link.set_up, False)
        sim.schedule_at(110.25 * period, other.set_up, False)
        sim.schedule_at(110.75 * period, other.set_up, True)
        sim.schedule_at(120.5 * period, link.set_up, True)
        if replicas > 1:
            # the leader dies before the second flap; its successor
            # has never scanned when it first polls
            sim.schedule_at(15.5 * period, dep.controller.crash_replica, 0)
        sim.run(until=160 * period)
        events = [replica.link_events for replica in dep.controller.replicas]
        return recomputes, events, topo.link_version

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_same_ticks_as_a_scan_on_every_tick(self, replicas):
        versioned = self._run(scan_every_tick=False, replicas=replicas)
        assert versioned == self._run(scan_every_tick=True, replicas=replicas)
        assert versioned[2] == 13  # one per set_up

    def test_a_flap_between_two_ticks_is_not_an_event(self):
        recomputes, events, _ = self._run(scan_every_tick=False)
        # down, a no-op, up; two down; one back up; down and up again
        assert events == [6]
        assert len(recomputes) == 6

    def test_a_scan_reads_no_link_while_nothing_changed(self, monkeypatch):
        scans = []
        poll = CentralController._poll_links

        def counted(replica):
            before = replica._links_scanned
            poll(replica)
            if replica._links_scanned != before:
                scans.append(replica.sim.now)

        monkeypatch.setattr(CentralController, "_poll_links", counted)
        self._run(scan_every_tick=False)
        # the first tick, then the first tick after each of the nine
        # tick intervals in which set_up ran — of 160 ticks
        assert len(scans) == 10
