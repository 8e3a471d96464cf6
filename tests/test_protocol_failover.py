"""Tests for failure handling and recovery (paper section 6.3)."""

from __future__ import annotations

import pytest

from repro.core.registers import Consistency, EwoMode, RegisterSpec


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
        state.chaos_drop_applies = 1
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

    def test_recover_unfailed_switch_rejected(self, make_deployment):
        dep, _, _ = make_deployment(2)
        with pytest.raises(ValueError):
            dep.controller.recover_switch("s0")


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
        dep.manager("s1").register_increment(spec, "k", 1)
        dep.sim.run(until=0.1)
        stats = dep.manager("s1").ewo.stats_for(spec.group_id)
        assert stats.sync_packets_sent > 0


class TestRoutingRepair:
    def test_traffic_reroutes_around_failed_switch(self, make_deployment):
        """'We regain connectivity by reprogramming the routing of the
        failed switch neighbors.'"""
        dep, topo, switches = make_deployment(4)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.01)
        # full mesh: s0 still reaches s2 directly; routing table reflects it
        assert dep.routing.next_hop("s0", "s2") == "s2"
        assert dep.routing.next_hop("s0", "s1") is None
