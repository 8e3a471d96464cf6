"""Tests for controller high availability (protocols.election): leases,
epoch fencing, takeover reconstruction, and failover while a recovery is
mid-flight — the control plane half of paper section 6.3, which the
paper leaves as a single point of failure."""

from __future__ import annotations

import pytest

from repro.chaos import FaultInjector, InvariantSuite
from repro.core.registers import Consistency, RegisterSpec
from repro.protocols.election import ControllerCluster
from repro.protocols.messages import ControllerCommand


def fail_and_note(deployment, name):
    deployment.controller.note_failure_time(name)
    deployment.fail_switch(name)


class TestLeaseBasics:
    def test_single_replica_is_seed_compatible(self, make_deployment):
        """A one-replica cluster behaves like the old CentralController:
        leader from t=0, never deposed, solo lease self-extends."""
        dep, _, _ = make_deployment(3)
        cluster = dep.controller
        assert isinstance(cluster, ControllerCluster)
        assert len(cluster.replicas) == 1
        dep.sim.run(until=0.1)  # many lease durations
        assert cluster.active_leader() is cluster.replicas[0]
        assert cluster.leader_changes == 1
        assert cluster.lease_expiries == 0

    def test_replica_zero_leads_initially(self, make_deployment):
        dep, _, _ = make_deployment(3, controller_replicas=3)
        cluster = dep.controller
        assert len(cluster.replicas) == 3
        leader = cluster.active_leader()
        assert leader is not None and leader.replica_id == 0
        assert leader.epoch == cluster.max_epoch == 1
        roles = [r.role for r in cluster.replicas]
        assert roles == ["leader", "standby", "standby"]

    def test_standbys_never_usurp_a_healthy_leader(self, make_deployment):
        dep, _, _ = make_deployment(3, controller_replicas=3)
        dep.sim.run(until=0.1)
        assert dep.controller.leader_changes == 1
        assert dep.controller.active_leader().replica_id == 0

    def test_lease_config_validation(self, make_deployment):
        with pytest.raises(ValueError):
            make_deployment(2, controller_replicas=0)
        dep, _, _ = make_deployment(2, lease_duration=2e-3)
        assert dep.controller.renew_period == pytest.approx(2e-3 / 3)

    def test_stop_cancels_all_replica_timers(self, make_deployment):
        """Satellite 6: teardown leaves no stray controller events — the
        sim queue drains to empty once in-flight work settles."""
        dep, _, _ = make_deployment(3, controller_replicas=3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=0.02)
        dep.shutdown()
        dep.sim.run(until=1.0)
        assert dep.sim.pending() == 0


class TestLeaderFailover:
    def test_crash_promotes_first_standby(self, make_deployment):
        dep, _, _ = make_deployment(3, controller_replicas=3)
        cluster = dep.controller
        dep.sim.run(until=0.01)
        cluster.crash_replica(0)
        crash_at = dep.sim.now
        dep.sim.run(until=crash_at + cluster.failover_bound)
        leader = cluster.active_leader()
        assert leader is not None and leader.replica_id == 1
        assert leader.epoch == cluster.max_epoch == 2
        assert cluster.leader_changes == 2
        activations = [e for e in cluster.leader_log if e[1] == "activate"]
        assert [e[2] for e in activations] == [0, 1]
        # takeover happened after the incumbent's lease provably ran out
        assert activations[1][0] >= crash_at + cluster.takeover_margin

    def test_failover_within_documented_bound(self, make_deployment):
        dep, _, _ = make_deployment(3, controller_replicas=3)
        cluster = dep.controller
        dep.sim.run(until=0.01)
        cluster.crash_replica(0)
        crash_at = dep.sim.now
        dep.sim.run(until=0.1)
        takeover = next(
            t for (t, action, rid, _) in cluster.leader_log
            if action == "activate" and rid != 0
        )
        assert takeover - crash_at <= cluster.failover_bound + 1e-9

    def test_restored_replica_rejoins_as_standby(self, make_deployment):
        dep, _, _ = make_deployment(3, controller_replicas=3)
        cluster = dep.controller
        dep.sim.run(until=0.01)
        cluster.crash_replica(0)
        dep.sim.run(until=0.05)
        successor = cluster.active_leader()
        assert successor.replica_id == 1
        cluster.restore_replica(0)
        dep.sim.run(until=0.15)
        # renewals from the incumbent keep replica 0 quiescent
        assert cluster.active_leader() is successor
        assert [r.replica_id for r in cluster.replicas if r.is_active_leader] == [1]

    def test_partitioned_leader_self_fences_then_standby_takes_over(
        self, make_deployment
    ):
        """A leader cut off from the fabric stops extending its lease
        (no beacons reach it) and self-fences; a connected standby takes
        over.  At no instant are both active."""
        dep, _, _ = make_deployment(3, controller_replicas=2)
        cluster = dep.controller
        suite = InvariantSuite(dep).start(period=0.2e-3)
        # the fault model's own entry point: partition whoever leads at
        # t = 10 ms from switches and peers, heal 40 ms later
        injector = FaultInjector(dep, seed=1)
        injector.partition_controller(at=0.01, duration=0.04)
        dep.sim.run(until=0.045)
        assert cluster.mgmt_blocked(cluster.replicas[0])
        leader = cluster.active_leader()
        assert leader is not None and leader.replica_id == 1
        assert cluster.lease_expiries >= 1
        dep.sim.run(until=0.1)
        # healed: replica 0 rejoins under a fresh epoch (cut off, it saw
        # no renewals and kept standing for election), still one leader
        assert not cluster.mgmt_blocked(cluster.replicas[0])
        assert [r.is_active_leader for r in cluster.replicas].count(True) == 1
        assert [r.kind for r in injector.log] == [
            "controller-partition", "controller-heal",
        ]
        assert [e[1:3] for e in cluster.leader_log if e[1] in ("partition", "heal")] == [
            ("partition", 0), ("heal", 0),
        ]
        report = suite.finalize()
        assert report.ok, report.post_mortems()
        assert report.checks["single_leader"] > 0

    def test_switch_failures_handled_by_successor(self, make_deployment):
        dep, _, _ = make_deployment(4, controller_replicas=2)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=0.01)
        dep.controller.crash_replica(0)
        dep.sim.run(until=0.05)
        fail_and_note(dep, "s3")
        dep.sim.run(until=0.1)
        event = dep.controller.last_failure()
        assert event is not None and event.switch == "s3"
        assert event.epoch == 2  # detected under the successor's reign
        assert "s3" not in dep.chains[spec.group_id]

    def test_writes_commit_under_successor(self, make_deployment):
        dep, _, _ = make_deployment(3, controller_replicas=3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "before", 1)
        dep.sim.run(until=0.01)
        dep.controller.crash_replica(0)
        dep.sim.run(until=0.05)
        dep.manager("s1").register_write(spec, "after", 2)
        dep.sim.run(until=0.1)
        for store in dep.sro_stores(spec):
            assert store.get("before") == 1 and store.get("after") == 2


class TestEpochFencing:
    def _failover(self, make_deployment):
        dep, _, _ = make_deployment(3, controller_replicas=2)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=0.01)
        dep.controller.crash_replica(0)
        dep.sim.run(until=0.05)
        assert dep.controller.active_leader().replica_id == 1
        return dep, spec

    def test_reconstruction_installs_new_epoch_at_switches(self, make_deployment):
        dep, _spec = self._failover(make_deployment)
        for name in dep.switch_names:
            assert dep.manager(name).controller_epoch == 2

    def test_stale_epoch_command_is_fenced(self, make_deployment):
        """A deposed leader's in-flight reconfiguration must not land
        after the successor has taken over."""
        dep, spec = self._failover(make_deployment)
        manager = dep.manager("s1")
        state = manager.sro.groups[spec.group_id]
        chain_before = state.chain
        stale = ControllerCommand(
            epoch=1,  # the deposed leader's reign
            kind="set_chain",
            group=spec.group_id,
            payload=chain_before.without("s2"),
        )
        assert manager.apply_controller_command(stale) is False
        assert manager.fenced_commands == 1
        assert state.chain == chain_before  # untouched

    def test_current_epoch_command_applies(self, make_deployment):
        dep, spec = self._failover(make_deployment)
        manager = dep.manager("s1")
        state = manager.sro.groups[spec.group_id]
        command = ControllerCommand(
            epoch=dep.controller.active_leader().epoch,
            kind="set_chain",
            group=spec.group_id,
            payload=state.chain.without("s1").with_appended("s1"),
        )
        assert manager.apply_controller_command(command) is True
        assert state.chain == command.payload
        # the catch-up status is read off the installed descriptor
        assert state.catching_up is True

    def test_unknown_command_kind_rejected(self, make_deployment):
        dep, spec = self._failover(make_deployment)
        bad = ControllerCommand(epoch=99, kind="reboot", group=spec.group_id)
        with pytest.raises(ValueError):
            dep.manager("s1").apply_controller_command(bad)


class TestReconstruction:
    def test_successor_learns_chain_state_from_switches(self, make_deployment):
        """The new leader's view (chains, failed set) is rebuilt from
        the fabric, not trusted from its own stale copy."""
        dep, _, _ = make_deployment(4, controller_replicas=2)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=0.01)
        fail_and_note(dep, "s2")  # repaired under replica 0's reign
        dep.sim.run(until=0.02)
        assert "s2" not in dep.chains[spec.group_id]
        dep.controller.crash_replica(0)
        dep.sim.run(until=0.06)
        successor = dep.controller.active_leader()
        assert successor.replica_id == 1
        # the dead switch never replied: the successor excised it anew
        assert "s2" in dep.controller._known_failed
        assert "s2" not in dep.chains[spec.group_id]
        # no switch holds a descriptor the successor does not know about
        suite = InvariantSuite(dep)
        suite.check_now()
        assert suite.report.ok, suite.report.post_mortems()

    def test_reconstruction_latency_logged(self, make_deployment):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        dep, _, _ = make_deployment(3, controller_replicas=2, metrics=registry)
        dep.sim.run(until=0.005)
        dep.controller.crash_replica(0)
        dep.sim.run(until=0.05)
        entries = [e for e in dep.controller.leader_log if e[1] == "reconstructed"]
        assert len(entries) == 1
        latency = entries[0][3]
        assert latency == pytest.approx(3 * dep.controller.config_latency)
        histogram = registry.histogram(
            "controller.reconstruction_latency_seconds", "controller"
        )
        assert histogram.count == 1
        assert registry.counter("controller.leader_changes", "controller").value == 2

    def test_recover_request_queued_during_failover_window(self, make_deployment):
        """recover_switch with no active leader queues; the successor
        executes it after reconstruction instead of dropping it."""
        dep, _, _ = make_deployment(3, controller_replicas=2)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=64))
        for i in range(5):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=0.01)
        fail_and_note(dep, "s1")
        dep.sim.run(until=0.02)
        dep.controller.crash_replica(0)
        dep.sim.run(until=0.021)  # dead zone: lease not yet expired over
        assert dep.controller.active_leader() is None
        assert dep.controller.recover_switch("s1") is None
        assert dep.controller.has_pending_recoveries()
        dep.sim.run(until=0.3)
        assert not dep.controller.has_pending_recoveries()
        state = dep.manager("s1").sro.groups[spec.group_id]
        assert state.catching_up is False
        assert all(state.store.get(f"k{i}") == i for i in range(5))


class TestFailoverMidRecovery:
    """The acceptance scenario: the leader dies while a snapshot
    transfer it initiated is still streaming.  The successor must find
    the target stranded in catch-up and re-drive the recovery, losing no
    committed write."""

    def _run(self, seed: int, make=None):
        from repro.core.manager import SwiShmemDeployment
        from repro.net.topology import Topology, build_full_mesh
        from repro.sim.engine import Simulator
        from repro.sim.random import SeededRng
        from repro.switch.pisa import PisaSwitch

        sim = Simulator()
        topo = Topology(sim, SeededRng(seed))
        switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 4)
        dep = SwiShmemDeployment(sim, topo, switches, controller_replicas=3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        suite = InvariantSuite(dep).start(period=1e-3)
        for i in range(120):
            sim.schedule(
                i * 100e-6,
                lambda i=i: dep.manager("s0").register_write(spec, f"k{i}", i),
            )
        sim.run(until=0.05)
        fail_and_note(dep, "s1")
        sim.run(until=0.06)
        dep.controller.recover_switch("s1")
        # the snapshot starts after drain_delay (plus the snapshot-taking
        # control op); kill the leader while entries are still unacked
        kill_at = 0.06 + dep.controller.drain_delay + 30e-6
        at_kill = {}

        def kill_leader():
            transfer = dep.failover.transfer_for(spec.group_id, "s1")
            at_kill["mid_transfer"] = (
                transfer is not None
                and not transfer.done
                and len(transfer.unacked) > 0
            )
            dep.controller.crash_replica(0)

        sim.schedule_at(kill_at, kill_leader)
        # more committed writes while the transfer/failover is in flight
        for i in range(120, 125):
            sim.schedule_at(
                kill_at + (i - 119) * 200e-6,
                lambda i=i: dep.manager("s0").register_write(spec, f"k{i}", i),
            )
        sim.run(until=0.3)
        report = suite.finalize()
        digest = (
            dep.controller.leadership_digest(),
            tuple(round(t, 12) for t in suite.commit_times),
            tuple(sorted(store.items()) for store in dep.sro_stores(spec)),
            sim.events_processed,
        )
        return dep, spec, report, digest, at_kill

    def test_successor_completes_orphaned_recovery(self):
        dep, spec, report, _, at_kill = self._run(seed=11)
        # the crash really landed mid-transfer (entries still unacked)
        assert at_kill["mid_transfer"]
        successor = dep.controller.active_leader()
        assert successor is not None and successor.replica_id == 1
        redriven = [r for r in dep.controller.recoveries if r.redriven]
        assert redriven and redriven[0].switch == "s1"
        state = dep.manager("s1").sro.groups[spec.group_id]
        assert state.catching_up is False
        assert dep.chains[spec.group_id].read_tail == "s1"
        # zero committed-write loss, including writes during failover
        assert all(state.store.get(f"k{i}") == i for i in range(125))
        assert report.ok, report.post_mortems()
        assert report.checks["single_leader"] > 0

    def test_same_seed_identical_histories(self):
        *_rest1, digest_1, _a1 = self._run(seed=12)
        *_rest2, digest_2, _a2 = self._run(seed=12)
        assert digest_1 == digest_2


class TestClusterAggregation:
    def test_event_lists_aggregate_across_replicas(self, make_deployment):
        dep, _, _ = make_deployment(4, controller_replicas=2)
        dep.sim.run(until=0.005)
        fail_and_note(dep, "s2")  # detected by replica 0
        dep.sim.run(until=0.01)
        dep.controller.crash_replica(0)
        dep.sim.run(until=0.05)
        fail_and_note(dep, "s3")  # detected by replica 1
        dep.sim.run(until=0.1)
        switches = [e.switch for e in dep.controller.failures]
        assert switches == ["s2", "s3"]  # sorted by detection time
        epochs = [e.epoch for e in dep.controller.failures]
        assert epochs == [1, 2]
