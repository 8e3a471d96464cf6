"""Tests for the anti-entropy subsystem: digest trees, scrub rounds,
online repair, epoch fencing, and the chaos faults that exercise them
(silent corruption and frozen replicas).

The scrubber's contract: every injected divergence is detected and
healed within its bounded window, repairs never resurrect pre-failover
state (epoch fencing), and scrubbing itself is digest-neutral — a
seeded run replays byte-identically with or without instrumentation.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultInjector, InvariantSuite
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, DigestTree, EwoMode, RegisterSpec
from repro.crdt.clock import Timestamp
from repro.crdt.lww import LwwRegister
from repro.net.topology import Topology, build_full_mesh
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.protocols.antientropy import majority_vote
from repro.protocols.messages import ScrubRepair, WriteRequest, WriteToken
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch


class TestDigestTree:
    def test_equal_sets_equal_roots_any_insertion_order(self):
        a, b = DigestTree(buckets=8), DigestTree(buckets=8)
        items = [(f"k{i}", i * 11) for i in range(20)]
        a.refresh(items)
        b.refresh(list(reversed(items)))
        assert a.node(0, 0) == b.node(0, 0)
        for level in (1, 2, 3):
            for index in range(1 << level):
                assert a.node(level, index) == b.node(level, index)

    def test_single_entry_change_is_incremental(self):
        tree = DigestTree(buckets=8)
        items = dict((f"k{i}", i) for i in range(50))
        tree.refresh(items.items())
        before = tree.refreshed_entries
        items["k7"] = 999
        changed = tree.refresh(items.items())
        assert changed == 1
        assert tree.refreshed_entries == before + 1

    def test_divergent_value_shows_in_exactly_one_bucket(self):
        a, b = DigestTree(buckets=16), DigestTree(buckets=16)
        items = dict((f"k{i}", i) for i in range(40))
        a.refresh(items.items())
        items["k3"] = -1
        b.refresh(items.items())
        assert a.node(0, 0) != b.node(0, 0)
        depth = 16 .bit_length() - 1
        divergent = [
            i for i in range(16) if a.node(depth, i) != b.node(depth, i)
        ]
        assert divergent == [a.bucket_of("k3")]

    def test_removal_restores_digest(self):
        tree = DigestTree(buckets=4)
        tree.refresh([("a", 1)])
        root_one = tree.node(0, 0)
        tree.refresh([("a", 1), ("b", 2)])
        tree.refresh([("a", 1)])
        assert tree.node(0, 0) == root_one
        assert len(tree) == 1

    def test_single_bucket_tree(self):
        tree = DigestTree(buckets=1)
        tree.refresh([("a", 1), ("b", 2)])
        assert tree.depth == 0 and tree.node(0, 0) != 0
        assert len(tree.bucket_entries(0)) == 2

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            DigestTree(buckets=12)


class TestLwwMergeTiebreak:
    """A corrupted replica holds a different value under the same
    version stamp; every replica must still converge to one winner."""

    def test_equal_version_conflict_resolves_to_larger_repr(self):
        stamp = Timestamp(1.0, 0, 0)
        a, b = LwwRegister(), LwwRegister()
        a.write(200, stamp)
        b.write(150, stamp)  # corrupt twin: same stamp, smaller repr
        assert not a.apply(stamp, 150)  # smaller repr loses
        assert b.apply(stamp, 200)
        assert a.read() == b.read() == 200

    def test_equal_version_equal_value_is_noop(self):
        stamp = Timestamp(1.0, 0, 0)
        reg = LwwRegister()
        reg.write(7, stamp)
        assert not reg.apply(stamp, 7)


class TestMajorityVote:
    MEMBERS = ("s0", "s1", "s2", "s3")

    def test_most_common_vote_wins(self):
        votes = {"s0": 7, "s1": 9, "s2": 9, "s3": 9}
        assert majority_vote(self.MEMBERS, votes) == 9

    def test_tie_goes_to_the_earliest_member_in_round_order(self):
        votes = {"s0": 7, "s1": 9, "s2": 9, "s3": 7}
        assert majority_vote(self.MEMBERS, votes) == 7
        # round order, not dict order, decides
        assert majority_vote(("s1", "s0", "s2", "s3"), votes) == 9

    def test_none_means_nobody_voted_or_the_majority_lacks_the_key(self):
        assert majority_vote(self.MEMBERS, {}) is None
        # a voter outside the round is not a vote
        assert majority_vote(self.MEMBERS, {"s9": 7}) is None
        # the key stage votes hash-or-None: most members lack the key
        assert majority_vote(self.MEMBERS, {"s0": None, "s1": None, "s2": 5}) is None
        # ... and a split on it ties to the earliest member, as any vote
        assert majority_vote(self.MEMBERS, {"s0": 5, "s1": None}) == 5
        assert majority_vote(self.MEMBERS, {"s0": None, "s1": 5}) is None


def build(seed, n=3, sync_period=1e-3, **kwargs):
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed))
    switches = build_full_mesh(topo, lambda name: PisaSwitch(name, sim), n)
    dep = SwiShmemDeployment(sim, topo, switches, sync_period=sync_period, **kwargs)
    return dep


class TestScrubRepair:
    def _seeded_sro(self, dep):
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        for i in range(8):
            dep.manager("s0").register_write(spec, f"k{i}", 100 + i)
        dep.sim.run(until=5e-3)
        return spec

    @pytest.mark.parametrize("mid_round", [True, False])
    def test_shutdown_stops_the_scrubber(self, mid_round):
        """``ScrubCoordinator.stop``: after ``shutdown()`` no scrub tick,
        query, reply or stage-finish reschedules anything — the queue
        drains to empty, a round in flight at shutdown included."""
        dep = build(seed=11)
        self._seeded_sro(dep)
        scrubber = dep.start_scrubbing()
        # a round starts every period; its stages take 2 x config_latency
        dep.sim.run(
            until=dep.sim.now + 3 * scrubber.period + (50e-6 if mid_round else 1e-3)
        )
        assert bool(scrubber._rounds) is mid_round
        rounds = scrubber.stats.rounds_started
        assert rounds >= 1
        dep.shutdown()
        dep.sim.run(until=1.0)
        assert dep.sim.pending() == 0
        assert scrubber.stats.rounds_started == rounds
        assert not scrubber._rounds

    def test_sro_corruption_detected_and_repaired(self):
        dep = build(seed=11)
        spec = self._seeded_sro(dep)
        scrubber = dep.start_scrubbing()
        FaultInjector(dep, seed=3).corrupt_register(6e-3, "s1", spec.group_id, key="k2")
        suite = InvariantSuite(dep).start(period=1e-3)
        dep.sim.run(until=0.05)
        report = suite.finalize()
        assert report.ok, report.summary()
        (event,) = dep.divergence_log
        assert event.kind == "corrupt" and event.key == "k2"
        assert event.detected and event.healed
        assert event.detected_at <= event.healed_at <= event.at + scrubber.heal_bound
        assert scrubber.stats.repairs_sent >= 1
        stores = list(dep.sro_stores(spec))
        assert stores[0] == stores[1] == stores[2]
        assert stores[0]["k2"] == 102  # the true value, not the corruption

    def test_corruption_without_scrubber_is_a_lost_write(self):
        """Corruption with no scrubber running: the divergence-healed
        monitor only arms once scrubbing starts, so the corruption is
        exactly a silently lost committed write at finalize."""
        dep = build(seed=11)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        suite = InvariantSuite(dep).start(period=1e-3)
        for i in range(8):
            dep.manager("s0").register_write(spec, f"k{i}", 100 + i)
        dep.sim.schedule_at(
            6e-3,
            lambda: FaultInjector(dep, seed=3)._corrupt_register(
                "s1", spec.group_id, "k2"
            ),
        )
        dep.sim.run(until=0.03)
        report = suite.finalize()
        assert not report.ok
        assert any(v.monitor == "no_lost_write" for v in report.violations)

    def test_ewo_counter_corruption_heals_through_forced_sync(self):
        # gossip effectively off: only the scrubber's forced syncs heal
        dep = build(seed=11, sync_period=10.0)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        for name in dep.switch_names:
            dep.manager(name).register_increment(spec, "c", 7)
        dep.sim.run(until=3e-3)
        for a in dep.switch_names:  # replicas agree before the fault
            for b in dep.switch_names:
                if a != b:
                    dep.manager(a).ewo.force_sync(spec.group_id, b)
        dep.sim.run(until=6e-3)
        scrubber = dep.start_scrubbing()
        FaultInjector(dep, seed=3).corrupt_register(7e-3, "s1", spec.group_id, key="c")
        suite = InvariantSuite(dep).start(period=1e-3)
        dep.sim.run(until=0.05)
        report = suite.finalize()
        assert report.ok, report.summary()
        (event,) = dep.divergence_log
        assert event.healed
        assert scrubber.stats.forced_syncs > 0
        values = [
            dep.manager(n).ewo.local_state(spec.group_id)["c"]
            for n in dep.switch_names
        ]
        assert values == [21, 21, 21]

    def test_lww_corruption_heals_and_converges(self):
        dep = build(seed=11, sync_period=10.0)
        spec = dep.declare(RegisterSpec("lww", Consistency.EWO, ewo_mode=EwoMode.LWW))
        dep.manager("s0").register_write(spec, "c", 42)
        dep.sim.run(until=3e-3)
        for a in dep.switch_names:
            for b in dep.switch_names:
                if a != b:
                    dep.manager(a).ewo.force_sync(spec.group_id, b)
        dep.sim.run(until=6e-3)
        dep.start_scrubbing()
        FaultInjector(dep, seed=3).corrupt_register(7e-3, "s1", spec.group_id, key="c")
        suite = InvariantSuite(dep).start(period=1e-3)
        dep.sim.run(until=0.05)
        report = suite.finalize()
        assert report.ok, report.summary()
        assert dep.divergence_log[0].healed
        values = {
            repr(dep.manager(n).ewo.local_state(spec.group_id)["c"])
            for n in dep.switch_names
        }
        assert len(values) == 1  # converged (tiebreak picks one winner)

    def test_equal_value_seq_hole_is_detected_and_unwedges_chain(self):
        # Regression: a frozen member that drops the apply of a
        # *same-value* rewrite ends up value-identical to the rest of
        # the chain but with a hole in its apply progress.  Value-only
        # digests scrub it clean, and the in-order apply check then
        # refuses every later seq — wedging the slot permanently.
        # Digesting (value, applied_seq) makes the hole visible so the
        # repair force-applies the missing seq.
        dep = build(seed=11)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        dep.manager("s0").register_write(spec, "k", 5)
        dep.sim.run(until=4e-3)
        dep.start_scrubbing()
        FaultInjector(dep, seed=3).stale_replica(
            5e-3, "s1", spec.group_id, duration=3e-3
        )
        # Rewrite the same value while s1 is frozen: s1 drops seq 2 but
        # forwards it, so the write commits and every store still reads 5.
        dep.sim.schedule_at(
            6e-3, lambda: dep.manager("s0").register_write(spec, "k", 5)
        )
        dep.sim.run(until=20e-3)
        state = dep.manager("s1").sro.groups[spec.group_id]
        slot = state.pending.slot_of("k")
        assert state.chaos_frozen_drops > 0
        assert state.pending.applied_seq(slot) == 2  # hole healed by scrub
        # The slot is not wedged: a later write flows through s1 in
        # order, commits, and lands on every member.
        dep.manager("s0").register_write(spec, "k", 7)
        dep.sim.run(until=30e-3)
        assert all(store["k"] == 7 for store in dep.sro_stores(spec))
        for name in dep.switch_names:
            member = dep.manager(name).sro.groups[spec.group_id]
            assert member.pending.applied_seq(slot) == 3

    def test_stale_replica_heals_after_thaw(self):
        dep = build(seed=11)
        spec = self._seeded_sro(dep)
        scrubber = dep.start_scrubbing()
        FaultInjector(dep, seed=3).stale_replica(
            6e-3, "s1", spec.group_id, duration=4e-3
        )
        counter = [0]

        def writes():
            counter[0] += 1
            dep.manager("s0").register_write(spec, f"k{counter[0] % 8}", counter[0])
            if dep.sim.now < 15e-3:
                dep.sim.schedule(400e-6, writes)

        dep.sim.schedule_at(6.5e-3, writes)
        suite = InvariantSuite(dep).start(period=1e-3)
        dep.sim.run(until=0.06)
        report = suite.finalize()
        assert report.ok, report.summary()
        (event,) = dep.divergence_log
        assert event.kind == "stale"
        assert event.at >= 10e-3  # heal clock starts at thaw
        assert event.healed
        deadline = event.deadline or event.at + scrubber.heal_bound
        assert event.healed_at <= deadline
        assert dep.manager("s1").sro.groups[spec.group_id].chaos_frozen_drops > 0
        stores = list(dep.sro_stores(spec))
        assert stores[0] == stores[1] == stores[2]

    def test_orset_corruption_is_rejected(self):
        dep = build(seed=11)
        spec = dep.declare(
            RegisterSpec("s", Consistency.EWO, ewo_mode=EwoMode.ORSET)
        )
        injector = FaultInjector(dep, seed=3)
        with pytest.raises(ValueError):
            injector._corrupt_register("s0", spec.group_id, None)

    def test_stale_repair_epoch_is_fenced(self):
        dep = build(seed=11)
        spec = self._seeded_sro(dep)
        agent = dep.manager("s1").scrub
        state = dep.manager("s1").sro.groups[spec.group_id]
        before = dict(state.store)
        repair = ScrubRepair(
            group=spec.group_id,
            key="k2",
            value=-1,
            seq=10_000,
            slot=0,
            source="s0",
            epoch=state.chain.version - 1,  # pre-failover epoch
        )
        agent.handle_repair(repair)
        assert state.store == before
        assert agent.repairs_fenced == 1

    def test_scrub_round_fences_on_reconfiguration(self):
        """A chain reconfiguration racing a scrub round aborts the round
        instead of repairing against a stale membership view."""
        dep = build(seed=11)
        spec = self._seeded_sro(dep)
        scrubber = dep.start_scrubbing()
        dep.sim.schedule(6.05e-3, lambda: dep.fail_switch("s2"))
        dep.sim.schedule(
            6.05e-3, lambda: dep.controller.note_failure_time("s2")
        )
        dep.sim.run(until=0.05)
        # scrubbing kept running with the surviving pair and stayed clean
        assert scrubber.stats.rounds_started > 5
        assert scrubber.stats.rounds_diverged == 0


class TestScrubDeterminism:
    def _chaos_run(self, seed, metrics=None, flightrec=None):
        kwargs = {}
        if metrics is not None:
            kwargs["metrics"] = metrics
        if flightrec is not None:
            kwargs["flight_recorder"] = flightrec
        dep = build(seed, n=4, **kwargs)
        sro = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        ctr = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        injector = FaultInjector(dep, seed=seed)
        injector.schedule_random(
            start=5e-3, horizon=30e-3,
            crashes=0, flaps=0, bursts=1, partitions=0,
            corruptions=2, stale_replicas=1,
            burst_loss=0.2, protect=["s0"],
        )
        dep.start_scrubbing()
        suite = InvariantSuite(dep).start(period=1e-3)
        counter = [0]

        def workload():
            i = counter[0]
            counter[0] += 1
            dep.manager("s0").register_write(sro, f"k{i % 8}", i)
            dep.manager(f"s{i % 3}").register_increment(ctr, "c", 1)
            if dep.sim.now < 40e-3:
                dep.sim.schedule(500e-6, workload)

        dep.sim.schedule(1e-3, workload)
        dep.sim.run(until=0.09)
        report = suite.finalize()
        digest = (
            injector.log_digest(),
            tuple(
                (e.kind, e.group, e.switch, round(e.at, 12))
                for e in dep.divergence_log
            ),
            tuple(sorted(store.items()) for store in dep.sro_stores(sro)),
            dep.sim.events_processed,
        )
        return report, digest, dep

    def test_chaos_with_scrubbing_ends_with_zero_divergence(self):
        report, _digest, dep = self._chaos_run(seed=9)
        assert report.ok, report.summary()
        assert len(dep.divergence_log) >= 3
        assert all(e.detected and e.healed for e in dep.divergence_log)
        assert not any(e.violated for e in dep.divergence_log)

    def test_identical_seeds_identical_digests(self):
        _r1, d1, _ = self._chaos_run(seed=14)
        _r2, d2, _ = self._chaos_run(seed=14)
        assert d1 == d2

    def test_instrumentation_is_digest_neutral(self):
        _r1, bare, _ = self._chaos_run(seed=14)
        _r2, instrumented, _ = self._chaos_run(
            seed=14, metrics=MetricsRegistry(), flightrec=FlightRecorder()
        )
        assert bare == instrumented


class TestRetryBackoffJitter:
    def _lossy_run(self, seed):
        dep = build(seed, sync_period=1e-3)
        for link in dep.topo.links:
            link.ab.loss_rate = link.ba.loss_rate = 0.3
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        for i in range(12):
            dep.sim.schedule(
                i * 200e-6,
                lambda i=i: dep.manager(f"s{i % 3}").register_write(
                    spec, f"k{i}", i
                ),
            )
        dep.sim.run(until=2.0)
        retries = sum(
            dep.manager(n).sro.stats_for(spec.group_id).retries
            for n in dep.switch_names
        )
        return retries, dep.sim.events_processed, list(dep.sro_stores(spec))

    def test_jittered_retries_replay_byte_identically(self):
        r1 = self._lossy_run(seed=77)
        r2 = self._lossy_run(seed=77)
        assert r1 == r2
        assert r1[0] > 0  # retries (and thus jitter draws) actually happened

    def test_jitter_stream_untouched_without_retries(self):
        import random

        from repro.sim.random import derive_seed

        dep = build(seed=5)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=10e-3)
        engine = dep.manager("s0").sro
        pristine = random.Random(derive_seed(5, "sro-backoff:s0"))
        assert engine._backoff_rng.getstate() == pristine.getstate()


class TestDedupEviction:
    def _commit_one(self, dep, spec, key, value):
        dep.manager("s0").register_write(spec, key, value)
        dep.sim.run(until=dep.sim.now + 5e-3)

    def test_epoch_eviction_waits_for_retry_horizon(self):
        from repro.protocols.sro import RETRY_HORIZON

        dep = build(seed=5)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        self._commit_one(dep, spec, "k", 1)
        head = dep.chains[spec.group_id].head
        state = dep.manager(head).sro.groups[spec.group_id]
        assert len(state.dedup) == 1
        # two epochs later but inside the retry horizon: entry survives
        assert state.evict_dedup_epochs(state.chain.version + 2, dep.sim.now) == 0
        assert len(state.dedup) == 1
        # past the horizon: evicted
        evicted = state.evict_dedup_epochs(
            state.chain.version + 2, dep.sim.now + RETRY_HORIZON + 1.0
        )
        assert evicted == 1 and len(state.dedup) == 0
        assert state.dedup_evictions == 1

    def test_retry_of_evicted_committed_write_is_safe(self):
        """A duplicate of a committed-and-evicted plain write gets
        re-sequenced; the value is identical, so replicas stay correct
        and converged."""
        dep = build(seed=5)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        self._commit_one(dep, spec, "k", 7)
        head = dep.chains[spec.group_id].head
        engine = dep.manager(head).sro
        state = engine.groups[spec.group_id]
        (token,) = state.dedup
        state.dedup.clear()  # simulate epoch eviction after commit
        duplicate = WriteRequest(
            group=spec.group_id, key="k", value=7, token=token, attempt=1
        )
        engine._receive_write_request(duplicate)
        dep.sim.run(until=dep.sim.now + 5e-3)
        stores = list(dep.sro_stores(spec))
        assert stores[0] == stores[1] == stores[2] == {"k": 7}

    def test_fifo_capacity_bound_holds(self):
        dep = build(seed=5)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        head_name = dep.chains[spec.group_id].head
        state = dep.manager(head_name).sro.groups[spec.group_id]
        for i in range(state.dedup_capacity + 10):
            state.remember_token(
                WriteToken("w", i), seq=i, slot=0, value=i, now=0.0
            )
        assert len(state.dedup) == state.dedup_capacity
        assert state.dedup_evictions == 10


class TestOverlappingLossBursts:
    def test_overlapping_bursts_restore_true_base_rates(self):
        """Two bursts overlapping in time on links with a nonzero base
        loss rate: while both are live the max rate rules; when the
        longer one ends, every link returns to its true pre-burst rate —
        not to the first burst's rate, and not to zero."""
        dep = build(seed=5)
        for link in dep.topo.links:
            link.ab.loss_rate = link.ba.loss_rate = 0.02
        injector = FaultInjector(dep, seed=7)
        injector.loss_burst(1e-3, duration=6e-3, loss_rate=0.5)
        injector.loss_burst(2e-3, duration=2e-3, loss_rate=0.9)
        samples = {}

        def sample(label):
            samples[label] = [
                (link.ab.loss_rate, link.ba.loss_rate)
                for link in dep.topo.links
            ]

        dep.sim.schedule_at(3e-3, sample, "both")      # both bursts live
        dep.sim.schedule_at(5e-3, sample, "first")     # short burst over
        dep.sim.schedule_at(8e-3, sample, "restored")  # all over
        dep.sim.run(until=0.02)
        assert all(pair == (0.9, 0.9) for pair in samples["both"])
        assert all(pair == (0.5, 0.5) for pair in samples["first"])
        assert all(pair == (0.02, 0.02) for pair in samples["restored"])
        kinds = [r.kind for r in injector.log]
        assert kinds.count("loss-burst") == 2
        assert kinds.count("loss-burst-end") == 2

    def test_burst_bookkeeping_empties_after_restore(self):
        dep = build(seed=5)
        injector = FaultInjector(dep, seed=7)
        injector.loss_burst(1e-3, duration=2e-3, loss_rate=0.5)
        injector.loss_burst(1.5e-3, duration=2e-3, loss_rate=0.3)
        dep.sim.run(until=0.01)
        assert not injector._burst_base
        assert not injector._burst_active
        assert all(
            link.ab.loss_rate == 0.0 and link.ba.loss_rate == 0.0
            for link in dep.topo.links
        )
