"""Tests for the anti-entropy subsystem: digest trees, scrub rounds,
online repair, epoch fencing, and the chaos faults that exercise them
(silent corruption and frozen replicas).

The scrubber's contract: every injected divergence is detected and
healed within its bounded window, repairs never resurrect pre-failover
state (epoch fencing), and scrubbing itself is digest-neutral — a
seeded run replays byte-identically with or without instrumentation.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chaos import FaultInjector, InvariantSuite
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, DigestTree, EwoMode, RegisterSpec
from repro.crdt.clock import Timestamp
from repro.crdt.gcounter import GCounter
from repro.crdt.lww import LwwRegister
from repro.net.topology import Topology, build_full_mesh
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.protocols import antientropy
from repro.protocols.antientropy import majority_vote
from repro.protocols.messages import ScrubRepair, WriteRequest, WriteToken
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch


class TestDigestTree:
    def test_equal_sets_equal_roots_any_insertion_order(self):
        a, b = DigestTree(), DigestTree()
        items = [(f"k{i}", i * 11) for i in range(20)]
        a.refresh(items)
        b.refresh(list(reversed(items)))
        assert a.root == b.root
        for index in range(DigestTree.BUCKETS):
            assert a.bucket(index) == b.bucket(index)

    def test_single_entry_change_is_incremental(self):
        tree = DigestTree()
        items = dict((f"k{i}", i) for i in range(50))
        tree.refresh(items.items())
        before = tree.refreshed_entries
        items["k7"] = 999
        changed = tree.refresh(items.items())
        assert changed == 1
        assert tree.refreshed_entries == before + 1

    def test_divergent_value_shows_in_exactly_one_bucket(self):
        a, b = DigestTree(), DigestTree()
        items = dict((f"k{i}", i) for i in range(40))
        a.refresh(items.items())
        items["k3"] = -1
        b.refresh(items.items())
        assert a.root != b.root
        divergent = [
            i for i in range(DigestTree.BUCKETS) if a.bucket(i) != b.bucket(i)
        ]
        assert divergent == [a.bucket_of("k3")]

    def test_removal_restores_digest(self):
        tree = DigestTree()
        tree.refresh([("a", 1)])
        root_one = tree.root
        tree.refresh([("a", 1), ("b", 2)])
        assert tree.root != root_one
        tree.refresh([("a", 1)])
        assert tree.root == root_one
        assert len(tree) == 1

    def test_agent_answers_root_at_level_zero_and_buckets_below(self):
        """The wire levels stay 0 (root) and 4 (buckets)."""
        dep = build(seed=5)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=0.01)
        agent = dep.manager("s1").scrub
        tree = agent.tree(spec.group_id)
        assert agent.digest_nodes(spec.group_id, 0, (0,)) == ((0, tree.root),)
        buckets = tuple(range(DigestTree.BUCKETS))
        assert agent.digest_nodes(spec.group_id, DigestTree.BUCKET_LEVEL, buckets) == (
            tuple((i, tree.bucket(i)) for i in buckets)
        )
        assert DigestTree.BUCKETS == 1 << DigestTree.BUCKET_LEVEL


class TestLwwMergeTiebreak:
    """A corrupted replica holds a different value under the same
    version stamp.  Gossip cannot tell which side is corrupt, so a merge
    keeps the local value and spreads neither; only a decided scrub
    repair (``repair``) overwrites an equal stamp."""

    def test_equal_version_conflict_keeps_the_local_value(self):
        stamp = Timestamp(1.0, 0, 0)
        a, b = LwwRegister(), LwwRegister()
        a.write(200, stamp)
        b.write(150, stamp)  # corrupt twin: same stamp
        assert not a.apply(stamp, 150)
        assert not b.apply(stamp, 200)
        assert (a.read(), b.read()) == (200, 150)

    def test_a_decided_repair_overwrites_an_equal_stamp_not_a_newer_one(self):
        old, stamp, new = Timestamp(0.5, 0, 1), Timestamp(1.0, 0, 0), Timestamp(2.0, 0, 2)
        reg = LwwRegister()
        reg.write(150, stamp)
        assert reg.repair(stamp, 200) and reg.read() == 200
        assert not reg.repair(stamp, 200)  # already right: no change
        assert not reg.repair(old, 7) and reg.read() == 200
        assert reg.repair(new, 9) and reg.read() == 9
        counter = GCounter(3, 0)
        counter.apply(1, 5)
        assert not counter.repair(1, 4) and counter.repair(1, 6)  # a max-merge
        assert counter.vector() == [0, 6, 0]

    def test_equal_version_equal_value_is_noop(self):
        stamp = Timestamp(1.0, 0, 0)
        reg = LwwRegister()
        reg.write(7, stamp)
        assert not reg.apply(stamp, 7)


class TestMajorityVote:
    MEMBERS = ("s0", "s1", "s2", "s3")

    def test_most_common_vote_wins(self):
        votes = {"s0": 7, "s1": 9, "s2": 9, "s3": 9}
        assert majority_vote(self.MEMBERS, votes) == (9, True)
        assert majority_vote(self.MEMBERS, {"s0": 7}) == (7, True)

    def test_a_tie_names_the_earliest_member_and_decides_nothing(self):
        votes = {"s0": 7, "s1": 9, "s2": 9, "s3": 7}
        assert majority_vote(self.MEMBERS, votes) == (7, False)
        # round order, not dict order, names the source's side
        assert majority_vote(("s1", "s0", "s2", "s3"), votes) == (9, False)
        # a 2-member split is a tie too: the head side is not proven right
        assert majority_vote(("s0", "s1"), {"s0": 103, "s1": 102}) == (103, False)

    def test_none_means_nobody_voted_or_the_majority_lacks_the_key(self):
        assert majority_vote(self.MEMBERS, {}) == (None, False)
        # a voter outside the round is not a vote
        assert majority_vote(self.MEMBERS, {"s9": 7}) == (None, False)
        # the key stage votes hash-or-None: most members lack the key
        assert majority_vote(self.MEMBERS, {"s0": None, "s1": None, "s2": 5}) == (None, True)
        # ... and a split on it ties to the earliest member, as any vote
        assert majority_vote(self.MEMBERS, {"s0": 5, "s1": None}) == (5, False)
        assert majority_vote(self.MEMBERS, {"s0": None, "s1": 5}) == (None, False)


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
        assert report.ok, report.post_mortems()
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

    def test_ewo_counter_corruption_heals_through_scrub_repair(self):
        # gossip effectively off: only the scrubber's repair heals (the
        # increments' own broadcasts converge the replicas beforehand)
        dep = build(seed=11, sync_period=10.0)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        for name in dep.switch_names:
            dep.manager(name).register_increment(spec, "c", 7)
        dep.sim.run(until=6e-3)
        scrubber = dep.start_scrubbing()
        FaultInjector(dep, seed=3).corrupt_register(7e-3, "s1", spec.group_id, key="c")
        suite = InvariantSuite(dep).start(period=1e-3)
        dep.sim.run(until=0.05)
        report = suite.finalize()
        assert report.ok, report.post_mortems()
        (event,) = dep.divergence_log
        assert event.healed
        assert scrubber.stats.repairs_sent > 0
        values = [
            dep.manager(n).ewo.local_state(spec.group_id)["c"]
            for n in dep.switch_names
        ]
        assert values == [21, 21, 21]

    def test_lww_corruption_heals_and_converges(self):
        dep = build(seed=11, sync_period=10.0)
        spec = dep.declare(RegisterSpec("lww", Consistency.EWO, ewo_mode=EwoMode.LWW))
        dep.manager("s0").register_write(spec, "c", 42)
        dep.sim.run(until=6e-3)
        dep.start_scrubbing()
        FaultInjector(dep, seed=3).corrupt_register(7e-3, "s1", spec.group_id, key="c")
        suite = InvariantSuite(dep).start(period=1e-3)
        dep.sim.run(until=0.05)
        report = suite.finalize()
        assert report.ok, report.post_mortems()
        assert dep.divergence_log[0].healed
        values = [
            dep.manager(n).ewo.local_state(spec.group_id)["c"]
            for n in dep.switch_names
        ]
        assert values == [42, 42, 42]

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
        injector = FaultInjector(dep, seed=3)
        injector.stale_replica(5e-3, "s1", spec.group_id, duration=3e-3)
        # Rewrite the same value while s1 is frozen: s1 drops seq 2 but
        # forwards it, so the write commits and every store still reads 5.
        dep.sim.schedule_at(
            6e-3, lambda: dep.manager("s0").register_write(spec, "k", 5)
        )
        dep.sim.run(until=20e-3)
        state = dep.manager("s1").sro.groups[spec.group_id]
        slot = state.pending.slot_of("k")
        assert injector.lost_applies()[("s1", spec.group_id)] > 0
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
        injector = FaultInjector(dep, seed=3)
        injector.stale_replica(6e-3, "s1", spec.group_id, duration=4e-3)
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
        assert report.ok, report.post_mortems()
        (event,) = dep.divergence_log
        assert event.kind == "stale"
        assert event.at >= 10e-3  # heal clock starts at thaw
        assert event.healed
        deadline = event.deadline or event.at + scrubber.heal_bound
        assert event.healed_at <= deadline
        assert injector.lost_applies()[("s1", spec.group_id)] > 0
        stores = list(dep.sro_stores(spec))
        assert stores[0] == stores[1] == stores[2]

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

    def test_an_aborted_round_gives_outstanding_divergence_a_fresh_heal_window(self):
        """A round that aborts through no fault of the divergence (here a
        member fails mid-round) restarts the heal bound of every event
        still outstanding in its group, and the next round heals it."""
        dep = build(seed=11)
        spec = self._seeded_sro(dep)
        scrubber = dep.start_scrubbing()
        FaultInjector(dep, seed=11).corrupt_register(6.0e-3, "s1", spec.group_id, "k3")
        dep.sim.schedule(6.05e-3, lambda: dep.fail_switch("s2"))
        dep.sim.schedule(6.05e-3, lambda: dep.controller.note_failure_time("s2"))
        dep.sim.run(until=0.05)
        assert scrubber.stats.rounds_aborted == 1
        (event,) = dep.divergence_log
        assert event.deadline > event.at + scrubber.heal_bound
        assert event.healed and event.healed_at <= event.deadline


class TestHealedMeansRight:
    """A heal must leave every replica on the truth, not merely in
    agreement: a vote names the victim only while the corruption is in
    the minority, gossip never spreads an equal-stamp conflict, and a
    tie decides nothing."""

    # The fault seeds whose flip of 42 out-ranks it by ``repr`` — the
    # value an equal-stamp ``repr`` tiebreak spread to every replica.
    LWW_SEEDS = (1, 4, 9, 10, 12, 14, 15, 18)

    @pytest.mark.parametrize("sync_period", [1e-3, 10.0], ids=["gossip", "no-gossip"])
    @pytest.mark.parametrize("fault_seed", LWW_SEEDS)
    def test_lww_corruption_heals_to_the_written_value(self, fault_seed, sync_period):
        dep = build(seed=11, sync_period=sync_period)
        spec = dep.declare(RegisterSpec("lww", Consistency.EWO, ewo_mode=EwoMode.LWW))
        dep.manager("s0").register_write(spec, "c", 42)
        dep.sim.run(until=6e-3)
        dep.start_scrubbing()
        FaultInjector(dep, seed=fault_seed).corrupt_register(
            7e-3, "s1", spec.group_id, key="c"
        )
        suite = InvariantSuite(dep).start(period=1e-3)
        dep.sim.run(until=0.05)
        report = suite.finalize()
        assert report.ok, report.post_mortems()
        cells = [dep.manager(n).ewo.groups[spec.group_id].cells["c"] for n in dep.switch_names]
        assert [cell.read() for cell in cells] == [42, 42, 42]
        (event,) = dep.divergence_log
        assert event.healed and event.entry[1] != 42
        assert all(cell.entries() != [event.entry] for cell in cells)

    def _two_member_chain(self, victim):
        dep = build(seed=11, n=2)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=256))
        for i in range(8):
            dep.manager("s0").register_write(spec, f"k{i}", 100 + i)
        dep.sim.run(until=5e-3)
        assert dep.chains[spec.group_id].members == ("s0", "s1")
        dep.start_scrubbing()
        FaultInjector(dep, seed=3).corrupt_register(6e-3, victim, spec.group_id, key="k2")
        suite = InvariantSuite(dep).start(period=1e-3)
        return dep, spec, suite

    @pytest.mark.parametrize("victim", ["s0", "s1"], ids=["head", "tail"])
    def test_a_two_member_tie_is_reported_not_guessed(self, victim):
        """Head and tail disagree at one seq: nothing says which is
        corrupt.  The other member never takes the corrupted value, and
        the event is reported unhealed instead of healed wrong."""
        dep, spec, suite = self._two_member_chain(victim)
        (other,) = {"s0", "s1"} - {victim}
        seen = []

        def sample():
            seen.append(dep.manager(other).sro.groups[spec.group_id].store["k2"])
            if dep.sim.now < 0.049:
                dep.sim.schedule(250e-6, sample)

        dep.sim.schedule_at(6.1e-3, sample)
        dep.sim.run(until=0.05)
        report = suite.finalize()
        (event,) = dep.divergence_log
        assert event.detected and not event.healed and event.violated
        assert [v.monitor for v in report.violations] == ["divergence_healed"]
        assert "unhealed" in report.violations[0].detail
        assert seen and set(seen) == {102}
        assert dep.manager(other).scrub.repairs_applied == 0

    def test_a_heal_onto_the_corrupted_value_is_a_violation(self, monkeypatch):
        """Restore the old head-wins tie (every vote decided): the
        corrupted head wins its first round and counts as healed, then
        the tail is 'repaired' to the flip — the healed-right check must
        refuse that heal."""
        real_vote = antientropy.majority_vote
        monkeypatch.setattr(
            antientropy, "majority_vote",
            lambda members, votes: (real_vote(members, votes)[0], True),
        )
        dep, spec, suite = self._two_member_chain("s0")
        dep.sim.run(until=0.05)
        report = suite.finalize()
        (event,) = dep.divergence_log
        assert event.healed  # agreed...
        stores = list(dep.sro_stores(spec))
        assert stores[0]["k2"] == stores[1]["k2"] == event.entry[1] != 102  # ...on the flip
        (violation,) = report.violations
        assert violation.monitor == "divergence_healed"
        assert "healed, yet s0 still hold(s) the corrupted entry" in violation.detail


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
        return report, digest, dep, injector

    def test_chaos_with_scrubbing_ends_with_zero_divergence(self):
        report, _digest, dep, _ = self._chaos_run(seed=9)
        assert report.ok, report.post_mortems()
        assert len(dep.divergence_log) >= 3
        assert all(e.detected and e.healed for e in dep.divergence_log)
        assert not any(e.violated for e in dep.divergence_log)

    def test_identical_seeds_identical_digests(self):
        _r1, d1, _, _ = self._chaos_run(seed=14)
        _r2, d2, _, _ = self._chaos_run(seed=14)
        assert d1 == d2

    def test_instrumentation_is_digest_neutral(self):
        _r1, bare, _, _ = self._chaos_run(seed=14)
        _r2, instrumented, _, _ = self._chaos_run(
            seed=14, metrics=MetricsRegistry(), flightrec=FlightRecorder()
        )
        assert bare == instrumented


def chaos_outcome(injector, recorder):
    """What a silent-divergence chaos run leaves behind: the fault log,
    the divergence log, every replica (hashed), the applies each
    (switch, group) lost, and the flight-recorder span stream (count and
    hash: ids, parents, Lamport stamps, names, times, attributes)."""
    dep = injector.deployment
    replicas = [
        (name, group_id, sorted(engine.groups[group_id].canonical_items(), key=repr))
        for name in dep.switch_names
        for engine in (dep.manager(name).sro, dep.manager(name).ewo)
        for group_id in sorted(engine.groups)
    ]
    spans = [
        (s.trace_id, s.span_id, s.parent_id, s.lamport, s.name, s.node,
         s.time.hex(), s.group, repr(s.key), repr(s.attrs))
        for s in recorder.spans
    ]
    return dict(
        log=injector.log_digest(),
        divergence=tuple(
            (e.kind, e.switch, e.group, repr(e.key), e.at, e.healed_at)
            for e in dep.divergence_log
        ),
        stores=hashlib.sha256(repr(replicas).encode()).hexdigest(),
        lost=injector.lost_applies(),
        spans=(recorder.recorded, hashlib.sha256(repr(spans).encode()).hexdigest()),
    )


class TestPinnedChaosOutcomes:
    """What must not move when the faults leave the protocol engines for
    the manager's receive slot: literals captured while
    ``drop_chain_applies`` and ``stale_replica`` still lived inside
    ``SroEngine``, ``EwoEngine`` and ``ScrubAgent``.  Every world freezes
    or drops on a non-head member of a register-array group, which both
    placements treat alike.  Re-captured when regular EWO sync rounds
    became digest-gated pulls: ``spans``, ``lost`` and chaos_run 11's
    EWO heal times moved; every fault log and store hash did not.  The
    ``spans`` hashes alone were re-captured again when a counter update
    entry stopped carrying its slot: smaller EWO packets shift span
    times and byte counts, not the span count or anything else here.
    Seed 3's ``spans`` were re-captured when a member's catch-up status
    moved onto the chain descriptor: the two commands that flagged it
    (a send and an apply each) are gone, and a completed catch-up no
    longer bumps the chain version, so later spans carry an epoch one
    lower.  Every ``spans`` hash and chaos_run 3's ``lost`` were
    re-captured when EWO repair became a ``ScrubRepair`` and a tied vote
    stopped deciding: seed 3's forced merge-syncs (which the frozen
    replica lost entry by entry) became per-key repairs, and in the
    other worlds a 2-2 digest or key vote now lists every tied member as
    divergent.  No fault log, divergence heal time or store hash moved."""

    PINNED = {
        ("chaos_run", 3): dict(
            log=(
                (0.0051398161501115015, "corrupt", "s3 group 2 key 'c' slot 2 (counter)"),
                (0.006621059947358935, "corrupt", "s3 group 1 key 'k6' (sro store)"),
                (0.011241719105946964, "loss-burst", "all links at 20% for 5.7 ms"),
                (0.0169509725021122, "loss-burst-end", "6 links restored"),
                (0.028717120323227957, "stale-replica", "s3 group 2 for 4.4 ms"),
                (0.033087749491505454, "stale-thaw", "s3 group 2"),
            ),
            divergence=(
                ("corrupt", "s3", 2, "'c'", 0.0051398161501115015, 0.006201),
                ("corrupt", "s3", 1, "'k6'", 0.006621059947358935, 0.008201),
                ("stale", "s3", 2, "None", 0.033087749491505454, 0.034201000000000016),
            ),
            stores="3accc3dc4e1d1b3f26608b6fc2a0f17b85242dd6b711230e3ccc8ff0f191c9a4",
            lost={("s3", 2): 24},
            spans=(2484, "87378bfbd3a4f630f7b7db931f286b616fc111d582ccb3ec4f5f5767c40a15f3"),
        ),
        ("chaos_run", 11): dict(
            log=(
                (0.005345406584193908, "corrupt", "s3 group 2 key 'c' slot 2 (counter)"),
                (0.0080815277754102, "stale-replica", "s1 group 2 for 3.3 ms"),
                (0.009917761132343949, "corrupt", "s3 group 2 key 'c' slot 1 (counter)"),
                (0.011422858039087484, "stale-thaw", "s1 group 2"),
                (0.030366109021703974, "loss-burst", "all links at 20% for 2.9 ms"),
                (0.03323514327947843, "loss-burst-end", "6 links restored"),
            ),
            divergence=(
                ("corrupt", "s3", 2, "'c'", 0.005345406584193908, 0.006201),
                ("corrupt", "s3", 2, "'c'", 0.009917761132343949, 0.012402),
                ("stale", "s1", 2, "None", 0.011422858039087484, 0.012402),
            ),
            stores="3accc3dc4e1d1b3f26608b6fc2a0f17b85242dd6b711230e3ccc8ff0f191c9a4",
            lost={("s1", 2): 13},
            spans=(2399, "b304fe126f04297f1d5bedd272bda546b9b2b604ae803e9a35aee9d75a6ed966"),
        ),
        ("chaos_run", 23): dict(
            log=(
                (0.017701702302275687, "corrupt", "s1 group 2 key 'c' slot 2 (counter)"),
                (0.02077266350244543, "loss-burst", "all links at 20% for 8.7 ms"),
                (0.027504015154912274, "stale-replica", "s3 group 1 for 7.2 ms"),
                (0.028721568390899625, "corrupt", "s3 group 1 key 'k3' (sro store)"),
                (0.029427534306955563, "loss-burst-end", "6 links restored"),
                (0.03469210975654692, "stale-thaw", "s3 group 1"),
            ),
            divergence=(
                ("corrupt", "s1", 2, "'c'", 0.017701702302275687, 0.020201000000000004),
                ("corrupt", "s3", 1, "'k3'", 0.028721568390899625, 0.03820100000000002),
                ("stale", "s3", 1, "None", 0.03469210975654692, 0.03820100000000002),
            ),
            stores="3accc3dc4e1d1b3f26608b6fc2a0f17b85242dd6b711230e3ccc8ff0f191c9a4",
            lost={("s3", 1): 37},
            spans=(2530, "a92cc831815c33507995c6e3f6dad795aa25dd9c1b7e953fca08427e6d468475"),
        ),
        ("scrub_repair", 1): dict(
            log=(
                (0.008376617078819305, "corrupt", "s1 group 1 key 'k1' (sro store)"),
                (0.009506085457148124, "loss-burst", "all links at 15% for 3.2 ms"),
                (0.009820964468120448, "stale-replica", "s2 group 1 for 5.9 ms"),
                (0.01, "drop-applies", "s1 group 1 x2"),
                (0.01035784432275321, "corrupt", "s1 group 1 key 'k15' (sro store)"),
                (0.012748575481094824, "loss-burst-end", "6 links restored"),
                (0.014763974562893663, "corrupt", "s1 group 1 key 'k12' (sro store)"),
                (0.01572789657754251, "stale-thaw", "s2 group 1"),
            ),
            divergence=(
                ("corrupt", "s1", 1, "'k1'", 0.008376617078819305, 0.014603),
                ("apply-drop", "s1", 1, "'k7'", 0.010225004719999998, 0.014603),
                ("corrupt", "s1", 1, "'k15'", 0.01035784432275321, 0.014603),
                ("apply-drop", "s1", 1, "'k8'", 0.010625004719999998, 0.012603),
                ("corrupt", "s1", 1, "'k12'", 0.014763974562893663, 0.020201000000000004),
                ("stale", "s2", 1, "None", 0.01572789657754251, 0.020201000000000004),
            ),
            stores="d0ae83ee3361fde76b628dff329356cfd4141a1d1f34668e26f138be0c851c9a",
            lost={("s1", 1): 2, ("s2", 1): 21},
            spans=(2120, "80e61365552186fd2cf208bda3c6dd6dbca0057b955d4d59db9947a856e31735"),
        ),
        ("scrub_repair", 2): dict(
            log=(
                (0.008224338998476403, "corrupt", "s3 group 2 key 'c' slot 2 (counter)"),
                (0.01, "drop-applies", "s1 group 1 x2"),
                (0.01207463780200655, "corrupt", "s2 group 2 key 'c' slot 1 (counter)"),
                (0.01227248653695031, "stale-replica", "s1 group 1 for 5.2 ms"),
                (0.013849111813868366, "loss-burst", "all links at 15% for 2.7 ms"),
                (0.01598743422378978, "corrupt", "s3 group 1 key 'k14' (sro store)"),
                (0.01654945530261829, "loss-burst-end", "6 links restored"),
                (0.01746999285147831, "stale-thaw", "s1 group 1"),
            ),
            divergence=(
                ("corrupt", "s3", 2, "'c'", 0.008224338998476403, 0.010201),
                ("apply-drop", "s1", 1, "'k7'", 0.010225004719999998, 0.020603000000000003),
                ("apply-drop", "s1", 1, "'k8'", 0.010625004719999998, 0.020603000000000003),
                ("corrupt", "s2", 2, "'c'", 0.01207463780200655, 0.014201),
                ("corrupt", "s3", 1, "'k14'", 0.01598743422378978, 0.020603000000000003),
                ("stale", "s1", 1, "None", 0.01746999285147831, 0.022201000000000005),
            ),
            stores="d0ae83ee3361fde76b628dff329356cfd4141a1d1f34668e26f138be0c851c9a",
            lost={("s1", 1): 24},
            spans=(2098, "161450a78929a30193448a2a85c9d93364687f328164c9728785948bca5bcf63"),
        ),
    }

    @pytest.mark.parametrize("seed", [3, 11, 23])
    def test_scrub_chaos_run_matches_captured_literals(self, seed):
        recorder = FlightRecorder()
        _report, _digest, _dep, injector = TestScrubDeterminism()._chaos_run(
            seed, flightrec=recorder
        )
        assert chaos_outcome(injector, recorder) == self.PINNED[("chaos_run", seed)]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_scrub_repair_bench_matches_captured_literals(self, seed, monkeypatch):
        """F5's world (``bench_scrub_repair.run_scrub_repair``) at 60 ms:
        a scripted two-apply drop on top of the seeded corruptions and
        freeze."""
        from benchmarks import bench_scrub_repair

        injectors = []

        class Kept(FaultInjector):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                injectors.append(self)

        monkeypatch.setattr(bench_scrub_repair, "FaultInjector", Kept)
        recorder = FlightRecorder()
        bench_scrub_repair.run_scrub_repair(seed, duration=0.06, flightrec=recorder)
        (injector,) = injectors
        assert chaos_outcome(injector, recorder) == self.PINNED[("scrub_repair", seed)]


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
