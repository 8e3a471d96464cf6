"""Tests for the SRO/ERO chain protocol (paper section 6.1)."""

from __future__ import annotations

import pytest

from repro.analysis.linearizability import check_history
from repro.core.registers import Consistency, RegisterSpec
from repro.sim.engine import Simulator


def declare_sro(deployment, name="reg", **kwargs):
    return deployment.declare(RegisterSpec(name, Consistency.SRO, **kwargs))


class TestWritePath:
    def test_write_replicates_to_all(self, deployment):
        spec = declare_sro(deployment)
        deployment.manager("s1").register_write(spec, "k", "v")
        deployment.sim.run(until=0.05)
        assert all(store.get("k") == "v" for store in deployment.sro_stores(spec))

    def test_write_commit_latency_positive(self, deployment):
        spec = declare_sro(deployment)
        manager = deployment.manager("s0")
        manager.register_write(spec, "k", 1)
        deployment.sim.run(until=0.05)
        stats = manager.sro.stats_for(spec.group_id)
        assert stats.writes_committed == 1
        assert stats.mean_write_latency > 0

    def test_control_plane_state_slower_than_register_state(self, make_deployment):
        dep, _, _ = make_deployment(3)
        fast = dep.declare(RegisterSpec("fast", Consistency.SRO))
        slow = dep.declare(
            RegisterSpec("slow", Consistency.SRO, control_plane_state=True)
        )
        manager = dep.manager("s0")
        manager.register_write(fast, "k", 1)
        manager.register_write(slow, "k", 1)
        dep.sim.run(until=0.1)
        fast_latency = manager.sro.stats_for(fast.group_id).mean_write_latency
        slow_latency = manager.sro.stats_for(slow.group_id).mean_write_latency
        assert manager.sro.stats_for(slow.group_id).writes_committed == 1
        assert slow_latency > fast_latency

    def test_writes_to_same_key_serialized_by_head(self, deployment):
        spec = declare_sro(deployment)
        deployment.manager("s0").register_write(spec, "k", "from-s0")
        deployment.manager("s2").register_write(spec, "k", "from-s2")
        deployment.sim.run(until=0.1)
        values = {repr(store.get("k")) for store in deployment.sro_stores(spec)}
        assert len(values) == 1  # all replicas agree on the winner

    def test_many_keys_many_writers(self, deployment):
        spec = declare_sro(deployment, capacity=512)
        for i in range(30):
            writer = deployment.manager(f"s{i % 3}")
            writer.register_write(spec, f"key{i}", i)
        deployment.sim.run(until=0.3)
        stores = deployment.sro_stores(spec)
        assert all(len(store) == 30 for store in stores)
        assert all(store == stores[0] for store in stores)

    def test_head_dedup_prevents_double_sequencing(self, deployment):
        spec = declare_sro(deployment)
        manager = deployment.manager("s1")
        engine = manager.sro
        manager.register_write(spec, "k", "v")
        deployment.sim.run(until=0.05)
        state = deployment.manager("s0").sro.groups[spec.group_id]
        slot = state.pending.slot_of("k")
        assert state.pending.applied_seq(slot) == 1  # sequenced exactly once


class TestReadPath:
    def test_local_read_when_quiescent(self, deployment):
        spec = declare_sro(deployment)
        deployment.manager("s0").register_write(spec, "k", 7)
        deployment.sim.run(until=0.05)
        value = deployment.manager("s1").register_read(spec, "k", None)
        stats = deployment.manager("s1").sro.stats_for(spec.group_id)
        assert value == 7
        assert stats.local_reads >= 1
        assert stats.forwarded_reads == 0

    def test_default_returned_for_missing_key(self, deployment):
        spec = declare_sro(deployment)
        assert deployment.manager("s0").register_read(spec, "nope", "dflt") == "dflt"

    def test_tail_reads_served_at_tail(self, deployment):
        spec = declare_sro(deployment)
        tail = deployment.chains[spec.group_id].read_tail
        deployment.manager(tail).register_read(spec, "k", None)
        assert deployment.manager(tail).sro.stats_for(spec.group_id).tail_reads == 1

    def test_pending_bit_set_during_write_then_cleared(self, make_deployment):
        # slow links widen the pending window so the 20us probe sees it
        dep, _, _ = make_deployment(3, control_op_latency=200e-6, latency=100e-6)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        # run just far enough for the chain update to pass s1 but not
        # for the ack to return
        state = dep.manager("s1").sro.groups[spec.group_id]
        slot = state.pending.slot_of("k")
        observed_pending = []

        def probe():
            observed_pending.append(state.pending.is_pending(slot))
            if len(observed_pending) < 500:
                dep.sim.schedule(20e-6, probe)

        dep.sim.schedule(20e-6, probe)
        dep.sim.run(until=0.05)
        assert any(observed_pending)  # was pending at some point
        assert not state.pending.is_pending(slot)  # cleared by the ack

    def test_ero_never_forwards_reads(self, make_deployment):
        dep, _, _ = make_deployment(3, control_op_latency=200e-6)
        spec = dep.declare(RegisterSpec("ero", Consistency.ERO))
        dep.manager("s0").register_write(spec, "k", 1)
        # read at another switch immediately, mid-write
        value = dep.manager("s1").register_read(spec, "k", "stale-default")
        stats = dep.manager("s1").sro.stats_for(spec.group_id)
        assert stats.forwarded_reads == 0
        assert value == "stale-default"  # write not yet applied: stale read
        dep.sim.run(until=0.1)
        assert dep.manager("s1").register_read(spec, "k", None) == 1


class TestLinearizability:
    def test_sro_history_linearizable_under_concurrency(self, make_deployment):
        dep, _, _ = make_deployment(3, record_history=True)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        sim = dep.sim

        # interleave writes from two switches with reads from all three
        for i in range(10):
            sim.schedule(
                i * 150e-6,
                lambda i=i: dep.manager(f"s{i % 2}").register_write(spec, "k", i),
            )
        for i in range(30):
            sim.schedule(
                7e-6 + i * 61e-6,
                lambda i=i: _read_ignoring_forward(dep.manager(f"s{i % 3}"), spec),
            )
        sim.run(until=0.1)
        report = check_history(dep.history)
        assert report.ok, f"violations: {report.violations}"

    def test_write_history_records_intervals(self, deployment):
        spec = declare_sro(deployment)
        deployment.manager("s0").register_write(spec, "k", 1)
        deployment.sim.run(until=0.05)
        writes = [op for op in deployment.history.operations() if op.kind == "write"]
        assert len(writes) == 1
        assert writes[0].complete
        assert writes[0].completed_at > writes[0].invoked_at


def _read_ignoring_forward(manager, spec):
    """Control-plane-style read helper for history tests."""
    manager.register_read(spec, "k", None)


class TestMemoryAccounting:
    def test_sro_group_charges_memory(self, make_deployment):
        dep, _, switches = make_deployment(2)
        before = switches[0].memory.used_bytes
        dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=100, key_bytes=8, value_bytes=8))
        used = switches[0].memory.used_bytes - before
        # store (100*16) + pending (100*13) + dedup (64*(12+value_bytes))
        assert used == 1600 + 1300 + 64 * (12 + 8)

    def test_ero_same_pending_table_layout(self, make_deployment):
        """ERO keeps sequence state; the saving is behavioral (no
        pending-bit protocol), and shared slots shrink both."""
        dep, _, switches = make_deployment(2)
        spec = dep.declare(
            RegisterSpec("ero", Consistency.ERO, capacity=100, pending_slots=10)
        )
        state = dep.manager("s0").sro.groups[spec.group_id]
        assert state.pending.slots == 10
        assert state.track_pending is False


class TestOrderingUnderLoss:
    def test_writes_commit_despite_link_loss(self, make_deployment):
        dep, _, _ = make_deployment(3, loss_rate=0.2)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        for i in range(10):
            dep.manager("s0").register_write(spec, f"k{i}", i)
        dep.sim.run(until=1.0)
        stats = dep.manager("s0").sro.stats_for(spec.group_id)
        assert stats.writes_committed == 10
        stores = dep.sro_stores(spec)
        assert all(store == stores[0] for store in stores)
        assert len(stores[0]) == 10

    def test_retries_counted_under_loss(self, make_deployment):
        dep, _, _ = make_deployment(3, loss_rate=0.3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        for i in range(20):
            dep.manager("s1").register_write(spec, f"k{i}", i)
        dep.sim.run(until=5.0)
        stats = dep.manager("s1").sro.stats_for(spec.group_id)
        assert stats.retries > 0
        assert stats.writes_committed == 20


class TestReorderStash:
    """Regression: a reordered chain update must not wedge its slot.

    The gap branch used to *drop* an update that arrived ahead of a
    missing predecessor, leaving every later sequence number in the
    slot to heal one writer-retry round at a time; under a bursty
    same-key write stream a single reordered packet convoyed the slot
    behind exponential backoffs until writers exhausted their attempts
    and the chain wedged permanently.  Members now hold the update in
    a bounded reorder stash and apply it the instant the gap fills."""

    def _reordering_deployment(self, make_deployment):
        from repro.chaos import Nemesis

        dep, topo, _ = make_deployment(3)
        # Delay every SwiShmem packet by up to 50us: back-to-back writes
        # to one slot are spaced ~µs apart, so reorders are guaranteed.
        Nemesis(seed=7, duplicate_prob=0.3, delay_prob=1.0, max_delay=50e-6).install(
            topo
        )
        return dep

    def test_burst_to_one_key_commits_every_write(self, make_deployment):
        dep = self._reordering_deployment(make_deployment)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        writer = dep.manager("s2")
        for i in range(40):
            dep.sim.schedule(
                i * 2e-6, writer.register_write, spec, "hot", i, label="burst"
            )
        dep.sim.run(until=2.0)
        stats = writer.sro.stats_for(spec.group_id)
        assert stats.writes_failed == 0
        assert stats.writes_committed == 40
        stores = dep.sro_stores(spec)
        assert all(store.get("hot") == stores[0].get("hot") for store in stores)
        # The stash did the healing: reorders were absorbed in transit.
        stashed = sum(
            dep.manager(f"s{i}").sro.stats_for(spec.group_id).reorder_stashed
            for i in range(3)
        )
        assert stashed > 0

    def test_chain_quiesces_after_reordered_burst(self, make_deployment):
        # The releveling drain polls quiesced(); a wedged slot would
        # park every future drain of this group forever.
        dep = self._reordering_deployment(make_deployment)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        for i in range(40):
            dep.sim.schedule(
                i * 2e-6,
                dep.manager(f"s{i % 3}").register_write,
                spec,
                "hot",
                i,
                label="burst",
            )
        dep.sim.run(until=2.0)
        for i in range(3):
            manager = dep.manager(f"s{i}")
            assert manager.sro.quiesced(spec.group_id)
            assert not manager.sro.groups[spec.group_id].reorder

    def test_stash_is_bounded(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        state = dep.manager("s1").sro.groups[spec.group_id]
        assert state.reorder_capacity == 64
        # Overflow degrades to the old drop behavior, never unbounded.
        from repro.protocols.messages import ChainUpdate

        chain = tuple(dep.chains[spec.group_id].members)
        for seq in range(2, 2 + state.reorder_capacity + 8):
            dep.manager("s1").sro._process_chain_update(
                ChainUpdate(
                    group=spec.group_id,
                    key="k",
                    value=seq,
                    seq=seq,
                    slot=state.pending.slot_of("k"),
                    token=None,
                    chain=chain,
                )
            )
        assert len(state.reorder) == state.reorder_capacity
        assert state.stats.out_of_order_drops == 8

    def test_overflow_is_a_spine_event_parented_to_the_evicted_stash(self, make_deployment):
        """A full stash evicts its oldest update: a step of the protocol
        (the evicted write now waits for its writer's retry), so it is a
        span on the spine, not only a bare stat."""
        from repro.obs.flightrec import FlightRecorder
        from repro.protocols.messages import ChainUpdate

        recorder = FlightRecorder()
        dep, _, _ = make_deployment(3, flight_recorder=recorder)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        state = dep.manager("s1").sro.groups[spec.group_id]
        state.reorder_capacity = 1
        chain = tuple(dep.chains[spec.group_id].members)
        for seq in (3, 4):  # seq 1 never arrived: both are gaps
            dep.manager("s1").sro._process_chain_update(
                ChainUpdate(
                    group=spec.group_id,
                    key=f"k{seq}",
                    value=seq,
                    seq=seq,
                    slot=0,
                    token=None,
                    chain=chain,
                )
            )
        assert list(state.reorder) == [(0, 4)]
        assert state.stats.out_of_order_drops == 1
        spans = {span.name: span for span in recorder.spans if span.attrs.get("seq") == 3}
        overflow = spans["sro.chain.reorder_overflow"]
        assert overflow.node == "s1" and overflow.key == "k3"
        assert overflow.attrs == {"seq": 3, "capacity": 1}
        assert overflow.parent_id == spans["sro.chain.reorder_stash"].context.span_id
        assert [s.name for s in recorder.spans].count("sro.chain.reorder_overflow") == 1
