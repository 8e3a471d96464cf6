"""Tests for clocks and CRDTs, including property-based merge laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crdt.clock import HybridClock, Timestamp
from repro.crdt.gcounter import GCounter
from repro.crdt.lww import LwwRegister


class TestTimestamp:
    def test_total_order(self):
        a = Timestamp(1.0, 0, 0)
        b = Timestamp(1.0, 0, 1)
        c = Timestamp(1.0, 1, 0)
        d = Timestamp(2.0, 0, 0)
        assert a < b < c < d

    def test_node_id_breaks_ties(self):
        assert Timestamp(1.0, 5, 1) > Timestamp(1.0, 5, 0)

    def test_frozen_and_hashable(self):
        stamp = Timestamp(1.0, 2, 3)
        assert hash(stamp) == hash(Timestamp(1.0, 2, 3))
        with pytest.raises(AttributeError):
            stamp.time = 2.0


class TestHybridClock:
    def test_strictly_monotone_with_frozen_physical_time(self):
        clock = HybridClock(0, lambda: 1.0)
        stamps = [clock.now() for _ in range(10)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 10

    def test_stamps_after_witness_are_greater(self):
        clock = HybridClock(0, lambda: 1.0)
        remote = Timestamp(50.0, 7, 1)
        clock.witness(remote)
        assert clock.now() > remote

    def test_physical_advance_resets_logical(self):
        holder = {"t": 1.0}
        clock = HybridClock(0, lambda: holder["t"])
        clock.now()
        clock.now()
        holder["t"] = 2.0
        stamp = clock.now()
        assert stamp.time == 2.0 and stamp.logical == 0


def merge(mine: GCounter, theirs: GCounter) -> bool:
    """Full-state exchange, as the EWO engine does it: every wire entry
    of ``theirs`` applied to ``mine``; True if any element advanced."""
    return any([mine.apply(slot, value) for slot, value in theirs.entries()])


class TestGCounter:
    def test_increment_and_value(self):
        counter = GCounter(3, my_slot=0)
        counter.increment()
        assert counter.increment(4) == 5  # this replica's own element
        assert counter.value() == 5

    def test_negative_increment_rejected(self):
        counter = GCounter(2, 0)
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_merge_takes_elementwise_max(self):
        a = GCounter(3, 0)
        b = GCounter(3, 1)
        a.increment(5)
        b.increment(3)
        assert merge(a, b)
        assert a.value() == 8
        assert not merge(a, b)  # idempotent

    def test_merge_never_decreases(self):
        a = GCounter(2, 0)
        a.increment(10)
        assert not a.apply(0, 0) and not a.apply(1, 0)
        assert a.value() == 10

    def test_apply_slot_incremental(self):
        a = GCounter(3, 0)
        assert a.apply(2, 7) is True
        assert a.apply(2, 5) is False  # stale
        assert a.value() == 7

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            GCounter(0, 0)
        with pytest.raises(ValueError):
            GCounter(2, 5)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 100)), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_convergence_property(self, ops):
        """Replicas that exchange full states converge to the same value."""
        replicas = [GCounter(3, i) for i in range(3)]
        for slot, amount in ops:
            replicas[slot].increment(amount)
        # all-pairs merge, twice for propagation
        for _ in range(2):
            for a in replicas:
                for b in replicas:
                    merge(a, b)
        values = {r.value() for r in replicas}
        assert len(values) == 1
        assert values.pop() == sum(amount for _, amount in ops)


class TestLwwRegister:
    def test_write_and_read(self):
        cell = LwwRegister()
        cell.write("x", Timestamp(1.0, 0, 0))
        assert cell.read() == "x"

    def test_local_write_must_advance(self):
        cell = LwwRegister()
        cell.write("x", Timestamp(2.0, 0, 0))
        with pytest.raises(ValueError):
            cell.write("y", Timestamp(1.0, 0, 0))

    def test_merge_newer_wins(self):
        cell = LwwRegister()
        cell.write("old", Timestamp(1.0, 0, 0))
        assert cell.apply(Timestamp(2.0, 0, 1), "new") is True
        assert cell.read() == "new"

    def test_merge_stale_ignored(self):
        cell = LwwRegister()
        cell.write("current", Timestamp(5.0, 0, 0))
        assert cell.apply(Timestamp(1.0, 0, 1), "stale") is False
        assert cell.read() == "current"

    def test_merge_idempotent(self):
        cell = LwwRegister()
        stamp = Timestamp(1.0, 0, 1)
        cell.apply(stamp, "x")
        assert cell.apply(stamp, "x") is False

    def test_tie_broken_by_node_id(self):
        a = LwwRegister()
        a.apply(Timestamp(1.0, 0, 0), "from0")
        assert a.apply(Timestamp(1.0, 0, 1), "from1") is True
        assert a.read() == "from1"

    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.integers(0, 2), st.integers(0, 1000)),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_order_independent(self, writes):
        """Applying the same merge set in any order yields the same value.

        The logical component carries the write index so stamps are
        unique, as the hybrid clock guarantees for real writes.
        """
        stamps = [
            ("v%d" % i, Timestamp(t, i, node)) for i, (t, node, _) in enumerate(writes)
        ]
        forward = LwwRegister()
        backward = LwwRegister()
        for value, stamp in stamps:
            forward.apply(stamp, value)
        for value, stamp in reversed(stamps):
            backward.apply(stamp, value)
        assert forward.read() == backward.read()
