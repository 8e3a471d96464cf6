"""Tests for the pending-bit table and chain descriptors."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import ChainDescriptor
from repro.core.pending import PendingTable, stable_slot_hash
from repro.switch.memory import MemoryBudget


class TestSlotHash:
    def test_deterministic_across_instances(self):
        assert stable_slot_hash(("k", 1), 64) == stable_slot_hash(("k", 1), 64)

    def test_in_range(self):
        for key in range(100):
            assert 0 <= stable_slot_hash(key, 7) < 7

    def test_spreads_keys(self):
        slots = {stable_slot_hash(i, 64) for i in range(1000)}
        assert len(slots) > 48  # nearly all slots hit


class TestPendingTable:
    def _table(self, slots=8):
        return PendingTable("t", slots, MemoryBudget(1 << 20))

    def test_memory_charged(self):
        budget = MemoryBudget(1 << 20)
        table = PendingTable("t", 100, budget)
        assert budget.used_bytes == table.state_bytes == 1300

    def test_sequencing_monotone(self):
        table = self._table()
        assert table.assign_seq(0) == 1
        assert table.assign_seq(0) == 2
        assert table.assign_seq(1) == 1  # independent per slot

    def test_in_order_application(self):
        table = self._table()
        assert table.is_next_in_order(0, 1)
        table.mark_applied(0, 1)
        assert table.applied_seq(0) == 1
        assert not table.is_next_in_order(0, 3)
        with pytest.raises(ValueError):
            table.mark_applied(0, 3)

    def test_mark_applied_advances_sequencer(self):
        """A member promoted to head must not reuse sequence numbers."""
        table = self._table()
        table.force_applied(0, 10)
        assert table.assign_seq(0) == 11

    def test_force_applied_jumps_forward_only(self):
        table = self._table()
        table.force_applied(0, 5)
        table.force_applied(0, 3)  # stale snapshot entry: no regression
        assert table.applied_seq(0) == 5

    def test_pending_bit_lifecycle(self):
        table = self._table()
        table.set_pending(0, 1)
        assert table.is_pending(0)
        assert table.clear_pending(0, 1) is True
        assert not table.is_pending(0)

    def test_old_ack_does_not_clear_newer_pending(self):
        table = self._table()
        table.set_pending(0, 1)
        table.set_pending(0, 2)  # a second write in flight
        assert table.clear_pending(0, 1) is False  # ack for the first
        assert table.is_pending(0)
        assert table.clear_pending(0, 2) is True

    def test_clear_idle_slot_is_noop(self):
        table = self._table()
        assert table.clear_pending(0, 99) is False

    def test_pending_count(self):
        table = self._table()
        table.set_pending(0, 1)
        table.set_pending(3, 1)
        assert table.pending_count() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PendingTable("t", 0, MemoryBudget(100))

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_shared_slots_agree_across_replicas(self, keys):
        """Every replica maps a key to the same slot (protocol soundness)."""
        a = PendingTable("a", 16, MemoryBudget(1 << 20))
        b = PendingTable("b", 16, MemoryBudget(1 << 20))
        assert [a.slot_of(k) for k in keys] == [b.slot_of(k) for k in keys]


class TestChainDescriptor:
    def _chain(self):
        return ChainDescriptor(chain_id=1, members=("s0", "s1", "s2"))

    def test_roles(self):
        chain = self._chain()
        assert chain.head == "s0"
        assert chain.read_tail == "s2"
        assert len(chain) == 3
        assert "s1" in chain and "zz" not in chain

    def test_without_removes_and_bumps_version(self):
        chain = self._chain()
        repaired = chain.without("s1")
        assert repaired.members == ("s0", "s2")
        assert repaired.version == chain.version + 1
        assert chain.members == ("s0", "s1", "s2")  # immutable original

    def test_without_nonmember_returns_self(self):
        chain = self._chain()
        assert chain.without("zz") is chain

    def test_without_head_promotes_next(self):
        chain = self._chain()
        assert chain.without("s0").head == "s1"

    def test_append_pins_old_read_tail(self):
        chain = self._chain()
        appended = chain.with_appended("s9")
        assert appended.members == ("s0", "s1", "s2", "s9")
        assert appended.members[-1] == "s9"  # acks come from the new last member
        assert appended.read_tail == "s2"  # reads stay at the old tail

    def test_promoted_moves_read_tail(self):
        chain = self._chain().with_appended("s9")
        promoted = chain.promoted()
        assert promoted.read_tail == "s9"
        assert promoted.version == chain.version + 1

    def test_append_duplicate_rejected(self):
        with pytest.raises(ValueError):
            self._chain().with_appended("s1")

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainDescriptor(1, ())
        with pytest.raises(ValueError):
            ChainDescriptor(1, ("a", "a"))
        with pytest.raises(ValueError):
            ChainDescriptor(1, ("a",), read_tail_index=5)

    def test_single_member_chain(self):
        chain = ChainDescriptor(1, ("only",))
        assert chain.head == chain.read_tail == "only"
