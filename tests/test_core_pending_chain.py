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
        table.mark_applied(0, 1)
        assert table.applied_seq(0) == 1
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
        assert table.set_pending(0, 1) is True  # raised
        assert table.set_pending(0, 2) is False  # a second write in flight
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
        assert appended.catching_up == ("s9",)
        assert appended.read_tail == "s2"  # reads stay at the old tail

    def test_second_append_keeps_the_pinned_read_tail(self):
        """A second re-admission before the first has caught up leaves
        the read tail on the original full member, not on the first
        appended one, which is still catching up."""
        twice = self._chain().with_appended("s8").with_appended("s9")
        assert twice.members == ("s0", "s1", "s2", "s8", "s9")
        assert twice.catching_up == ("s8", "s9")
        assert twice.read_tail == "s2"

    def test_caught_up_moves_read_tail(self):
        chain = self._chain().with_appended("s9")
        caught_up = chain.caught_up("s9")
        assert caught_up.read_tail == "s9"
        assert caught_up.members == chain.members
        assert caught_up.version == chain.version  # fences nothing
        assert caught_up.supersedes(chain) and not chain.supersedes(caught_up)

    def test_earlier_append_catching_up_first_becomes_read_tail(self):
        """With two members catching up, the one appended first may
        finish first: it serves reads while the later one still
        catches up behind it, and the chain order stays."""
        twice = self._chain().with_appended("s8").with_appended("s9")
        first = twice.caught_up("s8")
        assert first.members == twice.members
        assert first.catching_up == ("s9",) and first.read_tail == "s8"
        assert first.caught_up("s9").read_tail == "s9"

    def test_without_does_not_hand_the_read_tail_to_a_catching_up_member(self):
        """Excising a full member keeps the read tail on a full one."""
        appended = self._chain().with_appended("s9")
        repaired = appended.without("s0")
        assert repaired.catching_up == ("s9",) and repaired.read_tail == "s2"

    def test_without_clears_catching_up_when_no_full_member_remains(self):
        """Members left catching up alone hold the chain's only copy."""
        appended = ChainDescriptor(1, ("s0",)).with_appended("s9")
        repaired = appended.without("s0")
        assert repaired.members == ("s9",)
        assert repaired.catching_up == () and repaired.read_tail == "s9"

    def test_append_duplicate_rejected(self):
        with pytest.raises(ValueError):
            self._chain().with_appended("s1")

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainDescriptor(1, ())
        with pytest.raises(ValueError):
            ChainDescriptor(1, ("a", "a"))
        with pytest.raises(ValueError):
            ChainDescriptor(1, ("a", "b"), catching_up=("z",))
        with pytest.raises(ValueError):
            ChainDescriptor(1, ("a", "b"), catching_up=("a", "b"))

    def test_single_member_chain(self):
        chain = ChainDescriptor(1, ("only",))
        assert chain.head == chain.read_tail == "only"


_STEPS = st.lists(
    st.tuples(st.sampled_from(["append", "without", "caught_up"]), st.integers(0, 5)),
    max_size=40,
)


class TestChainDescriptorProperties:
    @settings(max_examples=300, deadline=None)
    @given(size=st.integers(2, 6), steps=_STEPS)
    def test_reconfigurations_keep_the_catching_up_record_sound(self, size, steps):
        """Random ``with_appended`` / ``without`` / ``caught_up``
        sequences on 2-6 members: the read tail is never a member
        catching up, the catching-up set names members only, the
        version moves exactly when the members change, and each result
        supersedes or equals its input."""
        names = [f"s{i}" for i in range(size)]
        chain = ChainDescriptor(1, tuple(names))
        for op, pick in steps:
            name = names[pick % size]
            if op == "append":
                if name in chain:
                    continue
                after = chain.with_appended(name)
            elif op == "without":
                if len(chain) == 1:
                    continue
                after = chain.without(name)
            else:
                after = chain.caught_up(name)
            assert after.read_tail not in after.catching_up
            assert set(after.catching_up) <= set(after.members)
            assert (after.version != chain.version) == (after.members != chain.members)
            assert after.supersedes(chain) or after == chain
            chain = after
