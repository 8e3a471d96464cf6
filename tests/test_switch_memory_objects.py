"""Tests for switch memory accounting."""

from __future__ import annotations

import pytest

from repro.switch.memory import DEFAULT_SWITCH_MEMORY_BYTES, MemoryBudget, OutOfSwitchMemory


class TestMemoryBudget:
    def test_default_is_ten_megabytes(self):
        assert DEFAULT_SWITCH_MEMORY_BYTES == 10 * 1024 * 1024

    def test_allocate_and_free_accounting(self):
        budget = MemoryBudget(1000)
        budget.allocate("a", 300)
        budget.allocate("b", 200)
        assert budget.used_bytes == 500
        assert budget.free_bytes == 500
        assert budget.utilization() == pytest.approx(0.5)

    def test_over_allocation_raises(self):
        budget = MemoryBudget(100)
        budget.allocate("a", 90)
        with pytest.raises(OutOfSwitchMemory) as excinfo:
            budget.allocate("b", 20)
        assert excinfo.value.requested == 20
        assert excinfo.value.available == 10

    def test_release_returns_bytes(self):
        budget = MemoryBudget(100)
        budget.allocate("a", 60)
        assert budget.release("a") == 60
        assert budget.free_bytes == 100
        assert budget.release("a") == 0

    def test_repeat_owner_accumulates(self):
        budget = MemoryBudget(100)
        budget.allocate("a", 30)
        budget.allocate("a", 30)
        assert budget.used_bytes == 60

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)
        budget = MemoryBudget(10)
        with pytest.raises(ValueError):
            budget.allocate("a", -1)
