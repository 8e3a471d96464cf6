"""Tests for history recording, the linearizability checker, and metrics."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.history import HistoryRecorder, Operation
from repro.analysis.linearizability import (
    check_history,
    check_key_linearizable,
)
from repro.analysis.metrics import (
    convergence_time,
    replica_divergence,
)
from repro.sim.engine import Simulator


def op(op_id, kind, value, start, end, key="k", node="s0"):
    return Operation(
        op_id=op_id,
        kind=kind,
        group=1,
        key=key,
        value=value,
        node=node,
        invoked_at=start,
        completed_at=end,
    )


class TestChecker:
    def test_empty_history_linearizable(self):
        assert check_key_linearizable([])

    def test_simple_sequential_history(self):
        ops = [
            op(1, "write", "a", 0.0, 1.0),
            op(2, "read", "a", 2.0, 2.0),
        ]
        assert check_key_linearizable(ops)

    def test_read_of_initial_value(self):
        ops = [op(1, "read", None, 0.0, 0.0)]
        assert check_key_linearizable(ops, initial=None)

    def test_stale_read_after_write_completes_rejected(self):
        ops = [
            op(1, "write", "new", 0.0, 1.0),
            op(2, "read", "old", 2.0, 2.0),  # strictly after the write
        ]
        assert not check_key_linearizable(ops, initial="old")

    def test_concurrent_read_may_see_either(self):
        write = op(1, "write", "new", 0.0, 10.0)
        assert check_key_linearizable([write, op(2, "read", "old", 5.0, 5.0)], initial="old")
        assert check_key_linearizable([write, op(3, "read", "new", 5.0, 5.0)], initial="old")

    def test_read_order_must_match_write_order(self):
        """Two sequential reads cannot observe values in reverse commit order."""
        ops = [
            op(1, "write", "v1", 0.0, 1.0),
            op(2, "write", "v2", 2.0, 3.0),
            op(3, "read", "v2", 4.0, 4.0),
            op(4, "read", "v1", 5.0, 5.0),  # goes back in time
        ]
        assert not check_key_linearizable(ops)

    def test_pending_write_may_or_may_not_take_effect(self):
        pending = Operation(10, "write", 1, "k", "crashed", "s0", 0.0, None)
        read_old = op(2, "read", None, 5.0, 5.0)
        assert check_key_linearizable([pending, read_old], initial=None)
        read_new = op(3, "read", "crashed", 5.0, 5.0)
        assert check_key_linearizable([pending, read_new], initial=None)

    def test_value_never_written_rejected(self):
        ops = [op(1, "read", "phantom", 1.0, 1.0)]
        assert not check_key_linearizable(ops, initial=None)

    def test_interleaved_writers_consistent(self):
        ops = [
            op(1, "write", "a", 0.0, 2.0, node="s0"),
            op(2, "write", "b", 1.0, 3.0, node="s1"),
            op(3, "read", "b", 4.0, 4.0),
            op(4, "read", "b", 5.0, 5.0),
        ]
        assert check_key_linearizable(ops)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_sequential_write_read_pairs_always_linearizable(self, values):
        ops = []
        time = 0.0
        op_id = 0
        for value in values:
            op_id += 1
            ops.append(op(op_id, "write", value, time, time + 0.5))
            op_id += 1
            ops.append(op(op_id, "read", value, time + 1.0, time + 1.0))
            time += 2.0
        assert check_key_linearizable(ops)


class TestHistoryRecorder:
    def test_instant_and_interval_records(self):
        recorder = HistoryRecorder()
        recorder.record_instant("read", 1, "k", 5, "s0", 1.0)
        recorder.begin("tok", "write", 1, "k", 6, "s1", 2.0)
        assert len(recorder) == 2
        pending = [o for o in recorder.operations() if not o.complete]
        assert len(pending) == 1
        recorder.complete("tok", 3.0)
        assert all(o.complete for o in recorder.operations())

    def test_abort_leaves_op_incomplete(self):
        recorder = HistoryRecorder()
        recorder.begin("tok", "write", 1, "k", 1, "s0", 0.0)
        recorder.abort("tok")
        assert not recorder.operations()[0].complete
        assert recorder.complete("tok", 5.0) is None

    def test_keys_enumerated_once(self):
        recorder = HistoryRecorder()
        recorder.record_instant("read", 1, "a", 0, "s0", 0.0)
        recorder.record_instant("read", 1, "a", 0, "s0", 1.0)
        recorder.record_instant("read", 2, "b", 0, "s0", 2.0)
        assert recorder.keys() == [(1, "a"), (2, "b")]

    def test_for_key_filters(self):
        recorder = HistoryRecorder()
        recorder.record_instant("read", 1, "a", 0, "s0", 0.0)
        recorder.record_instant("read", 1, "b", 0, "s0", 1.0)
        assert len(recorder.for_key(1, "a")) == 1

    def test_check_history_aggregates(self):
        recorder = HistoryRecorder()
        recorder.record_instant("write", 1, "good", 1, "s0", 0.0)
        recorder.record_instant("read", 1, "good", 1, "s0", 1.0)
        recorder.record_instant("read", 1, "bad", "phantom", "s0", 0.0)
        report = check_history(recorder)
        assert report.checked_keys == 2
        assert report.linearizable_keys == 1
        assert report.violations == [(1, "bad")]
        assert not report.ok

    def test_check_history_group_filter(self):
        recorder = HistoryRecorder()
        recorder.record_instant("read", 1, "a", "phantom", "s0", 0.0)
        recorder.record_instant("read", 2, "b", None, "s0", 0.0)
        report = check_history(recorder, group=2)
        assert report.checked_keys == 1 and report.ok


class TestConvergenceHelpers:
    def test_replica_divergence(self):
        assert replica_divergence([{"a": 1}, {"a": 1}]) == 0
        assert replica_divergence([{"a": 1}, {"a": 2}]) == 1
        assert replica_divergence([{"a": 1}, {}]) == 1
        assert replica_divergence([{"a": 1, "b": 2}, {"a": 9, "b": 2}]) == 1

    def test_convergence_time_fires(self):
        sim = Simulator()
        state = {"done": False}
        sim.schedule(0.5, lambda: state.update(done=True))
        elapsed = convergence_time(sim, lambda: state["done"], interval=0.1, timeout=2.0)
        assert elapsed is not None and elapsed >= 0.5

    def test_convergence_timeout(self):
        sim = Simulator()
        elapsed = convergence_time(sim, lambda: False, interval=0.1, timeout=0.5)
        assert elapsed is None
