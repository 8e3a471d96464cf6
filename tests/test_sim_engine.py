"""Tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.sim.engine import Process, SimulationError, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0  # clock advanced to the window edge
        sim.run(until=10.0)
        assert fired == [1, 5]

    def test_run_until_advances_clock_even_when_queue_empty(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_non_finite_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.run(until=10.0)
        seen = []
        sim.schedule_at(12.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.0]

    def test_schedule_at_lands_on_the_instant_exactly(self):
        """``now + (t - now)`` is an ulp short of this ``t``, and no
        delay added to ``now`` rounds to it; the event must still fire
        at ``t``."""
        now, t = 6.7703395520213144e-06, 5.797033955202126e-05
        assert now + (t - now) != t
        sim = Simulator()
        seen = []
        sim.schedule(now, lambda: sim.schedule_at(t, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [t]

    def test_schedule_at_rejects_the_past_and_the_non_finite(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.schedule_at(1.0, lambda: None).time == 1.0

    def test_zero_delay_post_runs_at_current_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.post(0.0, lambda _: seen.append(sim.now), None))
        sim.run()
        assert seen == [1.0]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule(1.0, lambda: seen.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == ["second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()  # must not raise

    def test_pending_ignores_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending() == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0


class _Recording:
    """A ``Simulator.profiler`` stub: logs what it is handed, runs it."""

    def __init__(self):
        self.seen = []

    def dispatch(self, event):
        self.seen.append((event.time, event.callback, event.args, event.label))
        event.callback(*event.args)


class TestPost:
    """``post``: a bare heap entry that always fires."""

    def test_post_fires_callback_with_its_arg_and_returns_nothing(self):
        sim = Simulator()
        seen = []
        assert sim.post(1.5, seen.append, "x") is None
        sim.run()
        assert seen == ["x"] and sim.now == 1.5 and sim.events_processed == 1

    def test_time_is_now_plus_delay_as_schedule_computes_it(self):
        # 0.1 + 0.2 is not 0.3: post must land on the same rounded float
        # schedule does, not on an instant computed some other way.
        sim = Simulator()
        sim.run(until=0.1)
        seen = []
        event = sim.schedule(0.2, lambda: seen.append(("schedule", sim.now)))
        sim.post(0.2, lambda tag: seen.append((tag, sim.now)), "post")
        sim.run()
        assert event.time == 0.1 + 0.2 != 0.3
        assert seen == [("schedule", 0.1 + 0.2), ("post", 0.1 + 0.2)]

    def test_ties_with_scheduled_events_keep_insertion_order(self):
        sim = Simulator()
        order = []
        for i in range(6):
            if i % 2:
                sim.post(1.0, order.append, i)
            else:
                sim.schedule(1.0, order.append, i)
        sim.schedule(0.0, order.append, "now")
        sim.post(0.0, order.append, "posted-now")
        sim.run()
        assert order == ["now", "posted-now", 0, 1, 2, 3, 4, 5]

    def test_bad_delays_rejected_like_schedule(self):
        sim = Simulator()
        for delay in (-1e-9, float("inf"), float("nan")):
            with pytest.raises(SimulationError):
                sim.post(delay, print, None)
        assert sim.queue_len() == 0

    def test_posted_entries_are_pending_and_peeked(self):
        sim = Simulator()
        early = sim.schedule(1.0, lambda: None)
        sim.post(2.0, print, None)
        assert sim.pending() == 2 and sim.peek_time() == 1.0
        early.cancel()
        assert sim.pending() == 1 and sim.peek_time() == 2.0

    def test_compaction_keeps_posted_entries_in_order(self):
        sim = Simulator()
        order = []
        timers = [sim.schedule(1.0, order.append, -1) for _ in range(60)]
        for i in range(10):
            sim.post(float(i % 3), order.append, i)
        for timer in timers:
            timer.cancel()
        assert sim.compactions == 1 and sim.pending() == 10
        sim.run()
        assert order == sorted(range(10), key=lambda i: (i % 3, i))

    def test_step_fires_a_posted_entry(self):
        sim = Simulator()
        seen = []
        sim.post(3.0, seen.append, "x")
        assert sim.step() is True
        assert seen == ["x"] and sim.now == 3.0 and sim.events_processed == 1
        assert sim.step() is False

    @pytest.mark.parametrize("stepped", [False, True])
    def test_profiler_sees_a_posted_entry_as_an_event(self, stepped):
        sim = Simulator()
        profiler = sim.profiler = _Recording()
        seen = []
        sim.post(2.0, seen.append, "x")
        if stepped:
            sim.step()
        else:
            sim.run()
        assert seen == ["x"]
        assert profiler.seen == [(2.0, seen.append, ("x",), "")]


class TestLazyDeletion:
    """The tuple-heap rewrite: cancelled entries are reclaimed lazily."""

    def test_heap_bounded_under_cancel_heavy_timer_workload(self):
        # SRO arms a retransmission timer per write and cancels it on the
        # ack.  Without compaction the heap would hold one dead timer per
        # step (peak ~n); the compactor must keep it bounded.
        sim = Simulator()
        n = 5_000
        pending = [None]

        def step(i):
            if pending[0] is not None:
                pending[0].cancel()
            pending[0] = sim.schedule(10.0, lambda: None, label="retx")
            if i + 1 < n:
                sim.schedule(1e-6, step, i + 1)

        sim.schedule(0.0, step, 0)
        sim.run(until=1.0)
        assert sim.events_cancelled == n - 1
        assert sim.compactions > 0
        assert sim.peak_queue_len < 300  # bounded, not O(n)
        # Heaps below the compaction floor may hold a few dead entries,
        # but never an O(n) backlog.
        assert sim.queue_len() < 64
        assert sim.pending() == 1

    def test_compaction_preserves_event_order(self):
        # Live entries keep their (time, seq) keys through compaction, so
        # firing order with interleaved cancels matches a run with the
        # cancelled events simply never scheduled.
        def run(with_cancels):
            sim = Simulator()
            order = []
            events = []
            for i in range(200):
                events.append(sim.schedule((i % 10) / 10.0, order.append, i))
            if with_cancels:
                for i, event in enumerate(events):
                    if i % 3 != 0:
                        event.cancel()  # 2/3 cancelled -> crosses the ~50% threshold
                assert sim.compactions > 0
            sim.run()
            return order

        kept = [i for i in range(200) if i % 3 == 0]
        expected = sorted(kept, key=lambda i: ((i % 10) / 10.0, i))
        assert run(with_cancels=True) == expected

    def test_pending_and_peek_with_interleaved_cancels(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        assert sim.pending() == 100
        # Cancel the front half interleaved with peeks: peek must always
        # report the earliest *live* event and pending() the live count.
        for i in range(50):
            events[i].cancel()
            assert sim.pending() == 100 - (i + 1)
            assert sim.peek_time() == float(i + 2)
        # Cancel from the back too; peek unaffected, pending shrinks.
        events[99].cancel()
        assert sim.pending() == 49
        assert sim.peek_time() == 51.0

    def test_peek_time_empty_and_all_cancelled(self):
        sim = Simulator()
        assert sim.peek_time() is None
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        assert sim.peek_time() is None
        assert sim.pending() == 0

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        drop.cancel()  # second cancel must not skew the bookkeeping
        assert sim.events_cancelled == 1
        assert sim.pending() == 1

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        sim = Simulator()
        fired = sim.schedule(1.0, lambda: None)
        live = sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        fired.cancel()  # no-op: already fired, entry left the heap
        assert sim.pending() == 1
        assert sim.peek_time() == 2.0

    def test_process_stop_leaves_no_live_event(self):
        sim = Simulator()
        ticks = []
        process = Process(sim, 1.0, lambda: ticks.append(sim.now)).start()
        sim.run(until=2.5)
        process.stop()
        assert process._event is None
        assert sim.pending() == 0  # the cancelled tick is not live
        assert sim.run(until=50.0) == 50.0
        assert len(ticks) == 2

    def test_determinism_with_cancels_same_schedule_same_order(self):
        def run_once():
            sim = Simulator()
            order = []
            events = []
            for i in range(500):
                events.append(sim.schedule((i * 7919 % 13) / 10.0, order.append, i))
                if i % 5 == 2:
                    events[i // 2].cancel()
            sim.run()
            return order

        assert run_once() == run_once()


class TestStopAndStep:
    def test_stop_halts_processing(self):
        sim = Simulator()
        fired = []

        def stopper():
            fired.append("a")
            sim.stop()

        sim.schedule(1.0, stopper)
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_step_runs_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_max_events_bound(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_zero_budget_runs_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(1.0, fired.append, 2)
        assert sim.run(max_events=0) == 0.0
        assert fired == [] and sim.events_processed == 0 and sim.pending() == 2

    def test_negative_budget_rejected(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(SimulationError):
            sim.run(max_events=-1)
        assert fired == [] and sim.events_processed == 0
        sim.run()  # the rejected call left the simulator usable
        assert fired == [1]

    def test_spent_budget_leaves_the_clock_at_the_last_event(self):
        # An event still due inside the window must not end up in the
        # past: the clock only jumps to ``until`` when nothing is left
        # before it.
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, fired.append, t)
        assert sim.run(until=10.0, max_events=1) == 1.0
        assert sim.run(until=10.0, max_events=0) == 1.0
        # the budget lasts to the window edge: the edge is reached
        assert sim.run(until=2.5, max_events=1) == 2.5
        # the budget lasts until the queue drains: so is the edge
        assert sim.run(until=10.0, max_events=1) == 10.0
        assert fired == [1.0, 2.0, 3.0]

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_stop_leaves_clock_at_stop_time_despite_until(self):
        # Documented boundary: run(until=...) advances the clock to the
        # window edge on a normal drain, but a stop() freezes the clock
        # at the last processed event — the history ends there.
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: None)
        assert sim.run(until=10.0) == 1.0
        assert sim.now == 1.0
        # Resuming the same simulator picks the history back up, and a
        # clean drain then does advance to the window edge.
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0

    def test_reentrant_step_during_run_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.step()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1

    def test_reentrant_run_during_step_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        assert sim.step() is True
        assert len(errors) == 1

    def test_step_skips_cancelled_and_updates_bookkeeping(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        first.cancel()
        assert sim.step() is True
        assert fired == [2]
        assert sim.pending() == 0

    def test_step_routes_through_profiler_like_run(self):
        class RecordingProfiler:
            def __init__(self):
                self.dispatched = []

            def dispatch(self, event):
                self.dispatched.append(event.label)
                event.callback(*event.args)

        sim = Simulator()
        profiler = RecordingProfiler()
        sim.profiler = profiler
        fired = []
        sim.schedule(1.0, fired.append, 1, label="stepped")
        assert sim.step() is True
        assert fired == [1]
        assert profiler.dispatched == ["stepped"]


class TestProcess:
    def test_periodic_ticks(self):
        sim = Simulator()
        ticks = []
        Process(sim, 1.0, lambda: ticks.append(sim.now)).start()
        sim.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_start_after_overrides_first_delay(self):
        sim = Simulator()
        ticks = []
        Process(sim, 1.0, lambda: ticks.append(sim.now), start_after=0.25).start()
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop_halts_ticks(self):
        sim = Simulator()
        ticks = []
        process = Process(sim, 1.0, lambda: ticks.append(sim.now)).start()
        sim.run(until=2.5)
        process.stop()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_body_can_stop_itself(self):
        sim = Simulator()
        holder = {"ticks": 0}

        def body():
            holder["ticks"] += 1
            if holder["ticks"] >= 3:
                holder["p"].stop()

        holder["p"] = Process(sim, 1.0, body).start()
        sim.run(until=100.0)
        assert holder["ticks"] == 3
        assert sim.pending() == 0

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Process(sim, 0.0, lambda: None)

    def test_double_start_is_noop(self):
        sim = Simulator()
        ticks = []
        process = Process(sim, 1.0, lambda: ticks.append(sim.now)).start()
        assert process.start() is process
        sim.run(until=1.5)
        assert ticks == [1.0]


def test_determinism_same_schedule_same_order():
    def run_once():
        sim = Simulator()
        order = []
        for i in range(50):
            sim.schedule((i * 7919 % 13) / 10.0, order.append, i)
        sim.run()
        return order

    assert run_once() == run_once()
