"""``Simulator.post`` against ``schedule``: random kernel programs run on
the kernel and on a reference whose ``post`` is ``schedule`` must fire
the same callbacks at the same instants and leave the same bookkeeping.

A program is a list of operations — ``schedule`` / ``schedule_at`` /
``post``, bursts of both, ``cancel`` (one or all handles), ``step``,
``peek_time`` and ``run(until=)`` — over a handful of delays, zero
among them, so times tie.  A fired callback may itself post, schedule or
cancel, so entries are pushed and compactions happen mid-run.  After
every operation the clock, ``events_processed``, ``pending()``,
``queue_len()``, ``peak_queue_len`` and ``compactions`` are recorded.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


class _Reference(Simulator):
    """``post`` as it was before it existed: a scheduled event."""

    def post(self, delay, callback, arg):
        self.schedule(delay, callback, arg)


class _Profiler:
    """Logs every dispatched event's time, callback and args, runs it."""

    def __init__(self):
        self.log = []

    def dispatch(self, event):
        self.log.append((event.time, event.callback, event.args, event.label))
        event.callback(*event.args)


DELAYS = (0.0, 0.1, 0.2, 0.5, 1.0, 1.0)
RUN_FOR = (0.0, 0.3, 1.0, 3.0)

_delay = st.sampled_from(DELAYS)
#: What a callback does when it fires, besides logging itself.
_child = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(("post", "schedule")), _delay),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
)
_op = st.one_of(
    st.tuples(st.sampled_from(("schedule", "schedule_at", "post")), _delay, _child),
    st.tuples(st.just("burst"), st.integers(1, 90), _delay),
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    st.tuples(st.just("cancel_all")),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("run"), st.sampled_from(RUN_FOR)),
)
programs = st.lists(_op, max_size=40)

#: 60 cancellable events among 90 entries, all cancelled: a compaction.
COMPACTING = [("burst", 90, 1.0), ("cancel_all",), ("run", 3.0)]


class _World:
    """One run of one program on one simulator."""

    def __init__(self, sim):
        self.sim = sim
        self.handles = []
        self.fired = []
        self.posted = []
        self.children = {}
        self.next_tag = 0

    def fire(self, tag):
        self.fired.append((tag, self.sim.now))
        child = self.children.pop(tag, None)
        if child is not None:
            self.act(*child)

    def _tag(self, child=None):
        tag = self.next_tag
        self.next_tag += 1
        if child is not None:
            self.children[tag] = child
        return tag

    def act(self, kind, value, child=None):
        sim = self.sim
        if kind == "post":
            tag = self._tag(child)
            self.posted.append(tag)
            sim.post(value, self.fire, tag)
        elif kind == "schedule":
            self.handles.append(sim.schedule(value, self.fire, self._tag(child)))
        elif kind == "schedule_at":
            self.handles.append(sim.schedule_at(sim.now + value, self.fire, self._tag(child)))
        elif kind == "cancel":
            if self.handles:
                self.handles[value % len(self.handles)].cancel()
        else:
            raise AssertionError(kind)

    def apply(self, op):
        """Run one operation; returns what it returned, if anything."""
        kind = op[0]
        sim = self.sim
        if kind in ("schedule", "schedule_at", "post"):
            self.act(kind, op[1], op[2])
        elif kind == "burst":
            for i in range(op[1]):
                self.act("post" if i % 3 == 2 else "schedule", op[2])
        elif kind == "cancel":
            self.act(kind, op[1])
        elif kind == "cancel_all":
            for handle in self.handles:
                handle.cancel()
        elif kind == "step":
            return sim.step()
        elif kind == "peek":
            return sim.peek_time()
        else:
            return sim.run(until=sim.now + op[1])
        return None

    def observe(self, result):
        sim = self.sim
        return (result, sim.now, sim.events_processed, sim.pending(), sim.queue_len(),
                sim.peak_queue_len, sim.compactions, sim.events_cancelled)


def _trace(sim_class, program, profiled=False):
    sim = sim_class()
    if profiled:
        sim.profiler = _Profiler()
    world = _World(sim)
    states = [world.observe(world.apply(op)) for op in program]
    states.append(world.observe(sim.run()))
    log = None
    if profiled:
        # what the profiler saw, with the world's bound method named
        log = [(time, callback.__name__, args, label)
               for time, callback, args, label in sim.profiler.log]
        assert all(callback.__self__ is world for _, callback, _, _ in sim.profiler.log)
    return {"fired": world.fired, "states": states, "posted": world.posted, "log": log}


@given(programs)
@example(COMPACTING)
@settings(max_examples=200, deadline=None)
def test_post_is_schedule_without_the_event(program):
    kernel = _trace(Simulator, program)
    assert kernel == _trace(_Reference, program)
    profiled = _trace(Simulator, program, profiled=True)
    assert profiled == dict(kernel, log=profiled["log"])
    assert profiled == _trace(_Reference, program, profiled=True)
    # every posted callback (the final run drains them all) reached the
    # profiler as an Event with its callback and one-element args
    dispatched = {args for _, name, args, _ in profiled["log"] if name == "fire"}
    assert {(tag,) for tag in kernel["posted"]} <= dispatched


def test_the_compacting_program_compacts():
    """The explicit example above does reach the compactor, on both."""
    for sim_class in (Simulator, _Reference):
        trace = _trace(sim_class, COMPACTING)
        assert trace["states"][1][6] == 1  # compactions after cancel_all
        assert len(trace["fired"]) == 30  # the posted third of the burst
