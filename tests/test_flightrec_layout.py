"""The flight recorder's span layout: a slotted record of values.

A recorded span holds its attrs as two tuples — ``names``, one per
kind, and ``values`` — instead of a per-span dict, and its
``TraceContext`` is slotted too.  These tests pin what that layout must
keep (every kind's ``attrs``, in the order the dict-per-span recorder
produced them) and what it is for (no per-span ``__dict__``, a bounded
number of bytes per span).
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import tracemalloc

import pytest

from repro.obs import EVENTS, FlightRecorder, ObsSpine
from repro.obs.causal import CausalClock, TraceContext
from repro.obs.events import Span as SpanRule
from repro.sim.engine import Simulator

SPAN_KINDS = [
    (kind, rule)
    for kind, event in EVENTS.items()
    for rule in event.rules
    if isinstance(rule, SpanRule)
]


def _fields(kind: str) -> dict:
    """One call site's keywords for ``kind``, in the table's order, each
    with a distinct value."""
    return {name: f"{name}-value" for name in EVENTS[kind].fields}


def _dict_per_span_attrs(kind: str, rule: SpanRule, fields: dict) -> dict:
    """What the dict-per-span recorder stored: the keywords passed
    straight through when the span takes all of them, else the rule's
    attrs picked in the rule's order; ``group`` / ``key`` are the
    recorder's own parameters."""
    event = EVENTS[kind]
    chosen = fields if set(event.fields) == set(rule.fields) else {a: fields[a] for a in rule.fields}
    return {a: v for a, v in chosen.items() if a not in ("group", "key")}


def _recording_spine():
    recorder = FlightRecorder()
    spine = ObsSpine(Simulator(), flight_recorder=recorder)
    return recorder, spine, spine.clock("s0")


class TestSlottedSpans:
    def test_a_recorded_span_has_no_instance_dict(self):
        # Mutation caught: Span back to a plain (dict-backed) class.
        recorder, spine, clock = _recording_spine()
        spine.emit("sro.chain.forward", "s0", clock.root(), **_fields("sro.chain.forward"))
        (span,) = recorder.spans
        assert not hasattr(span, "__dict__")
        assert not hasattr(span.context, "__dict__")

    def test_spans_of_one_kind_share_one_names_tuple(self):
        # Mutation caught: the handler building the names per span.
        recorder, spine, clock = _recording_spine()
        for node in ("s0", "s1"):
            spine.clock(node)
            for _ in range(3):
                spine.emit("sro.chain.forward", node, clock.root(), **_fields("sro.chain.forward"))
        first = recorder.spans[0].names
        assert first == ("seq", "next_hop")
        assert all(span.names is first for span in recorder.spans)

    @pytest.mark.parametrize("kind,rule", SPAN_KINDS, ids=[kind for kind, _ in SPAN_KINDS])
    def test_attrs_match_the_dict_per_span_recorder(self, kind, rule):
        # Mutation caught: attrs reordered, a group/key leaking into
        # attrs, or an attr dropped.
        recorder, spine, clock = _recording_spine()
        fields = _fields(kind)
        spine.emit(kind, "s0", clock.root(), **fields)
        (span,) = recorder.spans
        expected = _dict_per_span_attrs(kind, rule, fields)
        assert list(span.attrs.items()) == list(expected.items())
        assert repr(span.attrs) == repr(expected)
        group = fields["group"] if "group" in rule.fields else None
        key = fields["key"] if "key" in rule.fields else None
        assert (span.group, span.key) == (group, key)
        assert span.name == (rule.name or kind)


class TestSlottedTraceContext:
    def test_assignment_raises(self):
        ctx = TraceContext("T:s0:1", "s0:1", None, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.lamport = 2

    def test_equal_contexts_hash_equal(self):
        a = TraceContext("T:s0:1", "s0:2", "s0:1", 3)
        b = TraceContext("T:s0:1", "s0:2", "s0:1", 3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != TraceContext("T:s0:1", "s0:2", "s0:1", 4)
        assert str(a) == "T:s0:1/s0:2<-s0:1@L3"

    def test_copies_and_pickles_to_an_equal_context(self):
        ctx = TraceContext("T:s0:1", "s0:2", None, 3)
        assert not hasattr(ctx, "__dict__")
        for clone in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
            assert clone == ctx and hash(clone) == hash(ctx)


class TestSpanFootprint:
    SPANS = 10_000
    BUDGET = 400  # bytes per recorded span: ~340 slotted, ~550 with a dict per span

    def test_bytes_per_recorded_span(self):
        # Mutation caught: any per-span dict (attrs or __dict__) returning.
        recorder, spine, _ = _recording_spine()
        clock = CausalClock("s0")
        keys = [f"k{i}" for i in range(64)]
        ctx = clock.root()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(self.SPANS):
                # A trace's spans, each a child of the one before: each
                # brings its own context and span id, the trace id is shared.
                ctx = clock.child(ctx)
                spine.emit(
                    "sro.chain.forward", "s0", ctx,
                    group=1, key=keys[i % 64], seq=1000 + i, next_hop="s1",
                )
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert recorder.recorded == len(recorder.spans) == self.SPANS
        per_span = (after - before) / self.SPANS
        assert per_span <= self.BUDGET, f"{per_span:.0f} B per span"
