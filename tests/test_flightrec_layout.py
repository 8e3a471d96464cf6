"""The flight recorder's span layout: a ring of rows, read as slotted views.

The recorder keeps each span as one row of a fixed-stride ring — object
references in a list, time and Lamport value in an ``array`` — and
builds :class:`~repro.obs.flightrec.Span` views on read.  A span's attrs
are two tuples — ``names``, one per kind, and ``values`` — instead of a
per-span dict.  These tests pin what that layout must keep (every
kind's ``attrs``, in the order the dict-per-span recorder produced
them; the spans a ``deque(maxlen=N)`` of recorded spans would hold, in
the same order; the lost hops the quadratic scan found) and what it is
for (no per-span ``__dict__``, a bounded number of bytes per span).
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import tracemalloc
from collections import deque

import pytest

from repro.obs import EVENTS, FlightRecorder, ObsSpine
from repro.obs.causal import CausalClock, TraceContext
from repro.obs.events import Span as SpanRule
from repro.obs.flightrec import BLOCK_ROWS
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
    # Bytes per recorded span: ~242 as a ring row (Python 3.11; ~239 on
    # 3.9, ~234 on 3.12) plus 15 %; ~340 as a Span object holding its
    # TraceContext, ~550 with a dict per span.
    BUDGET = 278

    def test_bytes_per_recorded_span(self):
        # Mutation caught: any per-span dict (attrs or __dict__), or a
        # per-span object holding the context and boxed numbers, returning.
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


def _reference_fields(ctx):
    return (ctx.trace_id, ctx.span_id, ctx.parent_id, ctx.lamport)


def _view_fields(span):
    return (
        span.trace_id, span.span_id, span.parent_id, span.lamport, span.name, span.node,
        span.time, span.group, span.key, span.names, span.values,
    )


class TestRowRing:
    """The ring against a ``deque(maxlen=N)`` of the same spans."""

    @pytest.mark.parametrize("max_records", [0, 1, 3, BLOCK_ROWS + 3])
    def test_ring_holds_what_a_bounded_deque_holds(self, max_records):
        # Mutation caught: an off-by-one in the wrap, the oldest row not
        # the one overwritten, a child span's id or Lamport value not
        # child()'s, the views not rebuilt after a record.
        recorder = FlightRecorder(max_records=max_records)
        clock, mirror = CausalClock("s1"), CausalClock("s1")
        reference = deque(maxlen=max_records)
        rng = random.Random(max_records)
        names = ("seq", "next_hop")
        ctx = CausalClock("s0").root()
        recorded = 2 * max_records + 5
        for i in range(recorded):
            values = (i, f"s{i % 3}")
            time = i * 1e-6 + 0.1
            group, key = (i % 2 or None), (f"k{i % 5}" if i % 3 else None)
            if rng.random() < 0.5:
                recorder.record(ctx, f"e{i}", "s1", time, group, key, names, values, clock)
                fields = _reference_fields(mirror.child(ctx))
            else:
                ctx = clock.root()
                mirror.root()
                recorder.record(ctx, f"e{i}", "s1", time, group, key, names, values)
                fields = _reference_fields(ctx)
            reference.append(fields + (f"e{i}", "s1", time, group, key, names, values))
            if i == max_records:
                before = recorder.spans
                assert recorder.spans is before  # cached until the next record
        assert recorder.recorded == recorded
        assert recorder.evictions == recorded - len(reference)
        assert len(recorder.spans) == len(reference)
        assert [_view_fields(span) for span in recorder.spans] == list(reference)
        if max_records:
            assert _view_fields(recorder.spans[0]) == reference[0]
            assert recorder.spans[0].context == TraceContext(*reference[0][:4])
            assert type(recorder.spans[-1].lamport) is int


def _quadratic_lost_hops(spans):
    """``FlightRecorder.lost_hops`` as it was: each forward span scans
    the whole selection for its receive-side child."""
    spans = list(spans)
    lost = []
    for span in spans:
        hop = span.attrs.get("next_hop")
        if hop is None:
            continue
        delivered = any(
            other.parent_id == span.span_id and other.node == hop for other in spans
        )
        if not delivered:
            lost.append(span)
    return lost


class TestLostHops:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_quadratic_scan(self, seed):
        # Mutation caught: a hop counted delivered by a child on another
        # node, by a grandchild, or by a span that is not a child at all.
        rng = random.Random(seed)
        recorder = FlightRecorder()
        nodes = [f"s{i}" for i in range(4)]
        clocks = {node: CausalClock(node) for node in nodes}
        live = [clocks["s0"].root()]
        for i in range(400):
            node = rng.choice(nodes)
            parent = rng.choice(live)
            ctx = clocks[node].child(parent)
            if rng.random() < 0.5:
                hop = rng.choice(nodes)
                recorder.record(ctx, "sro.chain.forward", node, i * 1e-6, 1, "k",
                                ("seq", "next_hop"), (i, hop))
            else:
                recorder.record(ctx, "sro.chain.apply", node, i * 1e-6, 1, "k", ("seq",), (i,))
            live.append(ctx)
        spans = recorder.spans_for_key(1, None)
        expected = _quadratic_lost_hops(spans)
        assert 0 < len(expected) < sum("next_hop" in s.names for s in spans)
        assert [s.span_id for s in recorder.lost_hops(spans)] == [s.span_id for s in expected]
