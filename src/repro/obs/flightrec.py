"""Flight recorder: a bounded ring of causal spans + post-mortem engine.

Protocol code stamps :class:`~repro.obs.causal.TraceContext` objects on
messages while a recorder is attached (pure counter arithmetic,
digest-neutral; an unwatched clock stamps ``None``), and the recording
of spans goes through the deployment's observability spine
(:mod:`repro.obs.spine`), which is the recorder's one caller on the
protocol path.

The recorder answers two questions the aggregate telemetry of PR 2
cannot:

* **"what happened to this write?"** — :meth:`FlightRecorder.render_timeline`
  orders the spans of a trace_id or a ``(group, key)`` pair causally
  and prints them as a human-readable timeline (who held the pending
  bit, which epoch fenced which command, where a chain hop was lost);
* **"did A happen before B?"** — :class:`TraceQuery` exposes
  ``assert_happens_before`` / ``span_count`` / ``max_chain_depth`` so
  tests and ``bench_chaos_soak`` can assert causal structure directly.

The ring is bounded (``max_records``) and counts ``evictions`` (spans
recorded but no longer held, so a zero-capacity ring reports every
span lost); ``bind_metrics`` has a registry read the eviction count as
a gauge so truncation shows up in bench sidecars instead of silently
eating the start of a post-mortem.

The recorder keeps rows, not objects (see :class:`FlightRecorder`): a
span's object references and its unboxed time and Lamport value, the
attr names one tuple per event kind (built once by the spine's ``Span``
rule) and the values one tuple per span; :attr:`FlightRecorder.spans`
builds :class:`Span` views on read and :attr:`Span.attrs` zips the two
tuples into a dict only when read.  A recorded span costs about 242 B
under ``tracemalloc`` and about 204 B of peak RSS in ``nf_mix_obs``
(as a ``Span`` object holding its ``TraceContext`` it cost about 340 B
and 365 B), so the default 65 536-span ring costs about 13 MB when
full.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.causal import CausalClock, TraceContext
from repro.obs.metrics import MetricsRegistry

__all__ = ["Span", "FlightRecorder", "TraceQuery"]

#: Default ring capacity — comfortably holds a chaos-soak's hot keys.
DEFAULT_MAX_SPANS = 65536

#: Object references per ring row: trace id, span id, parent id, name,
#: node, group, key, attr names, attr values.
ROW_REFS = 9
#: Numbers per ring row: time, Lamport value and — for a span whose id
#: the ring does not hold as a string — the span's number on its node.
ROW_NUMS = 3
#: The ring is allocated in blocks of ``1 << BLOCK_BITS`` rows, so that
#: growing it never copies what it holds.
BLOCK_BITS = 10
BLOCK_ROWS = 1 << BLOCK_BITS


class Span:
    """One recorded causal event, as read back from the recorder's ring.

    ``name`` is a dotted event identifier (``sro.chain.apply``,
    ``controller.command.fenced``, ...); ``attrs`` carries the
    event-specific detail the timeline renderer prints (seq, slot,
    epoch, next_hop, ...).

    The attrs are stored as ``names`` (shared by every span of one kind)
    and ``values``; :attr:`attrs` zips them into a dict on each read.
    """

    __slots__ = ("context", "name", "node", "time", "group", "key", "names", "values")

    def __init__(
        self,
        context: TraceContext,
        name: str,
        node: str,
        time: float,
        group: Optional[int],
        key: Any,
        names: Tuple[str, ...],
        values: Tuple[Any, ...],
    ) -> None:
        self.context = context
        self.name = name
        self.node = node
        self.time = time
        self.group = group
        self.key = key
        self.names = names
        self.values = values

    @property
    def attrs(self) -> Dict[str, Any]:
        return dict(zip(self.names, self.values))

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    @property
    def parent_id(self) -> Optional[str]:
        return self.context.parent_id

    @property
    def lamport(self) -> int:
        return self.context.lamport

    def describe(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        target = ""
        if self.group is not None:
            target = f" group={self.group}"
            if self.key is not None:
                target += f" key={self.key}"
        return f"{self.name}{target}{(' ' + extras) if extras else ''}"


class FlightRecorder:
    """Bounded ring of spans with causal-tree reconstruction.

    The ring is rows, not objects.  Row ``r`` lives in block
    ``b = r >> BLOCK_BITS`` at ``i = r & (BLOCK_ROWS - 1)``: its object
    references (:data:`ROW_REFS`) are
    ``_refs[b][i * ROW_REFS:(i + 1) * ROW_REFS]`` and its numbers
    (time, Lamport value, span number) ``_nums[b][i * ROW_NUMS:(i + 1)
    * ROW_NUMS]``, unboxed.  A ``child=True`` span's id is no string
    until read: its slot holds ``None`` and the row its number on the
    emitting node (``CausalClock.stamp``).  Blocks are allocated as the
    ring fills, up to ``max_records`` rows; from then on the oldest row
    is overwritten in place.  :attr:`spans` builds the :class:`Span`
    views, in ring order, on read and keeps them until the next record.

    Queries scan the ring (they run at post-mortem time, not on the hot
    path), so there are no secondary indexes to keep consistent under
    eviction.
    """

    def __init__(self, max_records: int = DEFAULT_MAX_SPANS) -> None:
        self.max_records = max_records
        self.recorded = 0
        self._refs: List[List[Any]] = []
        self._nums: List[array] = []
        #: Rows allocated, rows holding a span, and once every row
        #: holds one, the oldest (the row the next span overwrites).
        self._rows = 0
        self._held = 0
        self._next = 0
        self._views: Optional[List[Span]] = None

    @property
    def evictions(self) -> int:
        """Spans recorded but no longer in the ring."""
        return self.recorded - self._held

    @property
    def spans(self) -> List[Span]:
        """The held spans, oldest first."""
        views = self._views
        if views is None:
            views = self._views = [
                self._view(row)
                for row in chain(range(self._next, self._held), range(self._next))
            ]
        return views

    def _view(self, row: int) -> Span:
        block, i = row >> BLOCK_BITS, row & (BLOCK_ROWS - 1)
        trace_id, span_id, parent_id, name, node, group, key, names, values = (
            self._refs[block][i * ROW_REFS:(i + 1) * ROW_REFS]
        )
        time, lamport, number = self._nums[block][i * ROW_NUMS:(i + 1) * ROW_NUMS]
        if span_id is None:
            span_id = f"{node}:{int(number)}"
        context = TraceContext(trace_id, span_id, parent_id, int(lamport))
        return Span(context, name, node, time, group, key, names, values)

    # -- recording ------------------------------------------------------

    def record(
        self,
        context: Optional[TraceContext],
        name: str,
        node: str,
        time: float,
        group: Optional[int],
        key: Any,
        names: Tuple[str, ...],
        values: Tuple[Any, ...],
        clock: Optional[CausalClock] = None,
        /,
    ) -> None:
        """Write one span into the ring; silently drops untraced
        (None-context) events.

        The span is ``context`` itself, or with a ``clock`` (``node``'s),
        a child of ``context`` that ``clock`` numbers
        (``CausalClock.stamp``).  ``values`` are the span's attrs in the
        order of ``names``; the spine passes one ``names`` tuple per kind
        (:class:`repro.obs.events.Span`).  Read spans back through
        :attr:`spans`."""
        if context is None:
            return
        if clock is None:
            span_id, parent_id, lamport = context.span_id, context.parent_id, context.lamport
            number = 0
        else:
            span_id, parent_id = None, context.span_id
            number = clock.stamp(context.lamport)
            lamport = clock.lamport
        self.recorded += 1
        self._views = None
        held = self._held
        if held < self.max_records:
            row = held
            self._held = held + 1
            if row == self._rows:
                self._grow()
        elif held:
            row = self._next
            self._next = 0 if row + 1 == held else row + 1
        else:
            return  # a zero-capacity ring keeps nothing
        block, i = row >> BLOCK_BITS, row & (BLOCK_ROWS - 1)
        at = i * ROW_REFS
        self._refs[block][at:at + ROW_REFS] = (
            context.trace_id, span_id, parent_id, name, node, group, key, names, values
        )
        nums = self._nums[block]
        at = i * ROW_NUMS
        nums[at] = time
        nums[at + 1] = lamport
        nums[at + 2] = number

    def _grow(self) -> None:
        """Allocate the next block of rows, up to ``max_records``."""
        rows = min(BLOCK_ROWS, self.max_records - self._rows)
        self._refs.append([None] * (rows * ROW_REFS))
        self._nums.append(array("d", bytes(rows * ROW_NUMS * 8)))
        self._rows += rows

    def bind_metrics(self, metrics: MetricsRegistry, node: str = "obs") -> None:
        """Have ``metrics`` read the eviction/occupancy gauges whenever
        it is read (:meth:`MetricsRegistry.add_source`)."""

        def read(into: MetricsRegistry) -> None:
            into.gauge("flightrec.evictions", node).set(self.evictions)
            into.gauge("flightrec.spans", node).set(self._held)
            into.gauge("flightrec.recorded", node).set(self.recorded)

        metrics.add_source(read)

    # -- selection ------------------------------------------------------

    def spans_for_trace(self, trace_id: str) -> List[Span]:
        return self._ordered([s for s in self.spans if s.trace_id == trace_id])

    def traces_for_key(self, group: int, key: Any = None) -> List[str]:
        """trace_ids that ever touched ``(group, key)``, in first-seen
        order.  ``key=None`` is a wildcard: every trace touching the
        group (per-slot invariant breaches know the group but not the
        key)."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            if span.group != group or span.trace_id in seen:
                continue
            if key is not None and span.key != key:
                continue
            seen[span.trace_id] = None
        return list(seen)

    def spans_for_key(self, group: int, key: Any = None) -> List[Span]:
        """All spans of all traces touching ``(group, key)``, causal order."""
        traces = set(self.traces_for_key(group, key))
        return self._ordered([s for s in self.spans if s.trace_id in traces])

    @staticmethod
    def _ordered(spans: List[Span]) -> List[Span]:
        # Lamport first (the causal order), then simulated time and the
        # deterministic span id as tie-breaks — stable across replays.
        return sorted(spans, key=lambda s: (s.lamport, s.time, s.span_id))

    # -- reconstruction -------------------------------------------------

    def lost_hops(self, spans: Iterable[Span]) -> List[Span]:
        """Forward-spans whose announced next hop never produced a span.

        A ``*.forward`` span with a ``next_hop`` attribute promises a
        receiving-side child on that node; if the ring holds no child
        span from that node, the hop was lost in flight (or the apply
        was dropped by a fault) — exactly the "where did the chain hop
        die" question a post-mortem needs answered.
        """
        spans = list(spans)
        received = {(span.parent_id, span.node) for span in spans}
        lost = []
        for span in spans:
            hop = span.attrs.get("next_hop")
            if hop is not None and (span.span_id, hop) not in received:
                lost.append(span)
        return lost

    # -- rendering ------------------------------------------------------

    def render_timeline(
        self,
        trace_id: Optional[str] = None,
        group: Optional[int] = None,
        key: Any = None,
        limit: int = 120,
    ) -> str:
        """A human-readable, causally ordered timeline.

        Select either one trace (``trace_id``) or every trace touching
        a register (``group`` + ``key``).  Each line shows simulated
        time, Lamport clock, node, depth-indented event, and attrs;
        lost hops are called out at the bottom.
        """
        if trace_id is not None:
            spans = self.spans_for_trace(trace_id)
            header = f"timeline for trace {trace_id}"
        elif group is not None:
            spans = self.spans_for_key(group, key)
            shown_key = "*" if key is None else key
            header = (
                f"timeline for group={group} key={shown_key}"
                f" ({len(self.traces_for_key(group, key))} trace(s))"
            )
        else:
            raise ValueError("render_timeline needs trace_id or (group, key)")
        if not spans:
            return header + "\n  (no spans recorded)"

        depths: Dict[str, int] = {}
        by_id = {s.span_id: s for s in spans}

        def depth(span: Span) -> int:
            d = depths.get(span.span_id)
            if d is None:
                parent = by_id.get(span.parent_id) if span.parent_id else None
                d = 0 if parent is None else depth(parent) + 1
                depths[span.span_id] = d
            return d

        lines = [header]
        truncated = len(spans) - limit
        for span in spans[:limit]:
            indent = "  " * depth(span)
            lines.append(
                f"  [{span.time * 1e6:10.2f}us] L{span.lamport:<4d} {span.node:<6s} "
                f"{indent}{span.describe()}  ({span.span_id})"
            )
        if truncated > 0:
            lines.append(f"  ... {truncated} more span(s) truncated")
        for span in self.lost_hops(spans):
            lines.append(
                f"  !! LOST HOP: {span.node} forwarded to {span.attrs.get('next_hop')}"
                f" at {span.time * 1e6:.2f}us ({span.describe()}) — no receive span from"
                f" {span.attrs.get('next_hop')}"
            )
        if self.evictions:
            lines.append(
                f"  (ring evicted {self.evictions} span(s); earliest history may be missing)"
            )
        return "\n".join(lines)

    def query(
        self, trace_id: Optional[str] = None, group: Optional[int] = None, key: Any = None
    ) -> "TraceQuery":
        if trace_id is not None:
            return TraceQuery(self, self.spans_for_trace(trace_id))
        if group is not None:
            return TraceQuery(self, self.spans_for_key(group, key))
        raise ValueError("query needs trace_id or (group, key)")


class TraceQuery:
    """Assertion helpers over a selected span set (tests, benchmarks)."""

    def __init__(self, recorder: FlightRecorder, spans: List[Span]) -> None:
        self.recorder = recorder
        self.spans = spans

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def span_count(self, name: Optional[str] = None) -> int:
        return len(self.spans) if name is None else len(self.named(name))

    def assert_happens_before(self, first: str, then: str) -> None:
        """Every ``first`` span must causally precede every ``then`` span."""
        a, b = self.named(first), self.named(then)
        if not a or not b:
            raise AssertionError(
                f"assert_happens_before({first!r}, {then!r}): missing spans "
                f"({len(a)} x {first}, {len(b)} x {then})"
            )
        max_a, min_b = max(s.lamport for s in a), min(s.lamport for s in b)
        if max_a >= min_b:
            detail = self._timeline()
            raise AssertionError(
                f"{first} (max L{max_a}) does not happen-before {then} (min L{min_b})\n{detail}"
            )

    def max_chain_depth(self) -> int:
        """Longest parent-link path in the selected spans (edge count)."""
        by_id = {s.span_id: s for s in self.spans}
        depths: Dict[str, int] = {}

        def depth(span: Span) -> int:
            d = depths.get(span.span_id)
            if d is None:
                parent = by_id.get(span.parent_id) if span.parent_id else None
                d = 0 if parent is None else depth(parent) + 1
                depths[span.span_id] = d
            return d

        return max((depth(s) for s in self.spans), default=0)

    def nodes(self) -> Tuple[str, ...]:
        """Distinct nodes that produced spans, in causal-order first-seen."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            if span.node not in seen:
                seen[span.node] = None
        return tuple(seen)

    def _timeline(self) -> str:
        if not self.spans:
            return "(no spans)"
        trace_ids = {s.trace_id for s in self.spans}
        if len(trace_ids) == 1:
            return self.recorder.render_timeline(trace_id=next(iter(trace_ids)))
        lines = [self.recorder.render_timeline(trace_id=t) for t in sorted(trace_ids)]
        return "\n".join(lines)
