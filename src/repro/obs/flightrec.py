"""Flight recorder: a bounded ring of causal spans + post-mortem engine.

Protocol code stamps :class:`~repro.obs.causal.TraceContext` objects on
messages unconditionally (pure counter arithmetic, digest-neutral); the
*recording* of spans happens only while a recorder is attached to the
deployment's observability spine (:mod:`repro.obs.spine`), which is the
recorder's one caller on the protocol path.

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

A span is a slotted record of values: the attr names are one tuple per
event kind (built once by the spine's ``Span`` rule), the values one
tuple per span, and :attr:`Span.attrs` zips them into a dict only when
read.  With the slotted :class:`~repro.obs.causal.TraceContext` and its
span-id string, a recorded span costs about 340 B under ``tracemalloc``
and about 370 B of peak RSS in ``nf_mix_obs`` (a dict per span cost
about 550-590 B), so the default 65 536-span ring costs about 24 MB
when full.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.obs.causal import TraceContext
from repro.obs.metrics import MetricsRegistry

__all__ = ["Span", "FlightRecorder", "TraceQuery"]

#: Default ring capacity — comfortably holds a chaos-soak's hot keys.
DEFAULT_MAX_SPANS = 65536


class Span:
    """One recorded causal event.

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

    Queries scan the ring (they run at post-mortem time, not on the hot
    path), so there are no secondary indexes to keep consistent under
    eviction.
    """

    def __init__(self, max_records: int = DEFAULT_MAX_SPANS) -> None:
        self.max_records = max_records
        self.spans: Deque[Span] = deque(maxlen=max_records)
        self.recorded = 0

    @property
    def evictions(self) -> int:
        """Spans recorded but no longer in the ring."""
        return self.recorded - len(self.spans)

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
        /,
    ) -> Optional[Span]:
        """Append one span; silently drops untraced (None-context) events.

        ``values`` are the span's attrs in the order of ``names``; the
        spine passes one ``names`` tuple per kind
        (:class:`repro.obs.events.Span`)."""
        if context is None:
            return None
        span = Span(context, name, node, time, group, key, names, values)
        self.spans.append(span)
        self.recorded += 1
        return span

    def bind_metrics(self, metrics: MetricsRegistry, node: str = "obs") -> None:
        """Have ``metrics`` read the eviction/occupancy gauges whenever
        it is read (:meth:`MetricsRegistry.add_source`)."""

        def read(into: MetricsRegistry) -> None:
            into.gauge("flightrec.evictions", node).set(self.evictions)
            into.gauge("flightrec.spans", node).set(len(self.spans))
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
