"""Critical-path latency attribution over flight-recorder span trees.

The metrics layer can say *how slow* a committed write was (the
``sro.write_commit_latency_seconds`` histogram); this module says
*why*.  Every committed SRO write leaves a causal span chain in the
:class:`~repro.obs.flightrec.FlightRecorder` — initiate, one send per
attempt, head sequencing, per-hop apply/forward, ack fan-out, commit —
and walking the parent links back from the ``sro.write.commit`` span
recovers the *blocking* critical path, retries and backoff gaps
included.  :class:`CriticalPathAnalyzer` attributes every nanosecond of
the end-to-end latency of each such write to a small fixed taxonomy of
causes (:data:`CAUSES`):

* ``link_propagation`` — time on the wire between switches (the part of
  a cross-node hop exceeding one pipeline pass);
* ``switch_pipeline`` — data-plane service time (one pipeline pass per
  hop, plus zero-width protocol steps on a node);
* ``event_queue`` — control-plane punt and CPU queue residency between
  a write's initiation and its first send;
* ``pending_wait`` — reads detoured to the tail because a pending bit
  was set (realized on ``sro.read.forward`` traces);
* ``retry_backoff`` — writer timeout/backoff gaps between send attempts;
* ``controller_fencing`` — retry gaps explained by an epoch fence or a
  stale-head drop recorded inside the gap;
* ``leaderless_window`` — the part of a retry gap overlapping an
  interval during which no controller replica held the lease
  (:meth:`~repro.protocols.election.ControllerCluster.leaderless_intervals`).

Per write, the attributed seconds sum to the end-to-end latency
*exactly* (each consecutive span pair's gap is split, never resampled),
so the per-cause fractions sum to 1.0 — the honesty property the
BENCH_T3 gate enforces to 1e-9.  EWO merge rounds get the same per-hop
link/pipeline split via :meth:`CriticalPathAnalyzer.analyze_merges`.

Like everything in ``repro.obs``, the analyzer is a pure post-mortem
function of recorded state: it schedules no events, draws no RNG, reads
no wall clock, and never iterates a dict in accumulation order — reports
are byte-identical across same-seed replays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.flightrec import FlightRecorder, Span

__all__ = [
    "CAUSES",
    "DEFAULT_PIPELINE_LATENCY",
    "Segment",
    "WriteAttribution",
    "HopAttribution",
    "CritPathReport",
    "CriticalPathAnalyzer",
]

#: The fixed attribution taxonomy, in canonical (report) order.  Every
#: attributed second lands in exactly one of these.
CAUSES: Tuple[str, ...] = (
    "link_propagation",
    "switch_pipeline",
    "event_queue",
    "pending_wait",
    "retry_backoff",
    "controller_fencing",
    "leaderless_window",
)

#: One pipeline pass, in seconds.  Must match
#: ``repro.switch.pisa.PIPELINE_LATENCY`` (kept as a local constant so
#: the observability layer does not import the switch model; a test
#: pins the two together).
DEFAULT_PIPELINE_LATENCY = 400e-9

#: Span names that prove a retry gap was spent waiting out a
#: configuration fence rather than a plain timeout.
_FENCE_SPANS = frozenset({"sro.head.stale_drop", "sro.chain.fenced"})


@dataclass
class Segment:
    """One attributed slice of a critical path."""

    cause: str
    start: float
    end: float
    src: str  # "<node>/<span name>" that opened the slice
    dst: str  # "<node>/<span name>" that closed it

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class WriteAttribution:
    """One committed write's full latency, split across :data:`CAUSES`."""

    trace_id: str
    group: Optional[int]
    key: Any
    writer: str
    committed_at: float
    latency: float
    attempts: int
    segments: List[Segment] = field(default_factory=list)
    by_cause: Dict[str, float] = field(default_factory=dict)

    @property
    def fraction_sum(self) -> float:
        total = 0.0
        for cause in CAUSES:
            total += self.by_cause[cause]
        return total / self.latency if self.latency > 0 else 1.0


@dataclass
class HopAttribution:
    """One EWO merge hop (broadcast/sync -> merge) or read detour."""

    trace_id: str
    kind: str  # "merge" | "read"
    src_node: str
    dst_node: str
    latency: float
    by_cause: Dict[str, float] = field(default_factory=dict)


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (exact samples)."""
    if not sorted_values:
        return 0.0
    if q <= 0:
        return sorted_values[0]
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


class CritPathReport:
    """Ranked "why is the tail slow" summary over analyzed writes."""

    def __init__(
        self,
        writes: List[WriteAttribution],
        hops: List[HopAttribution],
        skipped: int,
        tail_quantile: float = 0.99,
    ) -> None:
        self.writes = writes
        self.hops = hops
        self.skipped = skipped
        self.tail_quantile = tail_quantile

    # -- aggregation ----------------------------------------------------
    def totals(self, writes: Optional[Iterable[WriteAttribution]] = None) -> Dict[str, float]:
        """Per-cause seconds summed over ``writes`` (default: all)."""
        selected = self.writes if writes is None else list(writes)
        totals: Dict[str, float] = {}
        for cause in CAUSES:
            acc = 0.0
            for write in selected:
                acc += write.by_cause[cause]
            totals[cause] = acc
        return totals

    def tail_writes(self, quantile: Optional[float] = None) -> List[WriteAttribution]:
        """Writes at or above the latency quantile (the slow tail)."""
        q = self.tail_quantile if quantile is None else quantile
        if not self.writes:
            return []
        threshold = _quantile(sorted(w.latency for w in self.writes), q)
        return [w for w in self.writes if w.latency >= threshold]

    def ranked(
        self, writes: Optional[Iterable[WriteAttribution]] = None
    ) -> List[Tuple[str, float, float]]:
        """``[(cause, seconds, fraction)]`` ranked by contribution.

        Ties break on canonical cause order, so the ranking is stable
        across replays even when two causes contribute identically.
        """
        totals = self.totals(writes)
        grand = 0.0
        for cause in CAUSES:
            grand += totals[cause]
        order = sorted(range(len(CAUSES)), key=lambda i: (-totals[CAUSES[i]], i))
        return [
            (CAUSES[i], totals[CAUSES[i]], totals[CAUSES[i]] / grand if grand > 0 else 0.0)
            for i in order
        ]

    def top_tail_cause(self, quantile: Optional[float] = None) -> Optional[str]:
        """The cause contributing the most time to the slow tail."""
        tail = self.tail_writes(quantile)
        if not tail:
            return None
        return self.ranked(tail)[0][0]

    def exemplar(self, cause: str) -> Optional[WriteAttribution]:
        """The write where ``cause`` cost the most absolute time."""
        best: Optional[WriteAttribution] = None
        for write in self.writes:
            if write.by_cause[cause] <= 0:
                continue
            if best is None or write.by_cause[cause] > best.by_cause[cause]:
                best = write
        return best

    @property
    def fraction_sum_error_max(self) -> float:
        worst = 0.0
        for write in self.writes:
            worst = max(worst, abs(write.fraction_sum - 1.0))
        return worst

    def latency_quantiles(self) -> Dict[str, float]:
        ordered = sorted(w.latency for w in self.writes)
        return {
            "p50": _quantile(ordered, 0.50) * 1e6,
            "p99": _quantile(ordered, 0.99) * 1e6,
            "p999": _quantile(ordered, 0.999) * 1e6,
            "max": (ordered[-1] if ordered else 0.0) * 1e6,
        }

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready, deterministically ordered report."""
        tail = self.tail_writes()
        overall = self.ranked()
        tail_ranked = self.ranked(tail)
        exemplars: Dict[str, str] = {}
        for cause in CAUSES:
            best = self.exemplar(cause)
            if best is not None:
                exemplars[cause] = best.trace_id
        return {
            "writes_analyzed": len(self.writes),
            "writes_skipped": self.skipped,
            "merge_hops": len([h for h in self.hops if h.kind == "merge"]),
            "read_detours": len([h for h in self.hops if h.kind == "read"]),
            "latency_us": self.latency_quantiles(),
            "fraction_sum_error_max": self.fraction_sum_error_max,
            "causes": [
                {"cause": cause, "seconds": seconds, "fraction": fraction}
                for cause, seconds, fraction in overall
            ],
            "tail": {
                "quantile": self.tail_quantile,
                "writes": len(tail),
                "top_cause": tail_ranked[0][0] if tail else None,
                "causes": [
                    {"cause": cause, "seconds": seconds, "fraction": fraction}
                    for cause, seconds, fraction in tail_ranked
                ],
            },
            "exemplars": exemplars,
        }


class CriticalPathAnalyzer:
    """Post-mortem critical-path extraction from a flight recorder.

    ``leaderless`` is a list of ``(start, end)`` sim-time intervals
    during which no controller held the lease — pass
    ``deployment.controller.leaderless_intervals()`` so writer retry
    waits overlapping an interregnum are charged to
    ``leaderless_window`` instead of ``retry_backoff``.
    """

    def __init__(
        self,
        recorder: FlightRecorder,
        leaderless: Sequence[Tuple[float, float]] = (),
        pipeline_latency: float = DEFAULT_PIPELINE_LATENCY,
    ) -> None:
        self.recorder = recorder
        self.leaderless = list(leaderless)
        self.pipeline_latency = pipeline_latency

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _spans_by_trace(self) -> Dict[str, List[Span]]:
        by_trace: Dict[str, List[Span]] = {}
        for span in self.recorder.spans:  # ring order: deterministic
            by_trace.setdefault(span.trace_id, []).append(span)
        return by_trace

    # ------------------------------------------------------------------
    # Write analysis
    # ------------------------------------------------------------------
    def analyze_writes(self) -> Tuple[List[WriteAttribution], int]:
        """Attribute every committed write in the ring.

        Returns ``(attributions, skipped)`` where ``skipped`` counts
        commits whose chain was truncated by ring eviction (their root
        is not the ``sro.write.initiate`` span, so a sum-to-latency
        attribution would lie).
        """
        by_trace = self._spans_by_trace()
        out: List[WriteAttribution] = []
        skipped = 0
        for span in self.recorder.spans:
            if span.name != "sro.write.commit":
                continue
            attribution = self.analyze_write(span, by_trace.get(span.trace_id, []))
            if attribution is None:
                skipped += 1
            else:
                out.append(attribution)
        return out, skipped

    def analyze_write(
        self, commit: Span, trace_spans: List[Span]
    ) -> Optional[WriteAttribution]:
        """Attribute one commit span's end-to-end latency, or ``None``
        if the chain back to the initiate span is incomplete."""
        by_id = {s.span_id: s for s in trace_spans}
        path: List[Span] = [commit]
        seen = {commit.span_id}
        span = commit
        while span.parent_id is not None and span.parent_id in by_id:
            span = by_id[span.parent_id]
            if span.span_id in seen:
                break
            seen.add(span.span_id)
            path.append(span)
        path.reverse()
        if path[0].name != "sro.write.initiate":
            return None
        fence_times = [
            s.time for s in trace_spans if s.name in _FENCE_SPANS
        ]
        attempts = len([s for s in path if s.name == "sro.write.send"])
        segments: List[Segment] = []
        for a, b in zip(path, path[1:]):
            segments.extend(self._classify(a, b, fence_times))
        by_cause = {cause: 0.0 for cause in CAUSES}
        for segment in segments:
            by_cause[segment.cause] += segment.duration
        return WriteAttribution(
            trace_id=commit.trace_id,
            group=commit.group,
            key=commit.key,
            writer=commit.node,
            committed_at=commit.time,
            latency=commit.time - path[0].time,
            attempts=attempts,
            segments=segments,
            by_cause=by_cause,
        )

    def _classify(self, a: Span, b: Span, fence_times: List[float]) -> List[Segment]:
        """Split the gap between consecutive path spans into segments.

        The split is exact: segment durations sum to ``b.time - a.time``
        with no resampling, which is what makes per-write fractions sum
        to 1.0.
        """
        gap = b.time - a.time
        if gap <= 0:
            return []
        src = f"{a.node}/{a.name}"
        dst = f"{b.node}/{b.name}"
        if a.node != b.node:
            # Network hop: one pipeline pass of service at the receiver,
            # the rest is serialization + propagation on the wire.
            pipeline = min(gap, self.pipeline_latency)
            segments = []
            if gap > pipeline:
                segments.append(
                    Segment("link_propagation", a.time, b.time - pipeline, src, dst)
                )
            segments.append(
                Segment("switch_pipeline", b.time - pipeline, b.time, src, dst)
            )
            return segments
        if a.name == "sro.write.send" and b.name == "sro.write.send":
            return self._split_wait(a.time, b.time, src, dst, fence_times)
        if a.name == "sro.chain.reorder_stash":
            # Stash residency: the update sat waiting for its missing
            # predecessor, whose re-propagation is gated by the same
            # retry/leaderless machinery as a writer's own backoff.
            return self._split_wait(a.time, b.time, src, dst, fence_times)
        if a.name == "sro.write.initiate":
            # Initiation -> first send: the control-plane punt plus CPU
            # queue residency ahead of it.
            return [Segment("event_queue", a.time, b.time, src, dst)]
        # Same-node protocol step (sequence -> apply, apply -> forward,
        # apply -> ack emit, deliver -> commit): pipeline service.
        return [Segment("switch_pipeline", a.time, b.time, src, dst)]

    def _split_wait(
        self, start: float, end: float, src: str, dst: str, fence_times: List[float]
    ) -> List[Segment]:
        """Subdivide a retry gap: leaderless overlap first, then fence
        evidence, then plain timeout/backoff."""
        leaderless = 0.0
        for window_start, window_end in self.leaderless:
            overlap = min(end, window_end) - max(start, window_start)
            if overlap > 0:
                leaderless += overlap
        leaderless = min(leaderless, end - start)
        rest = (end - start) - leaderless
        segments: List[Segment] = []
        if leaderless > 0:
            segments.append(
                Segment("leaderless_window", start, start + leaderless, src, dst)
            )
        if rest > 0:
            fenced = any(start <= t <= end for t in fence_times)
            segments.append(
                Segment(
                    "controller_fencing" if fenced else "retry_backoff",
                    start + leaderless,
                    end,
                    src,
                    dst,
                )
            )
        return segments

    # ------------------------------------------------------------------
    # EWO merge rounds and read detours
    # ------------------------------------------------------------------
    def analyze_merges(self) -> List[HopAttribution]:
        """Per-hop attribution for every ``ewo.merge`` span: the gap from
        its broadcast/sync parent splits into link + pipeline."""
        by_id = {s.span_id: s for s in self.recorder.spans}
        out: List[HopAttribution] = []
        for span in self.recorder.spans:
            if span.name != "ewo.merge" or span.parent_id not in by_id:
                continue
            parent = by_id[span.parent_id]
            gap = span.time - parent.time
            if gap < 0:
                continue
            by_cause = {cause: 0.0 for cause in CAUSES}
            if parent.node != span.node:
                pipeline = min(gap, self.pipeline_latency)
                by_cause["switch_pipeline"] = pipeline
                by_cause["link_propagation"] = gap - pipeline
            else:
                by_cause["switch_pipeline"] = gap
            out.append(
                HopAttribution(
                    trace_id=span.trace_id,
                    kind="merge",
                    src_node=parent.node,
                    dst_node=span.node,
                    latency=gap,
                    by_cause=by_cause,
                )
            )
        return out

    def analyze_reads(self) -> List[HopAttribution]:
        """Pending-bit cost realized as read detours: the whole
        forward -> tail transit exists only because a pending bit held
        the local copy unreadable, so it is charged to ``pending_wait``
        in full."""
        by_trace = self._spans_by_trace()
        out: List[HopAttribution] = []
        for span in self.recorder.spans:
            if span.name != "sro.read.forward":
                continue
            trace = by_trace.get(span.trace_id, [])
            tails = [s for s in trace if s.name == "sro.read.tail"]
            if not tails:
                continue
            tail = tails[-1]
            gap = tail.time - span.time
            if gap < 0:
                continue
            by_cause = {cause: 0.0 for cause in CAUSES}
            by_cause["pending_wait"] = gap
            out.append(
                HopAttribution(
                    trace_id=span.trace_id,
                    kind="read",
                    src_node=span.node,
                    dst_node=tail.node,
                    latency=gap,
                    by_cause=by_cause,
                )
            )
        return out

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def report(self, tail_quantile: float = 0.99) -> CritPathReport:
        writes, skipped = self.analyze_writes()
        hops = self.analyze_merges() + self.analyze_reads()
        return CritPathReport(writes, hops, skipped, tail_quantile=tail_quantile)

    def render_exemplar(self, report: CritPathReport, cause: str, limit: int = 40) -> str:
        """The exemplar trace timeline for one cause (post-mortem text)."""
        best = report.exemplar(cause)
        if best is None:
            return f"(no write attributes any time to {cause})"
        header = (
            f"exemplar for {cause}: trace {best.trace_id} "
            f"({best.by_cause[cause] * 1e6:.2f}us of {best.latency * 1e6:.2f}us, "
            f"{best.attempts} attempt(s))"
        )
        return header + "\n" + self.recorder.render_timeline(
            trace_id=best.trace_id, limit=limit
        )
