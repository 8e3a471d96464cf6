"""Live SLO monitoring: declarative objectives over streaming sim-time
metrics.

An :class:`SLOMonitor` evaluates objectives written in a small
declarative grammar against samples the protocol hot paths feed it::

    monitor = SLOMonitor()
    monitor.add_objective("sro.write_commit p99 < 5ms over 100ms windows")
    monitor.add_objective("sro.write availability >= 0.999 over 100ms windows")
    deployment = SwiShmemDeployment(sim, topo, nodes, slo_monitor=monitor)
    ...
    sim.run(until=0.5)
    monitor.finalize(sim.now)
    print(render_slo(monitor.as_dict()))

Latency objectives aggregate each tumbling window into a fixed-bucket
:class:`~repro.obs.metrics.Histogram` (bounded memory, interpolated
percentiles); availability objectives track ok/failure event counts.
When a window closes, every objective over that metric is evaluated
once; a miss appends a structured breach event (JSON-ready dict) to
:attr:`SLOMonitor.breaches`, which the chaos invariant machinery and
bench sidecars consume directly.  Per objective the monitor tracks the
burn rate (breached windows / evaluated windows) and a worst-observed
watermark.

Digest neutrality is the same contract as the rest of ``repro.obs``:
hooks only mutate monitor-internal state — no events are scheduled, no
RNG streams are drawn, and windows roll lazily off the sim clock the
caller carries.  An instrumented chaos replay stays byte-identical per
seed; a deployment without a monitor (the default, ``None``) pays the
spine's one flag test per step.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS, Histogram

__all__ = [
    "SLOObjective",
    "SLOMonitor",
    "parse_objective",
]

#: ``<metric> <stat> <op> <threshold>[unit] over <window>[unit] windows``
_OBJECTIVE_RE = re.compile(
    r"^\s*(?P<metric>[A-Za-z0-9_.]+)\s+"
    r"(?P<stat>p50|p90|p99|p999|max|mean|count|availability)\s+"
    r"(?P<op><=|>=|<|>)\s+"
    r"(?P<threshold>[0-9.]+(?:e-?[0-9]+)?)\s*(?P<unit>ns|us|ms|s)?\s+"
    r"over\s+(?P<window>[0-9.]+(?:e-?[0-9]+)?)\s*(?P<wunit>ns|us|ms|s)?\s+"
    r"windows\s*$"
)

_UNIT_SCALE = {None: 1.0, "ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}

_OPS = {
    "<": lambda observed, threshold: observed < threshold,
    "<=": lambda observed, threshold: observed <= threshold,
    ">": lambda observed, threshold: observed > threshold,
    ">=": lambda observed, threshold: observed >= threshold,
}


def parse_objective(spec: str) -> Tuple[str, str, str, float, float]:
    """Parse one declarative objective.

    Returns ``(metric, stat, op, threshold, window_seconds)``; raises
    :class:`ValueError` on anything the grammar does not cover.
    """
    match = _OBJECTIVE_RE.match(spec)
    if match is None:
        raise ValueError(
            f"unparseable SLO objective {spec!r}; expected "
            f"'<metric> <p50|p90|p99|p999|max|mean|count|availability> "
            f"<op> <value>[unit] over <window>[unit] windows'"
        )
    threshold = float(match.group("threshold")) * _UNIT_SCALE[match.group("unit")]
    window = float(match.group("window")) * _UNIT_SCALE[match.group("wunit")]
    if window <= 0:
        raise ValueError(f"SLO window must be positive in {spec!r}")
    return (
        match.group("metric"),
        match.group("stat"),
        match.group("op"),
        threshold,
        window,
    )


class SLOObjective:
    """One parsed objective plus its evaluation state."""

    __slots__ = (
        "spec",
        "metric",
        "stat",
        "op",
        "threshold",
        "window",
        "windows_evaluated",
        "windows_breached",
        "worst_value",
        "worst_window_start",
    )

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.metric, self.stat, self.op, self.threshold, self.window = parse_objective(spec)
        self.windows_evaluated = 0
        self.windows_breached = 0
        self.worst_value: Optional[float] = None
        self.worst_window_start: Optional[float] = None

    @property
    def burn_rate(self) -> float:
        """Breached windows over evaluated windows (error-budget burn)."""
        if not self.windows_evaluated:
            return 0.0
        return self.windows_breached / self.windows_evaluated

    def _is_worse(self, value: float) -> bool:
        if self.worst_value is None:
            return True
        # "Worse" points against the objective's direction.
        if self.op in ("<", "<="):
            return value > self.worst_value
        return value < self.worst_value

    def evaluate(self, value: float, window_start: float) -> Optional[Dict[str, Any]]:
        """Judge one closed window; returns a breach event dict or None."""
        self.windows_evaluated += 1
        if self._is_worse(value):
            self.worst_value = value
            self.worst_window_start = window_start
        if _OPS[self.op](value, self.threshold):
            return None
        self.windows_breached += 1
        return {
            "objective": self.spec,
            "metric": self.metric,
            "stat": self.stat,
            "window_start": window_start,
            "window_end": window_start + self.window,
            "observed": value,
            "threshold": self.threshold,
            "burn_rate": self.burn_rate,
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "objective": self.spec,
            "metric": self.metric,
            "stat": self.stat,
            "op": self.op,
            "threshold": self.threshold,
            "window": self.window,
            "windows_evaluated": self.windows_evaluated,
            "windows_breached": self.windows_breached,
            "burn_rate": self.burn_rate,
            "worst_value": self.worst_value,
            "worst_window_start": self.worst_window_start,
        }


class _MetricWindow:
    """One metric's current-window aggregate (lazy tumbling)."""

    __slots__ = ("window", "index", "histogram", "ok", "failed")

    def __init__(self, window: float) -> None:
        self.window = window
        self.index: Optional[int] = None
        self.histogram = Histogram("slo.window", bounds=DEFAULT_LATENCY_BOUNDS)
        self.ok = 0
        self.failed = 0

    def reset(self, index: int) -> None:
        self.index = index
        self.histogram = Histogram("slo.window", bounds=DEFAULT_LATENCY_BOUNDS)
        self.ok = 0
        self.failed = 0

    def value_for(self, stat: str) -> float:
        if stat == "availability":
            total = self.ok + self.failed
            return self.ok / total if total else 1.0
        if stat == "count":
            return float(self.histogram.count + self.ok + self.failed)
        if stat == "max":
            return self.histogram.max
        if stat == "mean":
            return self.histogram.mean
        return self.histogram.percentile(
            {"p50": 0.50, "p90": 0.90, "p99": 0.99, "p999": 0.999}[stat]
        )

    @property
    def has_samples(self) -> bool:
        return bool(self.histogram.count or self.ok or self.failed)


class SLOMonitor:
    """Deployment-wide, digest-neutral SLO evaluation in sim time.

    Pass one to :class:`~repro.core.manager.SwiShmemDeployment` via the
    ``slo_monitor`` keyword, or attach it to a live deployment with
    ``deployment.rebind_observability(slo_monitor=m)``; assigning to
    ``deployment.slo_monitor`` directly raises, because only the
    observability spine's reference is ever read.
    """

    #: Breach events kept (oldest dropped beyond this, with a counter).
    max_breaches = 1024

    def __init__(self) -> None:
        self.objectives: List[SLOObjective] = []
        #: metric -> per-window-size aggregate state.  Keyed on (metric,
        #: window) so two objectives over the same metric with different
        #: windows evaluate independently.
        self._windows: Dict[Tuple[str, float], _MetricWindow] = {}
        #: (metric, window) -> objectives list, in declaration order.
        self._by_feed: Dict[Tuple[str, float], List[SLOObjective]] = {}
        self.breaches: List[Dict[str, Any]] = []
        self.breaches_dropped = 0
        self.samples = 0

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def add_objective(self, spec: str) -> SLOObjective:
        objective = SLOObjective(spec)
        self.objectives.append(objective)
        feed = (objective.metric, objective.window)
        if feed not in self._windows:
            self._windows[feed] = _MetricWindow(objective.window)
        self._by_feed.setdefault(feed, []).append(objective)
        return objective

    # ------------------------------------------------------------------
    # Hot-path hooks (passive: mutate monitor state only)
    # ------------------------------------------------------------------
    def observe(self, metric: str, value: float, now: float) -> None:
        """Feed one latency/duration sample (seconds) at sim time ``now``."""
        self.samples += 1
        for feed, state in self._windows.items():
            if feed[0] != metric:
                continue
            self._roll(feed, state, now)
            state.histogram.observe(value)

    def observe_event(self, metric: str, ok: bool, now: float) -> None:
        """Feed one success/failure event (availability objectives)."""
        self.samples += 1
        for feed, state in self._windows.items():
            if feed[0] != metric:
                continue
            self._roll(feed, state, now)
            if ok:
                state.ok += 1
            else:
                state.failed += 1

    def _roll(self, feed: Tuple[str, float], state: _MetricWindow, now: float) -> None:
        index = int(now / state.window)
        if state.index is None:
            state.reset(index)
            return
        if index != state.index:
            self._close(feed, state)
            state.reset(index)

    def _close(self, feed: Tuple[str, float], state: _MetricWindow) -> None:
        """Evaluate every objective on a window that just closed.

        Windows with no samples are skipped: an idle metric neither
        burns nor restores error budget.
        """
        if state.index is None or not state.has_samples:
            return
        window_start = state.index * state.window
        for objective in self._by_feed[feed]:
            breach = objective.evaluate(
                state.value_for(objective.stat), window_start
            )
            if breach is not None:
                if len(self.breaches) >= self.max_breaches:
                    self.breaches.pop(0)
                    self.breaches_dropped += 1
                self.breaches.append(breach)

    # ------------------------------------------------------------------
    # Finalization / export
    # ------------------------------------------------------------------
    def finalize(self, now: float) -> None:
        """Close out the in-flight window of every metric (end of run)."""
        for feed in sorted(self._windows):
            state = self._windows[feed]
            self._close(feed, state)
            state.reset(int(now / state.window))

    @property
    def ok(self) -> bool:
        return not self.breaches and not self.breaches_dropped

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready monitor state (bench sidecars embed this)."""
        return {
            "ok": self.ok,
            "samples": self.samples,
            "objectives": [o.as_dict() for o in self.objectives],
            "breaches": list(self.breaches),
            "breaches_dropped": self.breaches_dropped,
        }
