"""Live observability: the spine and its sinks.

See docs/OBSERVABILITY.md for the full guide.  Quick start::

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    deployment = SwiShmemDeployment(sim, topo, nodes, metrics=registry)
    sim.run(until=0.1)
    print(registry.snapshot()["counters"])
    registry.write_jsonl("metrics.jsonl")
"""

from repro.obs.accessprof import (
    AccessProfiler,
    GroupProfile,
    KeyProfile,
    WindowedCount,
)
from repro.obs.advisor import ConsistencyAdvisor, GroupAdvice
from repro.obs.causal import CausalClock, TraceContext
from repro.obs.critpath import (
    CAUSES,
    CriticalPathAnalyzer,
    CritPathReport,
    DEFAULT_PIPELINE_LATENCY,
    HopAttribution,
    Segment,
    WriteAttribution,
)
from repro.obs.dashboard import render_access_profile, render_critpath, render_slo
from repro.obs.events import EVENTS
from repro.obs.flightrec import DEFAULT_MAX_SPANS, FlightRecorder, Span, TraceQuery
from repro.obs.metrics import (
    Counter,
    DEFAULT_LATENCY_BOUNDS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slo import SLOMonitor, SLOObjective, parse_objective
from repro.obs.spine import ObsSpine

__all__ = [
    "AccessProfiler",
    "GroupProfile",
    "KeyProfile",
    "WindowedCount",
    "ConsistencyAdvisor",
    "GroupAdvice",
    "CAUSES",
    "CriticalPathAnalyzer",
    "CritPathReport",
    "DEFAULT_PIPELINE_LATENCY",
    "HopAttribution",
    "Segment",
    "WriteAttribution",
    "SLOMonitor",
    "SLOObjective",
    "parse_objective",
    "render_access_profile",
    "render_critpath",
    "render_slo",
    "CausalClock",
    "TraceContext",
    "Span",
    "FlightRecorder",
    "TraceQuery",
    "EVENTS",
    "ObsSpine",
    "DEFAULT_MAX_SPANS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
]
