"""Low-overhead metrics: counters, gauges, and fixed-bucket histograms.

The registry is the live-telemetry backbone of the reproduction, and it
is filled two ways:

* **Pushed** — protocol steps.  The observability spine
  (:mod:`repro.obs.spine`) resolves an instrument once per
  ``(name, node)`` and calls ``inc`` / ``set`` / ``observe`` on it as
  each step happens.
* **Pulled** — the dataplane.  *Devices count, the registry reads*: a
  switch or channel keeps its own counters (``PisaSwitch.stats``,
  ``Channel.stats``) whether or not anyone is watching, and a *source*
  registered with :meth:`MetricsRegistry.add_source` copies them into
  instruments each time the registry is read — the way a collector
  scrapes a PISA switch's counters.  A pulled value is therefore the
  device's **lifetime total**, whenever the registry was attached, and
  a device added after the source was registered is listed at the next
  read.  To add a pulled instrument, count on the device and report the
  field from the source (``SwiShmemDeployment._read_dataplane``).

There is no "off" registry: a component without one holds ``None`` and
the spine's ``on`` flag is the only guard on the protocol path.

Metric naming scheme (see docs/OBSERVABILITY.md):

* dotted lowercase names, ``<subsystem>.<quantity>[_<unit>]`` —
  e.g. ``sro.write_commit_latency_seconds``, ``link.bytes_sent``;
* the emitting entity (switch name, channel ``a->b``, ``controller``)
  goes in the separate ``node`` label, never in the metric name;
* durations are in **seconds** (the simulator's clock unit), sizes in
  bytes.

Histograms use fixed upper-bound buckets (log-spaced over the
simulation's latency range by default) so that p50/p99 are computable
in O(buckets) with zero per-sample allocation, exactly like a hardware
telemetry collector or a Prometheus client would.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
]

#: Default histogram bucket upper bounds, in seconds: 200 ns .. 200 ms,
#: roughly 1-2-5 log-spaced.  Spans everything the simulator measures,
#: from one pipeline pass (400 ns) to a failover window (tens of ms).
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    200e-9, 500e-9,
    1e-6, 2e-6, 5e-6,
    10e-6, 20e-6, 50e-6,
    100e-6, 200e-6, 500e-6,
    1e-3, 2e-3, 5e-3,
    10e-3, 20e-3, 50e-3,
    100e-3, 200e-3,
)


class Counter:
    """A monotonically increasing count (packets, bytes, events)."""

    __slots__ = ("name", "node", "value")

    kind = "counter"

    def __init__(self, name: str, node: str = "") -> None:
        self.name = name
        self.node = node
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": "counter", "name": self.name, "node": self.node, "value": self.value}


class Gauge:
    """A point-in-time level (queue depth, outstanding writes).

    Tracks the current value plus the maximum ever set, since for
    occupancy-style quantities the high-water mark is usually the
    interesting number at snapshot time.
    """

    __slots__ = ("name", "node", "value", "max_value")

    kind = "gauge"

    def __init__(self, name: str, node: str = "") -> None:
        self.name = name
        self.node = node
        self.value = 0
        self.max_value = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "gauge",
            "name": self.name,
            "node": self.node,
            "value": self.value,
            "max": self.max_value,
        }


class Histogram:
    """A fixed-bucket distribution with cheap percentile estimates.

    ``bounds`` are inclusive upper bucket edges; samples above the last
    bound land in an overflow bucket.  Percentiles interpolate linearly
    within the bucket containing the quantile (the standard
    fixed-bucket estimate, as a Prometheus ``histogram_quantile``
    would), clamped to the exactly tracked ``min``/``max``, so a tail
    readout never overstates by a full bucket width; the overflow
    bucket interpolates toward the observed maximum.
    """

    __slots__ = ("name", "node", "bounds", "buckets", "overflow", "count", "sum", "min", "max")

    kind = "histogram"

    def __init__(
        self, name: str, node: str = "", bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a non-empty ascending sequence")
        self.name = name
        self.node = node
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.buckets: List[int] = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bisect_left(self.bounds, value)
        if index < len(self.buckets):
            self.buckets[index] += 1
        else:
            self.overflow += 1

    def add(self, other: "Histogram") -> None:
        """Fold ``other``'s samples in bucket-wise; bounds must match."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"histogram {self.name!r}/{self.node!r}: "
                "cannot merge differing bucket bounds"
            )
        self.count += other.count
        self.sum += other.sum
        # An empty histogram's extremes are the identities (inf, 0.0).
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.overflow += other.overflow
        for i, bucket in enumerate(other.buckets):
            self.buckets[i] += bucket

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated value at quantile ``p`` in [0, 1].

        Linear interpolation within the matched bucket: the quantile's
        fractional position among the bucket's samples picks a point
        between the bucket's lower and upper edges.  The first bucket's
        lower edge is the tracked minimum, and the overflow bucket
        interpolates between the last bound and the tracked maximum;
        the result is clamped to [min, max] so estimates stay inside
        the observed range.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile must be in [0, 1], got {p}")
        if self.count == 0:
            return 0.0
        rank = p * self.count
        cumulative = 0
        lower = self.min
        for bound, bucket in zip(self.bounds, self.buckets):
            if bucket:
                cumulative += bucket
                if cumulative >= rank:
                    fraction = (rank - (cumulative - bucket)) / bucket
                    value = lower + fraction * (bound - lower)
                    return min(max(value, self.min), self.max)
            lower = bound
        # Quantile lands in the overflow bucket: interpolate toward the
        # exact observed maximum.
        if self.overflow:
            fraction = (rank - cumulative) / self.overflow
            lower = max(self.bounds[-1], self.min)
            value = lower + fraction * (self.max - lower)
            return min(max(value, self.min), self.max)
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def p999(self) -> float:
        return self.percentile(0.999)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": "histogram",
            "name": self.name,
            "node": self.node,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "overflow": self.overflow,
        }


class MetricsRegistry:
    """Creates, deduplicates, and exports instruments.

    Instruments are keyed by ``(kind, name, node)``: asking twice for
    the same key returns the same object, so independently constructed
    components share counters safely.  A name is either pushed through
    these factories or pulled from a source, never both.
    """

    def __init__(self) -> None:
        self._instruments: "Dict[Tuple[str, str, str], Any]" = {}
        self._sources: "List[Callable[[MetricsRegistry], None]]" = []

    def add_source(self, source: "Callable[[MetricsRegistry], None]") -> None:
        """Read ``source`` at every read of this registry.

        ``source(into)`` reports what its devices count *now* through
        ``into``'s ordinary factories (``into.counter(name, node).inc(
        stats.field)``).  ``into`` starts empty at each read, so
        readings never accumulate across reads, while sources that
        report the same ``(name, node)`` — successive worlds sharing
        one registry — add into one instrument.  Registering a source
        twice is a no-op.
        """
        if source not in self._sources:
            self._sources.append(source)

    def _pull(self) -> None:
        """Replace every pulled instrument with the sources' readings."""
        if self._sources:
            pulled = MetricsRegistry()
            for source in self._sources:
                source(pulled)
            self._instruments.update(pulled._instruments)

    # -- factories ------------------------------------------------------
    def counter(self, name: str, node: str = "") -> Counter:
        key = ("counter", name, node)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = Counter(name, node)
        return instrument

    def gauge(self, name: str, node: str = "") -> Gauge:
        key = ("gauge", name, node)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = Gauge(name, node)
        return instrument

    def histogram(
        self, name: str, node: str = "", bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS
    ) -> Histogram:
        key = ("histogram", name, node)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = Histogram(name, node, bounds=bounds)
        return instrument

    # -- introspection --------------------------------------------------
    def instruments(self) -> List[Any]:
        """All instruments, sorted by (kind, name, node) for stable output."""
        self._pull()
        return [self._instruments[key] for key in sorted(self._instruments)]

    def get(self, kind: str, name: str, node: str = "") -> Optional[Any]:
        self._pull()
        return self._instruments.get((kind, name, node))

    def value(self, kind: str, name: str, node: str = "", default: float = 0) -> float:
        """Convenience: current value of a counter/gauge (``default`` if absent)."""
        instrument = self.get(kind, name, node)
        return instrument.value if instrument is not None else default

    def __len__(self) -> int:
        self._pull()
        return len(self._instruments)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        """A JSON-ready snapshot grouped by instrument kind."""
        grouped: Dict[str, List[Dict[str, Any]]] = {
            "counters": [], "gauges": [], "histograms": []
        }
        for instrument in self.instruments():
            grouped[instrument.kind + "s"].append(instrument.as_dict())
        return grouped

    def write_jsonl(self, path: str) -> int:
        """Write one JSON record per instrument; returns the record count."""
        instruments = self.instruments()
        with open(path, "w", encoding="utf-8") as handle:
            for instrument in instruments:
                handle.write(json.dumps(instrument.as_dict(), sort_keys=True))
                handle.write("\n")
        return len(instruments)
