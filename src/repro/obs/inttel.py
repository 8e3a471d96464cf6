"""INT-style per-packet telemetry.

In-band Network Telemetry is the P4 data plane's native observability
mechanism: each INT-capable switch on a packet's path pushes a small
metadata record onto the packet itself, and the sink at the end of the
path pops the whole stack to reconstruct where the packet spent its
time.  This module models the hop-by-hop variant (INT-MD):

* :class:`IntHopRecord` — one hop's metadata: switch name, ingress and
  egress simulation time, queue depth on arrival, and how many SwiShmem
  register operations the pipeline executed on the packet at that hop.
* :class:`IntTelemetry` — the per-packet stack, carried in
  ``Packet.int_data`` (a real header field, *not* ``Packet.meta``,
  because PISA metadata is discarded at every switch).  Its wire size
  (shim + per-hop records) is counted in ``Packet.wire_size``, so INT
  overhead shows up in serialization delay exactly as it would on the
  wire.  A ``max_hops`` budget mirrors the hop-count limit of the INT
  spec: past it, hops increment ``truncated`` instead of appending.
* :func:`decode_path` — turns a stack into per-hop latency breakdowns
  (queue wait vs. pipeline vs. inter-hop link time).
* :class:`IntSink` — collects completed stacks at the receiving end and
  feeds path latency histograms in a :class:`MetricsRegistry`.

Switches stamp hops only when ``int_enabled`` is set on the switch, so
the default data path carries no INT state at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "INT_SHIM_BYTES",
    "INT_HOP_BYTES",
    "IntHopRecord",
    "IntTelemetry",
    "HopBreakdown",
    "decode_path",
    "IntSink",
]

#: Fixed INT shim header (instruction bitmap + hop count + flags).
INT_SHIM_BYTES = 8

#: Bytes one hop record adds to the wire: node id (4) + two 4-byte
#: timestamps + queue depth (2) + state-op count (2).
INT_HOP_BYTES = 16


@dataclass(frozen=True)
class IntHopRecord:
    """Metadata pushed by one switch.

    Immutable: fan-out copies of a packet share the records pushed
    before the split and append their own after it.
    """

    node: str
    ingress_time: float
    egress_time: float
    queue_depth: int = 0
    state_ops: int = 0

    @property
    def hop_latency(self) -> float:
        """Total time spent at this switch (queue wait + pipeline)."""
        return self.egress_time - self.ingress_time


@dataclass
class IntTelemetry:
    """The per-packet INT stack: shim + accumulated hop records."""

    hops: List[IntHopRecord] = field(default_factory=list)
    max_hops: int = 16
    truncated: int = 0

    @property
    def wire_size(self) -> int:
        return INT_SHIM_BYTES + INT_HOP_BYTES * len(self.hops)

    def push(self, record: IntHopRecord) -> bool:
        """Append a hop record; False (and a truncation count) past budget."""
        if len(self.hops) >= self.max_hops:
            self.truncated += 1
            return False
        self.hops.append(record)
        return True

    def copy(self) -> "IntTelemetry":
        """The stack for a fan-out copy of the packet: its own hop list
        (each copy grows independently) over the shared records."""
        return IntTelemetry(list(self.hops), self.max_hops, self.truncated)

    @property
    def path(self) -> List[str]:
        return [hop.node for hop in self.hops]


@dataclass
class HopBreakdown:
    """Decoded timing for one hop, including the link leading into it."""

    node: str
    link_latency: float  # previous hop's egress -> this hop's ingress
    hop_latency: float  # time spent at the switch
    queue_depth: int
    state_ops: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "link_latency": self.link_latency,
            "hop_latency": self.hop_latency,
            "queue_depth": self.queue_depth,
            "state_ops": self.state_ops,
        }


def decode_path(
    telemetry: IntTelemetry, delivered_at: Optional[float] = None
) -> Dict[str, Any]:
    """Decode an INT stack into an end-to-end latency breakdown.

    ``delivered_at`` is the sink's receive time; when given, the wire
    time from the last switch to the sink is included and
    ``total_latency`` covers first ingress to delivery.
    """
    breakdowns: List[HopBreakdown] = []
    previous_egress: Optional[float] = None
    for hop in telemetry.hops:
        link_latency = (
            hop.ingress_time - previous_egress if previous_egress is not None else 0.0
        )
        breakdowns.append(
            HopBreakdown(
                node=hop.node,
                link_latency=link_latency,
                hop_latency=hop.hop_latency,
                queue_depth=hop.queue_depth,
                state_ops=hop.state_ops,
            )
        )
        previous_egress = hop.egress_time
    switch_time = sum(b.hop_latency for b in breakdowns)
    link_time = sum(b.link_latency for b in breakdowns)
    last_mile = 0.0
    if delivered_at is not None and previous_egress is not None:
        last_mile = delivered_at - previous_egress
    total = switch_time + link_time + last_mile
    return {
        "path": telemetry.path,
        "hops": [b.as_dict() for b in breakdowns],
        "switch_time": switch_time,
        "link_time": link_time + last_mile,
        "total_latency": total,
        "state_ops": sum(b.state_ops for b in breakdowns),
        "truncated": telemetry.truncated,
    }


class IntSink:
    """Terminates INT paths: strips stacks, decodes them, feeds metrics.

    Attach to an :class:`~repro.net.endhost.EndHost` via ``on_receive``,
    or call :meth:`absorb` directly from test/benchmark code.
    """

    def __init__(
        self, sim: Any, registry: Optional[MetricsRegistry] = None, node: str = "int-sink"
    ) -> None:
        if registry is None:
            registry = MetricsRegistry()  # private: nobody else reads it
        self.sim = sim
        self.node = node
        self.decoded: List[Dict[str, Any]] = []
        self._paths = registry.counter("int.paths_decoded", node)
        self._truncated = registry.counter("int.hops_truncated", node)
        self._total = registry.histogram("int.path_latency_seconds", node)
        self._switch = registry.histogram("int.switch_time_seconds", node)
        self._link = registry.histogram("int.link_time_seconds", node)

    def absorb(self, packet: Any) -> Optional[Dict[str, Any]]:
        """Decode and strip a packet's INT stack; None if it carries none."""
        telemetry = getattr(packet, "int_data", None)
        if telemetry is None or not telemetry.hops:
            return None
        decoded = decode_path(telemetry, delivered_at=self.sim.now)
        packet.int_data = None  # the sink strips telemetry before the app
        self.decoded.append(decoded)
        self._paths.inc()
        if decoded["truncated"]:
            self._truncated.inc(decoded["truncated"])
        self._total.observe(decoded["total_latency"])
        self._switch.observe(decoded["switch_time"])
        self._link.observe(decoded["link_time"])
        return decoded

    def __call__(self, packet: Any, from_node: str) -> None:
        """Matches ``EndHost.on_receive``: ``host.on_receive = sink``."""
        self.absorb(packet)
