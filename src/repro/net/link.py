"""Nodes and links.

The paper's system model (section 5): switches communicate over a
network where "packets can be dropped, and links and switches may fail".
This module provides exactly that substrate:

* :class:`Node` — anything that can receive packets (switches, end
  hosts, the central controller).
* :class:`Link` — a bidirectional connection made of two independent
  unidirectional :class:`Channel` objects, each with propagation latency,
  finite bandwidth (store-and-forward FIFO serialization), an i.i.d. loss
  probability, and an administrative up/down state for fault injection.

There is deliberately **no reliability**: delivery is at-most-once and
unordered across channels, mirroring the paper's observation that
switches cannot run TCP in the data plane.  Any retransmission logic
lives in the protocols (SRO's control-plane retries) or nowhere at all
(EWO's periodic sync), as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.sim.engine import Simulator
from repro.sim.random import SeededRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet

__all__ = ["Node", "Channel", "Link", "LinkStats"]


class Node:
    """Base class for every packet-handling entity in the network."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: Links attached to this node, keyed by the neighbor's name.
        self.links: Dict[str, "Link"] = {}
        #: Fail-stop flag: a failed node silently drops everything.
        self.failed = False

    def attach_link(self, link: "Link", neighbor: str) -> None:
        self.links[neighbor] = link

    def neighbors(self) -> List[str]:
        return sorted(self.links)

    def handle_packet(self, packet: "Packet", from_node: str) -> None:
        """Process a packet arriving from ``from_node``.  Subclasses override."""
        raise NotImplementedError

    def deliver(self, packet: "Packet", from_node: str) -> None:
        """Entry point used by channels; respects fail-stop semantics."""
        if self.failed:
            return
        self.handle_packet(packet, from_node)

    def send(self, packet: "Packet", to_neighbor: str) -> bool:
        """Transmit ``packet`` to a directly connected neighbor.

        Returns False if this node has failed or has no such link; the
        packet is then dropped, matching fail-stop semantics.  (A missing
        link is a *drop*, not an error: the network layer promises
        at-most-once delivery and nothing else, so callers that need to
        distinguish "no such neighbor" check the return value — see
        ``PisaSwitch.forward_to_node``.)
        """
        if self.failed:
            return False
        link = self.links.get(to_neighbor)
        if link is None:
            return False
        link.transmit(packet, from_node=self.name)
        return True

    def fail(self) -> None:
        """Fail-stop this node (paper section 6.3)."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class LinkStats:
    """Per-channel counters: what the bandwidth-overhead experiments sum
    and what a metrics registry reads as ``link.*`` (the channel counts,
    the registry reads — see :mod:`repro.obs.metrics`)."""

    __slots__ = (
        "packets_sent", "bytes_sent", "packets_dropped", "packets_delivered", "busy_seconds"
    )

    def __init__(self) -> None:
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_dropped = 0
        self.packets_delivered = 0
        #: Transmitter occupancy, so utilization over a window is
        #: ``busy_seconds / window``.  Starts as int 0: an idle channel
        #: exports ``0``, not ``0.0``.
        self.busy_seconds = 0


class Channel:
    """One direction of a link: src -> dst."""

    def __init__(
        self,
        sim: Simulator,
        src: Node,
        dst: Node,
        latency: float,
        bandwidth_bps: float,
        loss_rate: float,
        rng: SeededRng,
    ) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency = latency
        self.bandwidth_bps = bandwidth_bps
        self.loss_rate = loss_rate
        self.up = True
        self.stats = LinkStats()
        self._loss_stream = rng.stream(f"loss:{src.name}->{dst.name}")
        # Hot-path precomputation: transmit() runs once per packet per
        # hop, so the event labels are resolved here instead of
        # rebuilding f-strings every call.
        self._deliver_label = f"link:{src.name}->{dst.name}"
        self._dup_label = f"nemesis-dup:{src.name}->{dst.name}"
        #: Time the transmitter is busy until (FIFO serialization).
        self._busy_until = 0.0
        #: Optional adversarial wrapper (``repro.chaos.nemesis``): consulted
        #: after the loss decision to delay and/or duplicate the packet.
        self.nemesis = None

    def transmit(self, packet: "Packet") -> None:
        """Queue ``packet`` for delivery to ``dst``.

        Serialization delay is ``wire_size * 8 / bandwidth`` and packets
        share the transmitter FIFO; propagation adds ``latency``.  Loss is
        decided at transmit time (the packet occupies the wire either way,
        as a corrupted frame would).
        """
        stats = self.stats
        # wire_size is a computed property walking the header stack;
        # resolve it once per transmit instead of three times.
        wire_size = packet.wire_size
        stats.packets_sent += 1
        stats.bytes_sent += wire_size
        if not self.up:
            stats.packets_dropped += 1
            return
        sim = self.sim
        now = sim.now
        busy_until = self._busy_until
        start = now if now > busy_until else busy_until
        serialization = wire_size * 8 / self.bandwidth_bps
        self._busy_until = start + serialization
        arrival = start + serialization + self.latency
        stats.busy_seconds += serialization
        if self.loss_rate > 0.0 and self._loss_stream.random() < self.loss_rate:
            stats.packets_dropped += 1
            return
        if self.nemesis is not None:
            extra, duplicate_offsets = self.nemesis.plan(packet, self)
            for offset in duplicate_offsets:
                sim.schedule(
                    arrival + offset - now,
                    self._deliver,
                    packet.clone(),
                    label=self._dup_label,
                )
            arrival += extra
        sim.schedule(arrival - now, self._deliver, packet, label=self._deliver_label)

    def _deliver(self, packet: "Packet") -> None:
        if not self.up:
            self.stats.packets_dropped += 1
            return
        self.stats.packets_delivered += 1
        self.dst.deliver(packet, from_node=self.src.name)


class Link:
    """A bidirectional link: two channels with shared parameters."""

    def __init__(
        self,
        sim: Simulator,
        a: Node,
        b: Node,
        latency: float = 5e-6,
        bandwidth_bps: float = 100e9,
        loss_rate: float = 0.0,
        rng: Optional[SeededRng] = None,
    ) -> None:
        rng = rng if rng is not None else SeededRng(0)
        self.a = a
        self.b = b
        self.ab = Channel(sim, a, b, latency, bandwidth_bps, loss_rate, rng)
        self.ba = Channel(sim, b, a, latency, bandwidth_bps, loss_rate, rng)
        a.attach_link(self, b.name)
        b.attach_link(self, a.name)

    @property
    def up(self) -> bool:
        return self.ab.up and self.ba.up

    def set_up(self, up: bool) -> None:
        """Administratively raise/lower both directions (fault injection)."""
        self.ab.up = up
        self.ba.up = up

    def transmit(self, packet: "Packet", from_node: str) -> None:
        if from_node == self.a.name:
            self.ab.transmit(packet)
        elif from_node == self.b.name:
            self.ba.transmit(packet)
        else:
            raise ValueError(f"{from_node} is not an endpoint of link {self.a.name}<->{self.b.name}")
