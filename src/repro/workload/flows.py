"""TCP flow-level traffic generation.

Experiments drive the NFs with *flows*, not isolated packets: a flow is
a SYN, a number of data packets, and a FIN, all sharing one five-tuple.
:class:`FlowGenerator` schedules whole flows onto end hosts with Poisson
arrivals; flow sizes, destinations, inter-packet gaps, and payload
digests are drawn from seeded streams, so a given seed always produces
byte-identical traffic.

The generator emits through :class:`~repro.net.endhost.EndHost.inject`,
so traffic traverses the real links and switches — NFs see exactly what
a packet capture at their ingress would see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.net.endhost import EndHost
from repro.net.headers import TcpFlags
from repro.net.packet import make_tcp_packet
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng

__all__ = ["FlowSpec", "FlowGenerator", "inject_flow"]

#: Flags of a flow's opening, data and closing segments, combined once
#: here rather than per packet.
_SYN_FLAGS = TcpFlags.SYN
_DATA_FLAGS = TcpFlags.ACK | TcpFlags.PSH
_FIN_FLAGS = TcpFlags.FIN | TcpFlags.ACK


@dataclass
class FlowSpec:
    """One TCP flow to be injected."""

    client: EndHost
    dst_ip: str
    dst_port: int = 80
    #: ``None``: the client's next ephemeral port (see :func:`inject_flow`).
    src_port: Optional[int] = None
    data_packets: int = 8
    payload_size: int = 512
    inter_packet_gap: float = 20e-6
    payload_digest: Optional[int] = None
    start_at: float = 0.0

    @property
    def total_packets(self) -> int:
        """SYN + data + FIN."""
        return self.data_packets + 2


def inject_flow(sim: Simulator, flow: FlowSpec, on_done: Callable[[FlowSpec], None] = None) -> None:
    """Schedule every packet of one flow onto its client host; each next
    packet is posted by the one before (``Simulator.post``).  A flow
    without a source port takes its client's next ephemeral port now."""
    if flow.src_port is None:
        flow.src_port = next(flow.client.ephemeral_ports)
    total = flow.total_packets

    def send(index: int) -> None:
        if index == 0:
            flags = _SYN_FLAGS
            size = 0
        elif index == total - 1:
            flags = _FIN_FLAGS
            size = 0
        else:
            flags = _DATA_FLAGS
            size = flow.payload_size
        packet = make_tcp_packet(
            src_ip=flow.client.ip,
            dst_ip=flow.dst_ip,
            src_port=flow.src_port,
            dst_port=flow.dst_port,
            flags=flags,
            payload_size=size,
            seq=index,
        )
        packet.payload_digest = flow.payload_digest
        flow.client.inject(packet)
        if index + 1 < total:
            sim.post(flow.inter_packet_gap, send, index + 1)
        elif on_done is not None:
            on_done(flow)

    sim.schedule_at(max(flow.start_at, sim.now), send, 0, label="flow-start")


class FlowGenerator:
    """Poisson flow arrivals over a set of clients and destinations."""

    def __init__(
        self,
        sim: Simulator,
        clients: Sequence[EndHost],
        dst_ips: Sequence[str],
        rng: SeededRng,
        flow_rate: float = 1000.0,
        data_packets: int = 8,
        payload_size: int = 512,
        inter_packet_gap: float = 20e-6,
        dst_port: int = 80,
        stream: str = "flows",
        port_base: int = 30000,
    ) -> None:
        if not clients or not dst_ips:
            raise ValueError("need at least one client and one destination")
        if flow_rate <= 0:
            raise ValueError("flow rate must be positive")
        self.sim = sim
        self.clients = list(clients)
        self.dst_ips = list(dst_ips)
        self.flow_rate = flow_rate
        self.data_packets = data_packets
        self.payload_size = payload_size
        self.inter_packet_gap = inter_packet_gap
        self.dst_port = dst_port
        self._rng = rng.stream(stream)
        #: Generator-local port counter, one sequence over all clients.
        self._next_port = port_base
        self.flows_started: List[FlowSpec] = []
        self.flows_completed = 0
        self._running = False

    def start(self, duration: float) -> "FlowGenerator":
        """Generate flows for ``duration`` simulated seconds from now."""
        self._running = True
        self._deadline = self.sim.now + duration
        self._schedule_next()
        return self

    def _schedule_next(self) -> None:
        gap = self._rng.expovariate(self.flow_rate)
        self.sim.schedule(gap, self._launch, label="flowgen")

    def _launch(self) -> None:
        if not self._running or self.sim.now > self._deadline:
            self._running = False
            return
        self._next_port += 1
        flow = FlowSpec(
            client=self._rng.choice(self.clients),
            dst_ip=self._rng.choice(self.dst_ips),
            dst_port=self.dst_port,
            src_port=self._next_port,
            data_packets=self.data_packets,
            payload_size=self.payload_size,
            inter_packet_gap=self.inter_packet_gap,
            start_at=self.sim.now,
        )
        self.flows_started.append(flow)
        inject_flow(self.sim, flow, on_done=self._done)
        self._schedule_next()

    def _done(self, flow: FlowSpec) -> None:
        self.flows_completed += 1
