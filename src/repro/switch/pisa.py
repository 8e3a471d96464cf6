"""The PISA switch model.

A :class:`PisaSwitch` is a :class:`~repro.net.link.Node` that processes
packets through a parser -> match-action pipeline -> deparser flow
(paper section 2), with these modeled hardware features:

* **Atomic per-packet processing** — one packet's pipeline pass runs as
  a single simulator event; no other packet observes intermediate state
  on the same switch.  A re-entrancy guard enforces this.
* **Handlers** — programs (SwiShmem protocol engines, NFs) install
  packet handlers consulted in order; the first handler that consumes a
  packet terminates processing.  Unconsumed packets fall through to
  plain L3 forwarding.
* **Pipeline service rate** — an optional packets-per-second capacity;
  when set, arrivals queue FIFO and the capacity benchmark (experiment
  C1) can compare switch and server service rates.
* **Multicast, recirculation, packet generator** — the features paper
  section 7 uses to implement EWO (its egress mirror of a write is the
  multicast copy here).
* **A control plane** (:class:`~repro.switch.control.ControlPlaneAgent`)
  with DRAM buffering and timers, used by SRO.

Handlers receive ``(packet, from_node)`` and return True when they
consumed the packet.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.net.endhost import AddressBook
from repro.net.link import Node
from repro.net.multicast import MulticastRegistry
from repro.net.packet import Packet
from repro.net.routing import RoutingTable
from repro.obs.inttel import IntHopRecord, IntTelemetry
from repro.obs.metrics import Histogram
from repro.sim.engine import Simulator
from repro.switch.control import ControlPlaneAgent, DEFAULT_OP_LATENCY
from repro.switch.memory import DEFAULT_SWITCH_MEMORY_BYTES, MemoryBudget

__all__ = ["PisaSwitch", "SwitchStats", "PacketHandler"]

PacketHandler = Callable[[Packet, str], bool]

#: Per-packet pipeline latency: parser + stages + deparser.  Constant and
#: tiny, as in hardware (the pipeline is a fixed-depth conveyor belt).
PIPELINE_LATENCY = 400e-9

#: Delay for a recirculated packet to re-enter the parser.
RECIRCULATION_LATENCY = 800e-9

#: Latency for the control plane to inject a packet into the data plane.
CPU_INJECT_LATENCY = 5e-6


class SwitchStats:
    """Forwarding-plane counters."""

    __slots__ = (
        "rx_packets",
        "tx_packets",
        "dropped_packets",
        "punted_packets",
        "recirculated_packets",
        "mirrored_packets",
        "multicast_copies",
        "generated_packets",
        "queue_drops",
    )

    def __init__(self) -> None:
        self.rx_packets = 0
        self.tx_packets = 0
        self.dropped_packets = 0
        self.punted_packets = 0
        self.recirculated_packets = 0
        self.mirrored_packets = 0
        self.multicast_copies = 0
        self.generated_packets = 0
        self.queue_drops = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class PisaSwitch(Node):
    """A programmable data-plane switch."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        routing: Optional[RoutingTable] = None,
        address_book: Optional[AddressBook] = None,
        multicast: Optional[MulticastRegistry] = None,
        memory_bytes: int = DEFAULT_SWITCH_MEMORY_BYTES,
        control_op_latency: float = DEFAULT_OP_LATENCY,
        pipeline_rate_pps: Optional[float] = None,
        queue_capacity: int = 1024,
    ) -> None:
        super().__init__(name)
        self.sim = sim
        self.routing = routing
        self.address_book = address_book
        self.multicast = multicast
        self.memory = MemoryBudget(memory_bytes)
        self.control = ControlPlaneAgent(self, op_latency=control_op_latency)
        # Event labels are fixed per switch; resolve them once instead
        # of on every packet.
        self._serve_label = f"{name}:serve"
        self._recirc_label = f"{name}:recirc"
        self._cpu_inject_label = f"{name}:cpu-inject"
        self.stats = SwitchStats()
        self._handlers: List[PacketHandler] = []
        #: Immutable snapshot iterated by the pipeline, refreshed on
        #: install/remove so the per-packet pass never copies the list.
        self._handlers_snapshot: Tuple[PacketHandler, ...] = ()
        #: Mirror sessions: session id -> destination node name.
        # Optional finite-capacity service model (experiment C1).
        self.pipeline_rate_pps = pipeline_rate_pps
        self.queue_capacity = queue_capacity
        self._queue: Deque[Tuple[Packet, str, float, int]] = deque()
        self._serving = False
        #: Deepest the service queue has been, and how long packets
        #: waited in it.  Kept here, not in ``stats``, whose fields are
        #: all plain packet counts; a metrics registry reads both
        #: (``switch.queue_depth`` max, ``switch.queue_wait_seconds``).
        self.queue_high_water = 0
        self.queue_wait = Histogram("switch.queue_wait_seconds", name)
        # Atomicity guard (paper section 2).
        self._in_pipeline = False
        #: What installed programs do when a crash empties the pipeline
        #: (see :meth:`on_crash`).
        self._crash_hooks: List[Callable[[], None]] = []
        # INT mode: stamp a per-hop telemetry record onto each packet.
        self.int_enabled = False
        self.int_max_hops = 16

    # ------------------------------------------------------------------
    # Program installation
    # ------------------------------------------------------------------
    def install_handler(self, handler: PacketHandler, front: bool = False) -> None:
        """Install a packet handler; ``front=True`` gives it priority.

        Protocol engines (SwiShmem) install at the front so replication
        traffic never reaches NF code; NFs install at the back.
        """
        if front:
            self._handlers.insert(0, handler)
        else:
            self._handlers.append(handler)
        self._handlers_snapshot = tuple(self._handlers)

    def on_crash(self, hook: Callable[[], None]) -> None:
        """Have ``hook()`` run when the switch fails.

        A program that keeps packets *inside* the pipeline — SRO's
        recirculating write holds — loses them with it, at the crash
        instant; nothing on a dead switch runs afterwards to notice.
        """
        self._crash_hooks.append(hook)

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Packets waiting for a service slot right now."""
        return len(self._queue)

    def handle_packet(self, packet: Packet, from_node: str) -> None:
        self.stats.rx_packets += 1
        if self.pipeline_rate_pps is None:
            self._pipeline_pass(packet, from_node)
            return
        # Finite service rate: FIFO queue + serialized service events.
        depth = len(self._queue)
        if depth >= self.queue_capacity:
            self.stats.queue_drops += 1
            self.stats.dropped_packets += 1
            return
        self._queue.append((packet, from_node, self.sim.now, depth))
        if depth >= self.queue_high_water:
            self.queue_high_water = depth + 1
        if not self._serving:
            self._serving = True
            self.sim.schedule(
                1.0 / self.pipeline_rate_pps, self._serve_next, label=self._serve_label
            )

    def _serve_next(self) -> None:
        if self.failed:
            self._queue.clear()
            self._serving = False
            return
        if not self._queue:
            self._serving = False
            return
        packet, from_node, enqueued_at, depth = self._queue.popleft()
        self.queue_wait.observe(self.sim.now - enqueued_at)
        self._pipeline_pass(packet, from_node, arrived_at=enqueued_at, queue_depth=depth)
        if self._queue:
            self.sim.schedule(
                1.0 / self.pipeline_rate_pps, self._serve_next, label=self._serve_label
            )
        else:
            self._serving = False

    def _pipeline_pass(
        self,
        packet: Packet,
        from_node: str,
        arrived_at: Optional[float] = None,
        queue_depth: int = 0,
    ) -> None:
        """One atomic parser -> pipeline -> deparser pass."""
        if self._in_pipeline:
            raise RuntimeError(
                f"{self.name}: re-entrant pipeline pass — a handler synchronously "
                "re-delivered a packet; use recirculate() or the simulator instead"
            )
        self._in_pipeline = True
        ingress = arrived_at if arrived_at is not None else self.sim.now
        try:
            packet.meta.clear()  # fresh PISA metadata at each switch
            packet.meta["ingress_node"] = from_node
            # The snapshot tuple makes handler add/remove during a pass
            # safe without copying the list for every packet.
            for handler in self._handlers_snapshot:
                if handler(packet, from_node):
                    return
            # Replication packets addressed to another switch are, on the
            # wire, ordinary IP packets to that switch's loopback: any
            # switch — including one running no SwiShmem program at all —
            # forwards them toward their destination.
            if (
                packet.swishmem is not None
                and packet.swishmem.dst_node is not None
                and packet.swishmem.dst_node != self.name
            ):
                self.forward_to_node(packet, packet.swishmem.dst_node)
                return
            self.forward_by_ip(packet)
        finally:
            self._in_pipeline = False
            if self.int_enabled:
                self._stamp_int_hop(packet, ingress, queue_depth)

    def _stamp_int_hop(self, packet: Packet, ingress: float, queue_depth: int) -> None:
        """Push this hop's INT record (INT-MD: metadata rides the packet).

        Hop latency covers queue wait plus the service slot; the
        ``int_state_ops`` metadata key is incremented by the SwiShmem
        manager for every register operation the pass executed.
        """
        telemetry = packet.int_data
        if telemetry is None:
            telemetry = packet.int_data = IntTelemetry(max_hops=self.int_max_hops)
        telemetry.push(
            IntHopRecord(
                node=self.name,
                ingress_time=ingress,
                egress_time=self.sim.now,
                queue_depth=queue_depth,
                state_ops=packet.meta.get("int_state_ops", 0),
            )
        )

    # ------------------------------------------------------------------
    # Egress actions (the API programs use)
    # ------------------------------------------------------------------
    def forward_to_node(self, packet: Packet, dst_node: str) -> bool:
        """Forward toward a node by name (switch-to-switch traffic)."""
        if dst_node == self.name:
            # Delivered to ourselves: re-enter the pipeline via recirculation.
            self.recirculate(packet)
            return True
        if self.routing is None:
            raise RuntimeError(f"{self.name} has no routing table")
        hop = self.routing.next_hop(self.name, dst_node, packet)
        if hop is None:
            self.drop(packet, reason="unreachable")
            return False
        if hop not in self.links:
            # next_hop always returns a direct neighbor; anything else is a bug.
            raise RuntimeError(f"{self.name}: next hop {hop} is not a neighbor")
        sent = self.send(packet, hop)
        if sent:
            self.stats.tx_packets += 1
        return sent

    def forward_by_ip(self, packet: Packet) -> bool:
        """Default L3 forwarding using the address book + routing."""
        if packet.ipv4 is None or self.address_book is None:
            self.drop(packet, reason="no-route")
            return False
        dst_node = self.address_book.lookup(packet.ipv4.dst)
        if dst_node is None:
            self.drop(packet, reason="unknown-ip")
            return False
        packet.ipv4.ttl -= 1
        if packet.ipv4.ttl <= 0:
            self.drop(packet, reason="ttl-expired")
            return False
        return self.forward_to_node(packet, dst_node)

    def drop(self, packet: Packet, reason: str = "") -> None:
        """Count one dropped packet; ``reason`` names the cause at the
        call site."""
        self.stats.dropped_packets += 1

    def recirculate(self, packet: Packet) -> None:
        """Send a packet back through the pipeline (paper section 2)."""
        self.stats.recirculated_packets += 1
        ingress = packet.meta.get("ingress_node", self.name)
        self.sim.schedule(
            RECIRCULATION_LATENCY,
            self._pipeline_pass,
            packet,
            ingress,
            label=self._recirc_label,
        )

    def inject_from_cpu(self, packet: Packet, dst_node: str) -> None:
        """Control plane injects a packet into the data plane for egress."""
        self.sim.schedule(
            CPU_INJECT_LATENCY,
            self._inject,
            packet,
            dst_node,
            label=self._cpu_inject_label,
        )

    def _inject(self, packet: Packet, dst_node: str) -> None:
        if self.failed:
            return
        self.forward_to_node(packet, dst_node)

    # ------------------------------------------------------------------
    # Multicast (paper section 7, EWO implementation)
    # ------------------------------------------------------------------
    def multicast_to_group(self, packet: Packet, group_id: int) -> int:
        """Replicate ``packet`` to every other member of a multicast group.

        Returns the number of copies sent.  The packet itself is not
        consumed — EWO sends copies while the original proceeds to its
        destination.
        """
        if self.multicast is None:
            raise RuntimeError(f"{self.name} has no multicast registry")
        group = self.multicast.get(group_id)
        copies = 0
        for member in group.others(self.name):
            copy = packet.clone()
            if copy.swishmem is not None:
                # The multicast engine stamps each copy's egress
                # destination, so transit switches forward rather than
                # consume copies addressed to someone else.
                copy.swishmem.dst_node = member
            if self.forward_to_node(copy, member):
                copies += 1
                self.stats.multicast_copies += 1
        return copies

    # ------------------------------------------------------------------
    # Packet generator (paper section 7: periodic EWO sync)
    # ------------------------------------------------------------------
    def generate_packet(self, packet: Packet, dst_node: str) -> bool:
        """Emit a locally generated packet (packet-generator feature)."""
        if self.failed:
            return False
        self.stats.generated_packets += 1
        packet.created_at = self.sim.now
        return self.forward_to_node(packet, dst_node)

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Fail-stop: drop queued work too — the service queue and,
        through the crash hooks, packets held in the pipeline."""
        super().fail()
        self._queue.clear()
        for hook in self._crash_hooks:
            hook()
