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
  multicast copy here).  The multicast engine sends one copy per
  first-hop link: a member whose path runs through another member
  rides in that member's copy and is sent on from there.
* **A control plane** (:class:`~repro.switch.control.ControlPlaneAgent`)
  with DRAM buffering and timers, used by SRO.

Handlers receive ``(packet, from_node)`` and return True when they
consumed the packet.

The hop is resolved once, not per packet.  A channel hands a packet to
:meth:`PisaSwitch.deliver`, which counts it and runs the pipeline (or
queues it for a service slot).  Forwarding toward a node reads the
switch's *egress table* — destination -> the channels of its
equal-cost first hops, resolved from the routing table on first use —
and transmits on one of them, picked by the routing table's per-flow
hash when there are several.  The table is dropped whenever the
switch's ``routing`` object is replaced, that object's ``version``
moves (``recompute()``, ``set_salt()``) or a link is attached to the
switch.  What can change between two packets without any of those is
read live on every packet: ``failed`` here, and a channel's ``up``,
loss draw and nemesis in ``Channel.transmit``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.net.endhost import AddressBook
from repro.net.link import Channel, Link, Node
from repro.net.multicast import MulticastRegistry
from repro.net.packet import NO_GROUPS, Packet
from repro.net.routing import RoutingTable
from repro.obs.metrics import Histogram
from repro.sim.engine import Simulator
from repro.switch.control import ControlPlaneAgent, DEFAULT_OP_LATENCY
from repro.switch.memory import DEFAULT_SWITCH_MEMORY_BYTES, MemoryBudget

__all__ = ["PisaSwitch", "SwitchStats", "PacketHandler"]

PacketHandler = Callable[[Packet, str], bool]

#: A multicast fan-out: ``(target, riders)`` per copy sent.
FanOutPlan = Tuple[Tuple[str, Tuple[str, ...]], ...]

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
        memory_bytes: int = DEFAULT_SWITCH_MEMORY_BYTES,
        control_op_latency: float = DEFAULT_OP_LATENCY,
        pipeline_rate_pps: Optional[float] = None,
        queue_capacity: int = 1024,
    ) -> None:
        super().__init__(name)
        self.sim = sim
        # Shared fabric services, wired in by the deployment.
        self.routing: Optional[RoutingTable] = None
        self.address_book: Optional[AddressBook] = None
        self.multicast: Optional[MulticastRegistry] = None
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
        # Optional finite-capacity service model (experiment C1).
        self.pipeline_rate_pps = pipeline_rate_pps
        self.queue_capacity = queue_capacity
        self._queue: Deque[Tuple[Packet, str, float]] = deque()
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
        #: Egress table: destination node -> the channels of its
        #: equal-cost first hops in routing order (``None`` for a hop
        #: that is not a neighbor), filled per destination on first use
        #: and valid for ``_egress_routing`` at ``_egress_version``.
        self._egress: Dict[str, Tuple[Optional[Channel], ...]] = {}
        self._egress_routing: Optional[RoutingTable] = None
        self._egress_version = 0
        #: Fan-out plans (see :meth:`_plan`), keyed by the targets and
        #: the copy's flow key, built on first use and dropped with the
        #: egress table they were read from.
        self._plans: Dict[Tuple, FanOutPlan] = {}

    def attach_link(self, link: Link, neighbor: str) -> None:
        super().attach_link(link, neighbor)
        self._egress_routing = None  # resolve the egress table again

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

    def deliver(self, packet: Packet, from_node: str) -> None:
        """A channel hands over ``packet``: a failed switch ignores it,
        a live one counts it and runs the pipeline — or, with a finite
        service rate, queues it for a slot."""
        if self.failed:
            return
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
        self._queue.append((packet, from_node, self.sim.now))
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
        packet, from_node, enqueued_at = self._queue.popleft()
        self.queue_wait.observe(self.sim.now - enqueued_at)
        self._pipeline_pass(packet, from_node)
        if self._queue:
            self.sim.schedule(
                1.0 / self.pipeline_rate_pps, self._serve_next, label=self._serve_label
            )
        else:
            self._serving = False

    def _pipeline_pass(self, packet: Packet, from_node: str) -> None:
        """One atomic parser -> pipeline -> deparser pass."""
        if self._in_pipeline:
            raise RuntimeError(
                f"{self.name}: re-entrant pipeline pass — a handler synchronously "
                "re-delivered a packet; use recirculate() or the simulator instead"
            )
        self._in_pipeline = True
        try:
            packet.ingress_node = from_node  # fresh PISA metadata each pass
            packet.at_tail_groups = NO_GROUPS
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

    # ------------------------------------------------------------------
    # Egress actions (the API programs use)
    # ------------------------------------------------------------------
    def forward_to_node(self, packet: Packet, dst_node: str) -> bool:
        """Forward toward a node by name (switch-to-switch traffic)."""
        if dst_node == self.name:
            # Delivered to ourselves: re-enter the pipeline via recirculation.
            self.recirculate(packet)
            return True
        routing = self.routing
        if routing is None:
            raise RuntimeError(f"{self.name} has no routing table")
        if routing is not self._egress_routing or routing.version != self._egress_version:
            self._reset_egress(routing)
        channels = self._egress.get(dst_node)
        if channels is None:
            channels = self._resolve_egress(dst_node)
        if not channels:
            self.drop(packet, reason="unreachable")
            return False
        if len(channels) == 1:
            index = 0
        else:
            index = routing.flow_hash(packet) % len(channels)
        channel = channels[index]
        if channel is None:
            # Routing only ever names direct neighbors; anything else is a bug.
            hop = routing.hops_for(self.name, dst_node)[index]
            raise RuntimeError(f"{self.name}: next hop {hop} is not a neighbor")
        if self.failed:
            return False
        channel.transmit(packet)
        self.stats.tx_packets += 1
        return True

    def _reset_egress(self, routing: RoutingTable) -> None:
        """Start the egress table, and the fan-out plans read from it,
        afresh for ``routing`` at its current version."""
        self._egress = {}
        self._plans = {}
        self._egress_routing = routing
        self._egress_version = routing.version

    def _resolve_egress(self, dst_node: str) -> Tuple[Optional[Channel], ...]:
        """Resolve and remember the egress channels toward ``dst_node``:
        for each equal-cost first hop, this switch's direction of its
        link to that hop (empty when unreachable)."""
        channels = []
        for hop in self.routing.hops_for(self.name, dst_node):
            link = self.links.get(hop)
            if link is None:
                channels.append(None)
            else:
                channels.append(link.ab if link.a.name == self.name else link.ba)
        resolved = self._egress[dst_node] = tuple(channels)
        return resolved

    def forward_by_ip(self, packet: Packet) -> bool:
        """Default L3 forwarding using the address book + routing."""
        ipv4 = packet.ipv4
        if ipv4 is None or self.address_book is None:
            self.drop(packet, reason="no-route")
            return False
        dst_node = self.address_book.ip_to_node.get(ipv4.dst)
        if dst_node is None:
            self.drop(packet, reason="unknown-ip")
            return False
        ipv4.ttl -= 1
        if ipv4.ttl <= 0:
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
        ingress = packet.ingress_node or self.name
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
        """Replicate ``packet`` to every other member of a multicast
        group, one copy per first-hop link.

        A member whose first hop is another member gets no copy of its
        own: it rides in that member's copy as a relay target, and that
        member sends it on (:meth:`relay`).  Returns the number of copies
        this switch sent.  The packet itself is not consumed — EWO sends
        copies while the original proceeds to its destination.
        """
        if self.multicast is None:
            raise RuntimeError(f"{self.name} has no multicast registry")
        group = self.multicast.get(group_id)
        return self._fan_out(packet, group.others(self.name), (len(group) + 7) // 8)

    def relay(self, packet: Packet) -> int:
        """Send on the relay targets of a multicast copy addressed here,
        planned as the sender planned them; returns the copies sent.
        The packet itself is left to the caller, which consumes it."""
        header = packet.swishmem
        return self._fan_out(packet, header.relay, header.relay_bytes)

    def _fan_out(self, packet: Packet, targets: Tuple[str, ...], relay_bytes: int) -> int:
        """Send one copy of ``packet`` per planned target, each stamped
        with its destination and the targets riding in it (their
        bitstring costs ``relay_bytes`` on the wire)."""
        routing = self.routing
        if routing is None:
            raise RuntimeError(f"{self.name} has no routing table")
        if routing is not self._egress_routing or routing.version != self._egress_version:
            self._reset_egress(routing)
        header = packet.swishmem
        key = (targets,) if header is None else (targets, header.op, header.register_group)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(packet, targets)
        ids = self.sim.packet_ids
        copies = 0
        for target, riders in plan:
            copy = packet.clone(next(ids))
            stamp = copy.swishmem
            if stamp is not None:
                # The multicast engine stamps each copy's egress
                # destination, so transit switches forward rather than
                # consume copies addressed to someone else.
                stamp.dst_node = target
                stamp.relay = riders
                stamp.relay_bytes = relay_bytes if riders else 0
            if self.forward_to_node(copy, target):
                copies += 1
                self.stats.multicast_copies += 1
        return copies

    def _plan(self, packet: Packet, targets: Tuple[str, ...]) -> FanOutPlan:
        """Plan a fan-out: ``(target, riders)`` per copy, in target order.

        A target's first hop is the one :meth:`forward_to_node` would
        pick for its copy — the same egress table and the same flow hash
        of ``(op, group, target)`` — so every path stays the one a copy
        of its own would take.  A target whose first hop is another
        target rides in that target's copy; every other target, reached
        directly or through a switch outside the set, gets a copy of its
        own.  A packet without a replication header cannot carry riders.
        """
        if packet.swishmem is None:
            return tuple((target, ()) for target in targets)
        probe = packet.clone(0)
        riders: Dict[str, List[str]] = {}
        carried = set()
        for target in targets:
            channels = self._egress.get(target)
            if channels is None:
                channels = self._resolve_egress(target)
            if not channels:
                continue
            if len(channels) == 1:
                channel = channels[0]
            else:
                probe.swishmem.dst_node = target
                channel = channels[self.routing.flow_hash(probe) % len(channels)]
            if channel is None:
                continue
            hop = channel.dst.name
            if hop != target and hop in targets:
                riders.setdefault(hop, []).append(target)
                carried.add(target)
        return tuple(
            (target, tuple(riders.get(target, ())))
            for target in targets
            if target not in carried
        )

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
