"""The SwiShmem runtime: per-switch manager and deployment facade.

Two classes make up the paper's "one big switch" abstraction:

* :class:`SwiShmemManager` — one per switch.  It owns the protocol
  engines (SRO/ERO chain, EWO broadcast+sync), installs the replication
  packet handler in front of NF code, supplies NFs with
  :class:`~repro.core.registers.RegisterHandle` objects, and mediates
  every register access: collecting SRO write sets, applying EWO writes
  inline, and forwarding reads that hit pending slots.

* :class:`SwiShmemDeployment` — one per experiment.  It wires a set of
  :class:`~repro.switch.pisa.PisaSwitch` nodes into a single logical NF
  processor: shared routing, multicast groups, chain descriptors, clock
  distribution, the central controller, and NF installation on every
  switch.  Experiments declare register groups once; the deployment
  replicates them everywhere ("we begin by assuming that each register
  is replicated on every switch", section 5).

NF programs interact only with :class:`PacketContext` and
:class:`RegisterHandle` — they cannot tell which switch they run on,
which is the entire point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional, Tuple, Type, TYPE_CHECKING

from repro.analysis.history import HistoryRecorder
from repro.core.chain import ChainDescriptor
from repro.core.registers import (
    Consistency,
    ReadForwarded,
    RegisterHandle,
    RegisterSpec,
)
from repro.crdt.clock import HybridClock
from repro.net.endhost import AddressBook
from repro.net.headers import SwiShmemOp
from repro.net.multicast import MulticastRegistry
from repro.net.packet import Packet
from repro.net.routing import RoutingTable
from repro.net.topology import Topology
from repro.obs.events import SWITCH
from repro.obs.spine import ObsSpine
from repro.protocols.antientropy import ScrubAgent
from repro.protocols.ewo import EwoEngine
from repro.protocols.messages import WriteToken
from repro.protocols.sro import SroEngine
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch
from repro.switch.pktgen import PacketGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.accessprof import AccessProfiler
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import SLOMonitor

__all__ = ["Decision", "PacketContext", "SwiShmemManager", "SwiShmemDeployment"]

#: Bound on per-switch clock offset, modeling data-plane time sync
#: "down to tens of nanoseconds" (paper section 6.2).
DEFAULT_CLOCK_SKEW = 50e-9

#: Default EWO packet-generator sync period (paper's 1 ms example).
DEFAULT_SYNC_PERIOD = 1e-3


@dataclass(frozen=True)
class Decision:
    """What an NF wants done with the packet it just processed.

    Immutable, so every handler shares the two verdicts :data:`FORWARD`
    and :data:`DROP` (``forward()`` / ``drop()``) instead of building one
    per packet; the manager reads ``kind``, so a hand-built verdict means
    the same as the shared one."""

    kind: str  # "forward_ip" | "drop"

    FORWARD_IP = "forward_ip"
    DROP = "drop"

    @staticmethod
    def forward() -> "Decision":
        """Forward by the packet's (possibly rewritten) destination IP."""
        return FORWARD

    @staticmethod
    def drop() -> "Decision":
        return DROP


#: The two shared verdicts.
FORWARD = Decision(kind=Decision.FORWARD_IP)
DROP = Decision(kind=Decision.DROP)


class PacketContext:
    """Everything an NF handler may touch while processing one packet."""

    __slots__ = ("manager", "packet", "from_node", "write_set", "now", "on_release")

    def __init__(self, manager: "SwiShmemManager", packet: Packet, from_node: str) -> None:
        self.manager = manager
        self.packet = packet
        self.from_node = from_node
        self.now = manager.sim.now
        #: Strong (SRO/ERO) writes collected during this pass: Q.
        self.write_set: List[Tuple[RegisterSpec, Any, Any]] = []
        #: Optional hook ``(output_packet, results) -> None`` invoked
        #: when the buffered output is released; ``results`` maps each
        #: written key to its committed value (fetch-add results).
        self.on_release: Optional[Any] = None

    @property
    def switch_name(self) -> str:
        return self.manager.switch.name


@dataclass
class _RelevelFence:
    """Write fence for one group during a re-level handoff.

    While installed, new writes land in the ``overlay`` (a write-through
    cache applied to the target engine at unfence) instead of the
    protocol engines, so the drained state stays frozen across the
    switch.  Reads consult the overlay first — a writer observes its own
    fenced writes.  Only overwrite-semantics (LWW) groups are
    re-levelable, so last-write-wins replay of the overlay is exact.
    """

    group_id: int
    epoch: int
    overlay: Dict[Any, Any] = dataclass_field(default_factory=dict)
    writes_fenced: int = 0


class SwiShmemManager:
    """Per-switch SwiShmem runtime."""

    def __init__(self, switch: PisaSwitch, deployment: "SwiShmemDeployment") -> None:
        self.switch = switch
        self.deployment = deployment
        self.sim: Simulator = deployment.sim
        self.rng: SeededRng = deployment.rng
        node_id = deployment.node_id(switch.name)
        self.clock = HybridClock(
            node_id=node_id,
            read_true_time=lambda: self.sim.now,
            offset=deployment.clock_offset(switch.name),
        )
        #: The deployment's observability spine, held by reference: a
        #: sink attached later reaches this switch without re-binding.
        self.obs: ObsSpine = deployment.obs
        self.obs.announce(SWITCH, switch.name)
        #: Causal tracing clock (repro.obs.causal): Lamport counter plus
        #: deterministic span-id allocation.  Must exist before the
        #: engines, which cache it at construction.
        self.causal = self.obs.clock(switch.name)
        self.sro = SroEngine(self)
        self.ewo = EwoEngine(self, sync_period=deployment.sync_period)
        #: Member-side anti-entropy agent: digest trees over this
        #: switch's register groups plus repair application.
        self.scrub = ScrubAgent(self)
        #: Live consistency level per group on this switch.  Seeded by
        #: ``add_group`` and rewritten by ``relevel_switch`` commands;
        #: every per-access branch on consistency goes through
        #: ``level_of`` so a re-level takes effect mid-run.  This is
        #: deliberately per-manager (not read off the shared spec): the
        #: spec mutates once on the leader while switch commands land at
        #: different times per switch, and each switch must keep routing
        #: to the engine it actually has installed.
        self._levels: Dict[int, Consistency] = {}
        #: Active re-level write fences by group id.
        self._relevel_fences: Dict[int, _RelevelFence] = {}
        self._handles: Dict[int, RegisterHandle] = {}
        self._sync_generators: Dict[int, PacketGenerator] = {}
        self._ctx: Optional[PacketContext] = None
        self.nfs: List[Any] = []
        #: Highest controller epoch this switch has obeyed.  Commands
        #: stamped with a lower epoch come from a deposed leader and are
        #: rejected (controller failover fencing, see protocols.election).
        self.controller_epoch = 0
        self.fenced_commands = 0
        #: None, or a callable shown each replication packet addressed
        #: here before the engines (True: consumed); FaultInjector sets it.
        self.interpose: Optional[Any] = None
        switch.install_handler(self._protocol_handler, front=True)
        # Held output packets are pipeline contents: a crash takes them.
        switch.on_crash(self.sro.pipeline_lost)

    # ------------------------------------------------------------------
    # Replication traffic dispatch
    # ------------------------------------------------------------------
    def _protocol_handler(self, packet: Packet, from_node: str) -> bool:
        header = packet.swishmem
        if header is None:
            return False
        if header.dst_node is not None and header.dst_node != self.switch.name:
            # In transit: this replication packet is addressed to another
            # switch; forward it along without touching the protocol state.
            self.switch.forward_to_node(packet, header.dst_node)
            return True
        if header.relay:
            # Members riding in this multicast copy go on from here, at
            # the point a transit copy would be forwarded: before any
            # fault below and before this switch's own merge.
            self.switch.relay(packet)
        if self.interpose is not None and self.interpose(packet):
            return True
        op = header.op
        payload = packet.swishmem_payload
        if op is SwiShmemOp.WRITE_REQUEST:
            self.sro._receive_write_request(payload)
            return True
        if op is SwiShmemOp.CHAIN_UPDATE:
            self.sro.handle_chain_update(payload)
            return True
        if op is SwiShmemOp.WRITE_ACK:
            self.sro.handle_write_ack(payload)
            return True
        if op is SwiShmemOp.READ_FORWARD:
            return self.sro.handle_read_forward(packet, header.register_group)
        if op in (SwiShmemOp.EWO_UPDATE, SwiShmemOp.EWO_SYNC):
            self.ewo.handle_update(payload, op is SwiShmemOp.EWO_SYNC)
            return True
        if op is SwiShmemOp.EWO_SYNC_PROBE:
            self.ewo.handle_probe(payload)
            return True
        if op is SwiShmemOp.SCRUB_REPAIR:
            self.scrub.handle_repair(payload)
            return True
        if op is SwiShmemOp.SNAPSHOT_WRITE:
            self.deployment.failover.handle_snapshot_write(self, payload)
            return True
        if op is SwiShmemOp.SNAPSHOT_ACK:
            self.deployment.failover.handle_snapshot_ack(self, payload)
            return True
        if op is SwiShmemOp.HEARTBEAT:
            # This switch hosts a controller replica: hand the beacon up
            # the management port (the cluster routes it to whichever
            # replica is homed here).
            self.deployment.controller.on_heartbeat(payload, self.switch.name)
            return True
        return True  # unknown replication op: drop rather than misroute

    # ------------------------------------------------------------------
    # Controller command handling (epoch-fenced, management plane)
    # ------------------------------------------------------------------
    def observe_controller_epoch(self, epoch: int) -> None:
        """Adopt a newer controller epoch (reconstruction queries carry
        it, so a successor's takeover fences the old leader at every
        switch it can reach even before its first command)."""
        if epoch > self.controller_epoch:
            self.controller_epoch = epoch

    def apply_controller_command(self, command: Any) -> bool:
        """Validate and apply one configuration command.

        Returns False — counting a fenced command — when the command's
        epoch is below the highest this switch has obeyed: it was issued
        by a since-deposed leader and must not land."""
        obs = self.obs
        ctx = self.causal.child(command.trace)
        if command.epoch < self.controller_epoch:
            self.fenced_commands += 1
            if obs.on:
                obs.emit(
                    "controller.command.fenced",
                    self.switch.name,
                    ctx,
                    group=command.group,
                    kind=command.kind,
                    command_epoch=command.epoch,
                    fencing_epoch=self.controller_epoch,
                )
            return False
        self.controller_epoch = command.epoch
        if command.kind == "set_chain":
            self.sro.set_chain(command.group, command.payload)
        elif command.kind == "relevel_fence":
            self._apply_relevel_fence(command)
        elif command.kind == "relevel_switch":
            self._apply_relevel_switch(command)
        elif command.kind == "relevel_unfence":
            self._apply_relevel_unfence(command)
        else:
            raise ValueError(f"unknown controller command kind {command.kind!r}")
        if obs.on:
            obs.emit(
                "controller.command.apply",
                self.switch.name,
                ctx,
                group=command.group,
                kind=command.kind,
                epoch=command.epoch,
            )
        return True

    # ------------------------------------------------------------------
    # Runtime re-leveling (repro.protocols.releveling)
    # ------------------------------------------------------------------
    def level_of(self, spec: RegisterSpec) -> Consistency:
        """The group's *live* consistency level on this switch.

        Never branch a register access on ``spec.consistency`` directly:
        the spec is shared and rewritten once by the re-leveling leader,
        while the engine switch lands per-switch via ``relevel_switch``
        commands.  This map tracks what this switch actually installed.
        """
        return self._levels.get(spec.group_id, spec.consistency)

    def relevel_fence_for(self, group_id: int) -> Optional[_RelevelFence]:
        return self._relevel_fences.get(group_id)

    def _apply_relevel_fence(self, command: Any) -> None:
        """Phase 1 (drain): stop feeding the engines new writes.

        Idempotent — a takeover leader resumes by re-sending fences.  An
        EWO source additionally flushes queued local entries so the
        drain settle window covers everything this replica produced.
        """
        group_id = command.group
        if group_id in self._relevel_fences:
            return
        self._relevel_fences[group_id] = _RelevelFence(
            group_id=group_id, epoch=command.epoch
        )
        spec = self.deployment.specs[group_id]
        if self.level_of(spec) is Consistency.EWO and group_id in self.ewo.groups:
            self.ewo.flush(group_id)

    def _apply_relevel_switch(self, command: Any) -> None:
        """Phase 2 (switch): tear down the old engine, install and seed
        the new one.  Idempotent per-switch via the live-level guard, so
        a takeover leader can blindly re-send it."""
        group_id = command.group
        payload = command.payload
        spec = self.deployment.specs[group_id]
        target = Consistency(payload["target"])
        current = self.level_of(spec)
        if current is target:
            return
        if target is Consistency.EWO:
            # Demotion: chain replica -> broadcast replica, seeded with
            # the drained head snapshot under one controller stamp.
            self.sro.remove_group(group_id)
            members = list(payload["members"])
            if self.switch.name in members:
                self.ewo.add_group(spec, members, self.clock)
                self.ewo.seed_group(group_id, payload["seed"], payload["stamp"])
                self.start_ewo_sync(group_id)
        elif current is Consistency.EWO:
            # Promotion: broadcast replica -> chain replica, seeded with
            # the merged LWW state.
            self._stop_ewo_sync(group_id)
            self.ewo.remove_group(group_id)
            state = self.sro.add_group(spec, payload["chain"])
            state.track_pending = target is Consistency.SRO
            self.sro.seed_group(group_id, payload["seed"])
        else:
            # SRO <-> ERO: same chain engine, flip pending-bit tracking.
            self.sro.set_track_pending(group_id, target is Consistency.SRO)
        self._levels[group_id] = target

    def _apply_relevel_unfence(self, command: Any) -> None:
        """Phase 3 (unfence): release writes under the new level.

        Fenced writes replay through the normal write path in sorted-key
        order; the groups eligible for re-leveling have overwrite (LWW)
        semantics, so replaying each key's last fenced value is exact.
        """
        fence = self._relevel_fences.pop(command.group, None)
        if fence is None:
            return
        spec = self.deployment.specs[command.group]
        for key in sorted(fence.overlay, key=repr):
            self.register_write(spec, key, fence.overlay[key])

    # ------------------------------------------------------------------
    # Register group plumbing (called by the deployment)
    # ------------------------------------------------------------------
    def add_group(self, spec: RegisterSpec, chain: Optional[ChainDescriptor], members: List[str]) -> None:
        self._levels[spec.group_id] = spec.consistency
        if spec.consistency is Consistency.EWO:
            self.ewo.add_group(spec, members, self.clock)
            self.start_ewo_sync(spec.group_id)
        else:
            assert chain is not None
            self.sro.add_group(spec, chain)
        self._handles[spec.group_id] = RegisterHandle(spec, self)

    def handle(self, spec: RegisterSpec) -> RegisterHandle:
        return self._handles[spec.group_id]

    def start_ewo_sync(self, group_id: int) -> None:
        """Start (or replace) the periodic EWO sync generator."""
        old = self._sync_generators.pop(group_id, None)
        if old is not None:
            old.stop()
        spec = self.deployment.specs[group_id]
        generator = PacketGenerator(
            self.switch,
            period=self.deployment.sync_period,
            body=lambda gid=group_id: self.ewo.sync_tick(gid),
            name=f"ewo-sync:{spec.name}",
            phase=self.deployment.sync_phase(self.switch.name, group_id),
        )
        generator.start()
        self._sync_generators[group_id] = generator

    def _stop_ewo_sync(self, group_id: int) -> None:
        generator = self._sync_generators.pop(group_id, None)
        if generator is not None:
            generator.stop()

    # ------------------------------------------------------------------
    # NF installation
    # ------------------------------------------------------------------
    def install_nf(self, nf: Any) -> None:
        """Install an NF whose ``process(ctx) -> Decision`` handles packets.

        Multiple NFs on one switch *compose*: they run in installation
        order within a single pipeline pass (stages of one program), all
        sharing the packet's context — and therefore one write set Q and
        one buffered-output barrier.  A DROP from any NF ends the
        chain.
        """
        self.nfs.append(nf)
        if len(self.nfs) == 1:
            self.switch.install_handler(self._nf_chain_handler)

    def _nf_chain_handler(self, packet: Packet, from_node: str) -> bool:
        if packet.swishmem is not None:
            return False
        if not self.nfs:
            return False
        ctx = PacketContext(self, packet, from_node)
        self._ctx = ctx
        decision = FORWARD
        try:
            for nf in self.nfs:
                result = nf.process(ctx)
                if result is not None:
                    decision = result
                if decision.kind == Decision.DROP:
                    break
        except ReadForwarded:
            # The packet is already on its way to the tail.
            return True
        finally:
            self._ctx = None
            # One egress mirror per pass, on every exit, ahead of the
            # output packet.
            self.ewo.end_pass()
        return self._finalize(ctx, decision)

    def _finalize(self, ctx: PacketContext, decision: Decision) -> bool:
        """Apply the write set and dispose of the output packet.

        With strong writes pending, the output is buffered by the
        control plane and released on commit (paper 6.1); otherwise the
        packet leaves immediately.
        """
        if ctx.write_set:
            output_packet, output_dst = self._resolve_output(ctx, decision)
            self.sro.initiate_writes(
                ctx.write_set, output_packet, output_dst, on_release=ctx.on_release
            )
            return True
        if decision.kind == Decision.DROP:
            self.switch.drop(ctx.packet, reason="nf-drop")
        else:
            self.switch.forward_by_ip(ctx.packet)
        return True

    def _resolve_output(
        self, ctx: PacketContext, decision: Decision
    ) -> Tuple[Optional[Packet], Optional[str]]:
        if decision.kind == Decision.DROP or ctx.packet.ipv4 is None:
            return None, None
        dst_node = self.deployment.address_book.lookup(ctx.packet.ipv4.dst)
        if dst_node is None:
            return None, None
        return ctx.packet, dst_node

    # ------------------------------------------------------------------
    # Register access mediation (called by RegisterHandle)
    # ------------------------------------------------------------------
    def _note_write(self) -> None:
        if self.obs.on:
            self.obs.emit("state.write", self.switch.name)

    def register_read(self, spec: RegisterSpec, key: Any, default: Any) -> Any:
        if self.obs.on:
            self.obs.emit("state.read", self.switch.name, group=spec.group_id, key=key)
        fence = self._relevel_fences.get(spec.group_id)
        if fence is not None and key in fence.overlay:
            # Mid-handoff: the writer sees its own fenced writes.
            return fence.overlay[key]
        packet = self._ctx.packet if self._ctx is not None else None
        if self.level_of(spec) is Consistency.EWO:
            value = self.ewo.read(spec, key, default)
        else:
            value = self.sro.read(spec, key, default, packet)
        history = self.deployment.history
        if history is not None:
            history.record_instant(
                "read", spec.group_id, key, value, self.switch.name, self.sim.now
            )
        return value

    def register_write(self, spec: RegisterSpec, key: Any, value: Any) -> None:
        self._note_write()
        fence = self._relevel_fences.get(spec.group_id)
        if fence is not None:
            # Mid-handoff: park the write in the fence overlay; it
            # replays through this path at unfence, under the new level
            # (which also records it into the history then).
            fence.overlay[key] = value
            fence.writes_fenced += 1
            return
        if self.level_of(spec) is Consistency.EWO:
            self.ewo.write(spec, key, value)
            history = self.deployment.history
            if history is not None:
                history.record_instant(
                    "write", spec.group_id, key, value, self.switch.name, self.sim.now
                )
            return
        if self._ctx is None:
            # Control-plane-originated write (no packet, nothing to buffer).
            self.sro.initiate_writes([(spec, key, value)], None, None, origin="control")
            return
        self._ctx.write_set.append((spec, key, value))

    def register_fetch_add(self, spec: RegisterSpec, key: Any, amount: int = 1) -> None:
        """Linearizable fetch-add on SRO/ERO state (section 9 sequencer).

        The head assigns ``current + amount`` at sequencing time; the
        committed value is delivered to the packet's ``on_release``
        hook.  EWO counters don't need this — their increments are
        already commutative — so it is rejected there.
        """
        from repro.core.registers import FetchAdd

        self._note_write()
        if self.level_of(spec) is Consistency.EWO:
            raise TypeError(
                f"fetch_add targets strong registers; use increment() on the "
                f"EWO group {spec.name!r}"
            )
        fence = self._relevel_fences.get(spec.group_id)
        if fence is not None:
            # Mid-handoff fetch-add folds into the overlay (no
            # on_release result during the fence window; the fenced sum
            # replays as one overwrite at unfence).
            if key in fence.overlay:
                base = fence.overlay[key]
            else:
                state = self.sro.groups.get(spec.group_id)
                base = state.store.get(key, spec.default) if state is not None else spec.default
            fence.overlay[key] = (base or 0) + amount
            fence.writes_fenced += 1
            return
        if self._ctx is None:
            self.sro.initiate_writes(
                [(spec, key, FetchAdd(amount))], None, None, origin="control"
            )
            return
        self._ctx.write_set.append((spec, key, FetchAdd(amount)))

    def register_increment(self, spec: RegisterSpec, key: Any, amount: int) -> int:
        if self.obs.on:  # ``_note_write``, without its frame: a sketch NF's hot path
            self.obs.emit("state.write", self.switch.name)
        value = self.ewo.increment(spec, key, amount)
        history = self.deployment.history
        if history is not None:
            history.record_instant(
                "write", spec.group_id, key, value, self.switch.name, self.sim.now
            )
        return value

    def register_peek(self, spec: RegisterSpec, key: Any, default: Any) -> Any:
        if self.obs.on:
            self.obs.emit("state.peek", self.switch.name, group=spec.group_id, key=key)
        fence = self._relevel_fences.get(spec.group_id)
        if fence is not None and key in fence.overlay:
            return fence.overlay[key]
        if self.level_of(spec) is Consistency.EWO:
            return self.ewo.read(spec, key, default)
        state = self.sro.groups.get(spec.group_id)
        if state is None:
            # Mid-switch window: the chain engine is already torn down
            # here but the broadcast engine's command hasn't landed yet.
            return default if default is not None else spec.default
        return state.store.get(key, default if default is not None else spec.default)

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------
    def on_write_initiated(self, spec: RegisterSpec, key: Any, value: Any, token: WriteToken) -> None:
        history = self.deployment.history
        if history is not None:
            history.begin(
                token, "write", spec.group_id, key, value, self.switch.name, self.sim.now
            )

    def on_write_committed(self, spec: RegisterSpec, key: Any, ack: Any) -> None:
        history = self.deployment.history
        if history is not None:
            history.complete(ack.token, self.sim.now)
        for listener in self.deployment.commit_listeners:
            listener(self.switch.name, spec, key, ack)


class _Sink:
    """Read-only view of one of the spine's sinks.  The spine owns them;
    assigning one on the deployment would reach nothing, so it raises."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, deployment: Any, owner: Optional[type] = None) -> Any:
        return self if deployment is None else getattr(deployment.obs, self.name)

    def __set__(self, deployment: Any, value: Any) -> None:
        raise AttributeError(
            f"deployment.{self.name} belongs to the observability spine; use "
            f"deployment.rebind_observability({self.name}=...) instead"
        )


class SwiShmemDeployment:
    """A set of switches acting as one logical NF processor."""

    #: Live-telemetry registry, causal flight recorder, access-pattern
    #: profiler and SLO monitor (repro.obs), or None; attach one late
    #: with :meth:`rebind_observability`.
    metrics = _Sink()
    flight_recorder = _Sink()
    access_profiler = _Sink()
    slo_monitor = _Sink()

    def __init__(
        self,
        sim: Simulator,
        topo: Topology,
        switches: List[PisaSwitch],
        address_book: Optional[AddressBook] = None,
        sync_period: float = DEFAULT_SYNC_PERIOD,
        clock_skew: float = DEFAULT_CLOCK_SKEW,
        record_history: bool = False,
        metrics: Optional["MetricsRegistry"] = None,
        controller_replicas: int = 1,
        lease_duration: Optional[float] = None,
        flight_recorder: Optional["FlightRecorder"] = None,
        access_profiler: Optional["AccessProfiler"] = None,
        slo_monitor: Optional["SLOMonitor"] = None,
    ) -> None:
        if not switches:
            raise ValueError("a deployment needs at least one switch")
        self.sim = sim
        self.topo = topo
        self.rng = topo.rng
        self.switches = list(switches)
        self.switch_names = [s.name for s in switches]
        self.sync_period = sync_period
        self.clock_skew = clock_skew
        #: The observability spine (repro.obs.spine): every protocol
        #: component reports its steps to it and it alone calls sinks.
        self.obs = ObsSpine(sim)
        self.rebind_observability(metrics, flight_recorder, access_profiler, slo_monitor)
        self.address_book = address_book if address_book is not None else AddressBook()
        self.routing = RoutingTable(topo)
        self.multicast = MulticastRegistry()
        self.history: Optional[HistoryRecorder] = HistoryRecorder() if record_history else None
        #: Hooks invoked as ``listener(writer, spec, key, ack)`` whenever
        #: a strong write commits at its writer — the chaos invariant
        #: monitors subscribe here to learn what "acked" means.
        self.commit_listeners: List[Any] = []
        #: Section 9 extension: directory service for partial replication
        #: (None = full replication everywhere, the paper's base design).
        self.directory = None
        #: Anti-entropy (repro.protocols.antientropy): chaos faults log
        #: one DivergenceEvent per injected silent divergence here; the
        #: scrubber stamps detection and heal times and the invariant
        #: suite enforces the heal bound.
        self.divergence_log: List[Any] = []
        #: The deployment-wide ScrubCoordinator, once started.
        self.scrubber = None
        self._group_ids = itertools.count(1)
        self.specs: Dict[int, RegisterSpec] = {}
        self._spec_names: Dict[str, RegisterSpec] = {}
        self.chains: Dict[int, ChainDescriptor] = {}
        self._clock_offsets: Dict[str, float] = {}
        skew_stream = self.rng.stream("clock-skew")
        for switch in self.switches:
            self._clock_offsets[switch.name] = skew_stream.uniform(-clock_skew, clock_skew)
        # Wire the shared fabric services into each switch.
        for switch in self.switches:
            switch.routing = self.routing
            switch.address_book = self.address_book
            switch.multicast = self.multicast
        # Late imports to avoid a protocols <-> core cycle at module load.
        from repro.protocols.election import DEFAULT_LEASE_DURATION, ControllerCluster
        from repro.protocols.failover import FailoverCoordinator

        self.managers: Dict[str, SwiShmemManager] = {
            switch.name: SwiShmemManager(switch, self) for switch in self.switches
        }
        self.failover = FailoverCoordinator(self)
        self.controller = ControllerCluster(
            self,
            replicas=controller_replicas,
            lease_duration=(
                lease_duration if lease_duration is not None else DEFAULT_LEASE_DURATION
            ),
        )
        # Runtime consistency re-leveling.  Deployment-scoped (not
        # per-controller-replica) so an in-progress handoff survives a
        # leader takeover; only command *sending* is leader-gated.
        from repro.protocols.releveling import RelevelingCoordinator

        self.releveler = RelevelingCoordinator(self)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _read_dataplane(self, into: "MetricsRegistry") -> None:
        """The dataplane's metrics source (``MetricsRegistry.add_source``):
        devices count, the registry reads.  Switches and links are
        walked as they are at the read, so a link connected later is
        listed, and every value is the device's lifetime total however
        late the registry was attached."""
        for switch in self.switches:
            node, stats = switch.name, switch.stats
            into.counter("switch.rx_packets", node).inc(stats.rx_packets)
            into.counter("switch.tx_packets", node).inc(stats.tx_packets)
            into.counter("switch.dropped_packets", node).inc(stats.dropped_packets)
            into.counter("switch.punted_packets", node).inc(stats.punted_packets)
            into.counter("switch.queue_drops", node).inc(stats.queue_drops)
            depth = into.gauge("switch.queue_depth", node)
            depth.set(switch.queue_high_water)  # a gauge's max is the highest value set
            depth.set(switch.queue_depth)
            into.histogram("switch.queue_wait_seconds", node).add(switch.queue_wait)
        for link in self.topo.links:
            for channel in (link.ab, link.ba):
                node, stats = f"{channel.src.name}->{channel.dst.name}", channel.stats
                into.counter("link.packets_sent", node).inc(stats.packets_sent)
                into.counter("link.bytes_sent", node).inc(stats.bytes_sent)
                into.counter("link.drops", node).inc(stats.packets_dropped)
                into.counter("link.busy_seconds", node).inc(stats.busy_seconds)

    def rebind_observability(
        self,
        metrics: Optional["MetricsRegistry"] = None,
        flight_recorder: Optional["FlightRecorder"] = None,
        access_profiler: Optional["AccessProfiler"] = None,
        slo_monitor: Optional["SLOMonitor"] = None,
    ) -> None:
        """Attach or replace sinks on a live deployment.  Every emitter
        holds the spine by reference, so nothing is re-bound per engine;
        the spine replays instruments, groups and NF ownership to the
        newcomer."""
        if metrics is not None:
            metrics.add_source(self._read_dataplane)
        self.obs.attach(
            metrics=metrics,
            flight_recorder=flight_recorder,
            access_profiler=access_profiler,
            slo_monitor=slo_monitor,
        )

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    def node_id(self, switch_name: str) -> int:
        return self.switch_names.index(switch_name)

    def clock_offset(self, switch_name: str) -> float:
        return self._clock_offsets.get(switch_name, 0.0)

    def sync_phase(self, switch_name: str, group_id: int) -> float:
        """Stagger each switch's first sync within one period."""
        stream = self.rng.stream(f"sync-phase:{switch_name}:{group_id}")
        return stream.uniform(0.1, 1.0) * self.sync_period

    def manager(self, switch_name: str) -> SwiShmemManager:
        return self.managers[switch_name]

    # ------------------------------------------------------------------
    # Register group declaration
    # ------------------------------------------------------------------
    def declare(self, spec: RegisterSpec) -> RegisterSpec:
        """Declare a register group and replicate it on every switch."""
        if spec.name in self._spec_names:
            raise ValueError(f"register group {spec.name!r} already declared")
        spec.group_id = next(self._group_ids)
        self.specs[spec.group_id] = spec
        self._spec_names[spec.name] = spec
        self.obs.describe_group(spec)
        chain: Optional[ChainDescriptor] = None
        if spec.consistency is Consistency.EWO:
            self.multicast.create(spec.group_id, members=self.switch_names)
        else:
            chain = ChainDescriptor(
                chain_id=spec.group_id, members=tuple(self.switch_names)
            )
            self.chains[spec.group_id] = chain
        for manager in self.managers.values():
            manager.add_group(spec, chain, list(self.switch_names))
        return spec

    def spec_by_name(self, name: str) -> RegisterSpec:
        return self._spec_names[name]

    def attach_directory(self, directory) -> None:
        """Enable the section 9 directory service for groups declared
        with ``partial_replication=True``.  The directory's switch set
        must match this deployment's."""
        unknown = set(directory.all_switches) - set(self.switch_names)
        if unknown:
            raise ValueError(f"directory names unknown switches: {sorted(unknown)}")
        self.directory = directory

    def handle(self, switch_name: str, spec: RegisterSpec) -> RegisterHandle:
        return self.managers[switch_name].handle(spec)

    # ------------------------------------------------------------------
    # NF installation
    # ------------------------------------------------------------------
    def install_nf(self, nf_class: Type, **kwargs: Any) -> List[Any]:
        """Declare the NF's register groups and instantiate it on every switch.

        ``nf_class.build_specs(**kwargs)`` returns the NF's
        :class:`RegisterSpec` list; the class is then constructed per
        switch as ``nf_class(manager, handles, **kwargs)`` where
        ``handles`` maps spec name -> :class:`RegisterHandle`.
        """
        specs = nf_class.build_specs(**kwargs)
        for spec in specs:
            self.declare(spec)
        instances = []
        for switch in self.switches:
            manager = self.managers[switch.name]
            handles = {spec.name: manager.handle(spec) for spec in specs}
            nf = nf_class(manager, handles, **kwargs)
            manager.install_nf(nf)
            instances.append(nf)
        return instances

    # ------------------------------------------------------------------
    # Experiment conveniences
    # ------------------------------------------------------------------
    def fail_switch(self, name: str) -> None:
        """Fail-stop a switch (the controller will detect it)."""
        self.topo.fail_node(name)

    def start_scrubbing(self, period: Optional[float] = None):
        """Start the anti-entropy scrub loop (idempotent)."""
        from repro.protocols.antientropy import DEFAULT_SCRUB_PERIOD, ScrubCoordinator

        if self.scrubber is not None:
            return self.scrubber
        self.scrubber = ScrubCoordinator(
            self, period=period if period is not None else DEFAULT_SCRUB_PERIOD
        )
        self.scrubber.start()
        return self.scrubber

    def shutdown(self) -> None:
        """Tear the deployment down: stop the controller cluster (all
        replicas, lease timers, heartbeat generators) and every periodic
        EWO sync generator, so that once in-flight events drain the sim
        queue is empty.  The deployment stays inspectable afterwards."""
        self.controller.stop()
        if self.scrubber is not None:
            self.scrubber.stop()
        for manager in self.managers.values():
            for generator in manager._sync_generators.values():
                generator.stop()
            manager._sync_generators.clear()

    def ewo_states(self, spec: RegisterSpec) -> List[Dict[Any, Any]]:
        """Every live replica's readable EWO state (convergence checks)."""
        return [
            manager.ewo.local_state(spec.group_id)
            for manager in self.managers.values()
            if not manager.switch.failed and spec.group_id in manager.ewo.groups
        ]

    def sro_stores(self, spec: RegisterSpec) -> List[Dict[Any, Any]]:
        return [
            dict(manager.sro.groups[spec.group_id].store)
            for manager in self.managers.values()
            if not manager.switch.failed and spec.group_id in manager.sro.groups
        ]

    def summary(self) -> Dict[str, Any]:
        """A deployment-wide operational snapshot.

        Aggregates the forwarding-plane, control-plane, and per-group
        protocol counters across every switch — what an operator
        dashboard for this deployment would show, and what examples and
        experiments print when asked "what did the system actually do?".
        """
        switches = {}
        for name, manager in self.managers.items():
            switch = manager.switch
            switches[name] = {
                "failed": switch.failed,
                "forwarding": switch.stats.as_dict(),
                "cpu_ops": switch.control.ops_executed,
                "cpu_time": switch.control.cpu_time_used,
                "buffered_packets": switch.control.buffered_count,
                "memory_used_bytes": switch.memory.used_bytes,
                "memory_utilization": switch.memory.utilization(),
            }
        groups = {}
        for group_id, spec in sorted(self.specs.items()):
            per_switch = {}
            for name, manager in self.managers.items():
                if manager.level_of(spec) is Consistency.EWO:
                    if group_id in manager.ewo.groups:
                        per_switch[name] = manager.ewo.stats_for(group_id).as_dict()
                elif group_id in manager.sro.groups:
                    per_switch[name] = manager.sro.stats_for(group_id).as_dict()
            totals: Dict[str, float] = {}
            for stats in per_switch.values():
                for key, value in stats.items():
                    totals[key] = totals.get(key, 0) + value
            groups[spec.name] = {
                "consistency": spec.consistency.value,
                "totals": totals,
                "per_switch": per_switch,
            }
        return {
            "switches": switches,
            "groups": groups,
            "failures": len(self.controller.failures),
            "recoveries": len(self.controller.recoveries),
            "replication_bytes_on_wire": self.topo.total_bytes_sent(),
        }
