"""Controller high availability: lease-based leadership over N replicas.

The control plane the paper assumes in section 6.3 is a single point of
failure.  This module replicates it: a :class:`ControllerCluster` owns
``N`` :class:`~repro.protocols.controller.CentralController` replicas,
of which at most one — the *leader* — holds a simulated-time lease and
acts on the deployment.  The rest are warm standbys.

**Lease protocol.**  The leader re-extends its lease every
``renew_period = duration / 3`` and broadcasts a
:class:`~repro.protocols.messages.LeaseRenewal` carrying its own
self-fencing time (``expires_at``) to every standby over the management
network.  Extension requires evidence the leader can still reach the
fabric (management path unblocked and a switch beacon within the
detection bound) — a leader cut off from every switch stops
extending, runs out its lease, and self-fences.  A standby's takeover
deadline is computed from the *advertised* ``expires_at``, never from
receipt time:

    ``takeover_k = last_advertised_expiry + margin + k * stagger``

with ``margin = renew_period + beacon_quiet + 2 * config_latency`` —
the advertisement granularity, plus how long a cut-off leader may keep
extending before its health check trips (``beacon_quiet`` = the
detection bound), plus management-network slack.  Since the
incumbent stops acting at ``expires_at + beacon_quiet + renew_period``
at the latest, the successor provably activates after the incumbent
has self-fenced: at most one replica is ever *active* (leading, lease
unexpired, fabric reachable).  The per-rank ``stagger`` exceeds the
reconstruction window, so if the first candidate turns out to be the
partitioned one (promotes, gets no reconstruction replies, abdicates),
it is gone before the next candidate fires.

**Epochs.**  Each activation allocates a strictly increasing controller
epoch (modeling a generation counter in the management config store).
Every configuration push is an epoch-stamped
:class:`~repro.protocols.messages.ControllerCommand`; switches remember
the highest epoch they have obeyed and reject lower ones, so a deposed
leader's in-flight commands cannot land after its successor takes over.

**Reconstruction.**  A non-initial activation distrusts local state:
the new leader queries every switch
(:class:`~repro.protocols.messages.ReconstructQuery`) and rebuilds
chain membership, catch-up status, and liveness from the replies —
re-exciing unreachable switches, re-admitting excised-but-alive ones,
and re-driving snapshot transfers the dead leader orphaned mid-flight.

The cluster is installed as ``deployment.controller`` and keeps the
single-controller API: aggregate event lists (``failures``,
``recoveries``, …) concatenate across replicas, and anything else
delegates to the acting (or most recent) leader, so a single-replica
cluster is behaviourally identical to the seed's ``CentralController``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.net.headers import SwiShmemHeader, SwiShmemOp
from repro.net.packet import Packet
from repro.protocols.controller import (
    CONFIG_LATENCY,
    DRAIN_DELAY,
    HEARTBEAT_PERIOD,
    HEARTBEAT_TIMEOUT,
    CentralController,
    FailureEvent,
    RecoveryEvent,
)
from repro.protocols.messages import Heartbeat, LeaseRenewal
from repro.switch.pktgen import PacketGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemDeployment

__all__ = ["ControllerCluster", "DEFAULT_LEASE_DURATION"]

#: Default leadership lease duration.
DEFAULT_LEASE_DURATION = 5e-3
#: The leader renews every ``lease_duration / RENEW_DIVISOR``.
RENEW_DIVISOR = 3


class ControllerCluster:
    """N controller replicas acting as one highly available controller."""

    def __init__(
        self,
        deployment: "SwiShmemDeployment",
        replicas: int = 1,
        lease_duration: float = DEFAULT_LEASE_DURATION,
    ) -> None:
        if replicas < 1:
            raise ValueError("a controller cluster needs at least one replica")
        self.replicas: List[CentralController] = []
        self.deployment = deployment
        self.sim = deployment.sim
        self.config_latency = CONFIG_LATENCY
        self.drain_delay = DRAIN_DELAY
        self.heartbeat_period = HEARTBEAT_PERIOD
        self.heartbeat_timeout = HEARTBEAT_TIMEOUT
        self.lease_duration = lease_duration
        self.renew_period = lease_duration / RENEW_DIVISOR
        beacon_quiet = self.heartbeat_period + self.heartbeat_timeout
        self.takeover_margin = (
            self.renew_period + beacon_quiet + 2 * self.config_latency
        )
        # Must exceed the reconstruction window (3 x config_latency) so
        # a candidate that promotes and abdicates is out of the way
        # before the next rank fires.
        self.takeover_stagger = 5 * self.config_latency
        #: Monotonic epoch allocator (a generation counter in the
        #: management config store; activation = a CAS bump).
        self.max_epoch = 0
        self._stopped = False
        #: Injection times noted by experiments (survives leader death:
        #: it is measurement bookkeeping, not controller state).
        self._fail_times: Dict[str, float] = {}
        #: recover_switch requests that arrived while no leader was
        #: active; drained after the next successful reconstruction.
        self._pending_recoveries: List[Tuple[str, bool]] = []
        #: Replica ids whose management connectivity is severed
        #: (controller <-> switch *and* controller <-> controller).
        self._mgmt_blocked: set = set()
        self.leader_changes = 0
        self.lease_expiries = 0
        #: (time, action, replica_id, detail) — activations, deposals,
        #: crashes, reconstructions; part of chaos determinism digests.
        self.leader_log: List[Tuple[float, str, int, Any]] = []
        self._last_leader: Optional[CentralController] = None
        #: The deployment's observability spine; the cluster, its
        #: replicas and the re-leveler share the "controller" label.
        self.obs = deployment.obs
        self.obs.announce("controller")
        self._hb_seq = 0
        self._hb_generators: Dict[str, PacketGenerator] = {}
        for switch in deployment.switches:
            self.restart_heartbeat_for(switch.name)
        for replica_id in range(replicas):
            self.replicas.append(CentralController(self, replica_id))
        self.activate(self.replicas[0], initial=True)

    # ------------------------------------------------------------------
    # Leadership bookkeeping
    # ------------------------------------------------------------------
    def active_leader(self) -> Optional[CentralController]:
        """The replica currently able to act on the deployment, if any."""
        for replica in self.replicas:
            if replica.is_active_leader:
                return replica
        return None

    def _delegate(self) -> CentralController:
        """Where single-controller API calls land: the active leader,
        else the most recent one (its view is the best available)."""
        leader = self.active_leader()
        if leader is not None:
            self._last_leader = leader
            return leader
        if self._last_leader is not None:
            return self._last_leader
        return self.replicas[0]

    def activate(self, replica: CentralController, initial: bool = False) -> None:
        """Grant ``replica`` the lease under a freshly allocated epoch."""
        if self._stopped or replica.failed or replica.role == "leader":
            return
        now = self.sim.now
        self.max_epoch += 1
        replica.epoch = self.max_epoch
        replica._seen_epoch = self.max_epoch
        replica.role = "leader"
        replica.lease_expires = now + self.lease_duration
        replica.lease_view = now + self.lease_duration
        replica._next_renew = now + self.renew_period
        replica._deadline_base = now
        if self.deployment.manager(replica.host).switch.failed:
            replica._rehome()
        self.leader_changes += 1
        self.leader_log.append((now, "activate", replica.replica_id, replica.epoch))
        self._last_leader = replica
        # Root span for this reign: every command/repair/recovery span
        # this leader emits descends from it, so a takeover shows up as
        # a fresh trace rooted at the successor's activation.
        replica.trace_ctx = replica.causal.root()
        if self.obs.on:
            self.obs.emit(
                "controller.activate",
                replica.node,
                replica.trace_ctx,
                epoch=replica.epoch,
                initial=initial,
            )
        replica._broadcast_renewal()
        if not initial:
            # The initial leader of a fresh deployment knows everything;
            # any later activation must rebuild its view from the fabric.
            replica.begin_reconstruction()

    def on_leader_deposed(self, replica: CentralController, reason: str) -> None:
        if reason == "lease-expired":
            self.lease_expiries += 1
            if self.obs.on:
                self.obs.emit("controller.lease_expired", replica.node)
        self.leader_log.append((self.sim.now, "depose", replica.replica_id, reason))

    def note_reconstruction(self, replica: CentralController, latency: float) -> None:
        if self.obs.on:
            self.obs.emit("controller.reconstructed", replica.node, latency=latency)
        self.leader_log.append(
            (self.sim.now, "reconstructed", replica.replica_id, round(latency, 12))
        )

    def deliver_renewal(
        self, peer: CentralController, renewal: LeaseRenewal
    ) -> None:
        if self._stopped or peer.failed or self.mgmt_blocked(peer):
            return
        peer.on_lease_renewal(renewal)

    def leadership_digest(self) -> Tuple[Tuple[float, str, int, Any], ...]:
        """Canonical leadership history for determinism comparisons."""
        return tuple(self.leader_log)

    def leaderless_intervals(
        self, until: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Windows ``[(start, end)]`` during which no replica acted as
        leader, derived from ``leader_log``.

        A window opens when the acting leader crashes, is deposed, or
        loses management connectivity, and closes at the next
        activation.  A window still open at the end of the log closes
        at ``until`` (default: the current sim time).  Critical-path
        attribution charges writer retry waits that overlap these
        windows to the ``leaderless_window`` cause: reconfiguration
        commands cannot be issued while nobody holds the lease.
        """
        horizon = self.sim.now if until is None else until
        intervals: List[Tuple[float, float]] = []
        leader_id: Optional[int] = None
        open_at: Optional[float] = None
        for now, kind, replica_id, detail in self.leader_log:
            if kind == "activate":
                if open_at is not None and now > open_at:
                    intervals.append((open_at, now))
                open_at = None
                leader_id = replica_id
            elif leader_id is not None and replica_id == leader_id:
                if kind == "depose" or (kind == "crash" and detail == "leader") or kind == "partition":
                    if open_at is None:
                        open_at = now
                    leader_id = None
        if open_at is not None and horizon > open_at:
            intervals.append((open_at, horizon))
        return intervals

    # ------------------------------------------------------------------
    # Chaos hooks: controller crash / restore / management partition
    # ------------------------------------------------------------------
    def crash_replica(self, replica_id: int) -> None:
        """Fail-stop one controller replica (its events no-op from now)."""
        replica = self.replicas[replica_id]
        if replica.failed:
            return
        replica.failed = True
        self.leader_log.append((self.sim.now, "crash", replica_id, replica.role))

    def restore_replica(self, replica_id: int) -> None:
        """Restart a crashed replica as a standby with a fresh lease view."""
        replica = self.replicas[replica_id]
        if not replica.failed:
            return
        replica.failed = False
        replica.role = "standby"
        replica.reconstructing = False
        replica.lease_expires = float("-inf")
        # Grace: assume an incumbent exists until renewals prove otherwise.
        replica.lease_view = self.sim.now + self.lease_duration
        self.leader_log.append((self.sim.now, "restore", replica_id, ""))

    def mgmt_blocked(self, replica: CentralController) -> bool:
        return replica.replica_id in self._mgmt_blocked

    def set_mgmt_partition(self, replica_id: int, blocked: bool) -> None:
        """Sever (or heal) one replica's management connectivity — to
        switches *and* to its peer replicas.  A blocked leader stops
        hearing beacons and cannot extend or advertise its lease, so it
        self-fences and a connected standby takes over."""
        if blocked:
            self._mgmt_blocked.add(replica_id)
        else:
            self._mgmt_blocked.discard(replica_id)
        self.leader_log.append(
            (self.sim.now, "partition" if blocked else "heal", replica_id, "")
        )

    # ------------------------------------------------------------------
    # Heartbeat plumbing (cluster-owned: beacons chase the leader)
    # ------------------------------------------------------------------
    def restart_heartbeat_for(self, name: str) -> None:
        """(Re)start the heartbeat packet generator on one switch."""
        old = self._hb_generators.pop(name, None)
        if old is not None:
            old.stop()
        switch = self.deployment.manager(name).switch
        phase_stream = self.deployment.rng.stream(f"heartbeat-phase:{name}")
        generator = PacketGenerator(
            switch,
            period=self.heartbeat_period,
            body=lambda s=switch: self._emit_heartbeat(s),
            name="heartbeat",
            phase=phase_stream.uniform(0.1, 1.0) * self.heartbeat_period,
        )
        generator.start()
        self._hb_generators[name] = generator

    def _emit_heartbeat(self, switch) -> None:
        if switch.failed or self._stopped:
            return
        leader = self.active_leader()
        if leader is None:
            return  # no one is listening; the next leader resets deadlines
        self._hb_seq += 1
        beacon = Heartbeat(origin=switch.name, seq=self._hb_seq, sent_at=self.sim.now)
        if switch.name == leader.host:
            # The host's beacon reaches the controller over its own
            # management port — no network hop to lose.
            self.on_heartbeat(beacon, at_switch=switch.name)
            return
        packet = Packet(
            swishmem=SwiShmemHeader(op=SwiShmemOp.HEARTBEAT, dst_node=leader.host),
            swishmem_payload=beacon,
        )
        switch.generate_packet(packet, leader.host)

    def on_heartbeat(self, beacon: Heartbeat, at_switch: Optional[str] = None) -> None:
        """A beacon reached ``at_switch``: hand it up the management
        port of every live replica homed there."""
        if at_switch is None:
            at_switch = self._delegate().host
        for replica in self.replicas:
            if replica.failed or replica.host != at_switch:
                continue
            if self.mgmt_blocked(replica):
                continue
            replica.on_heartbeat(beacon)

    # ------------------------------------------------------------------
    # Single-controller API (facade over the replica set)
    # ------------------------------------------------------------------
    def note_failure_time(self, switch_name: str) -> None:
        """Experiments call this when injecting a fault, so detection
        latency can be measured.  Optional."""
        self._fail_times.setdefault(switch_name, self.sim.now)

    def recover_switch(self, name: str, wipe_state: bool = True) -> Optional[RecoveryEvent]:
        """Bring a failed switch back.  With no active leader (controller
        failover in progress) the request queues and is executed by the
        next leader after reconstruction; ``None`` is returned."""
        leader = self.active_leader()
        if leader is None or leader.reconstructing:
            self._pending_recoveries.append((name, wipe_state))
            return None
        return leader.recover_switch(name, wipe_state=wipe_state)

    def has_pending_recoveries(self) -> bool:
        return bool(self._pending_recoveries)

    def drain_pending_recoveries(self, leader: CentralController) -> None:
        pending, self._pending_recoveries = self._pending_recoveries, []
        for name, wipe_state in pending:
            if not leader._is_active():
                self._pending_recoveries.append((name, wipe_state))
                continue
            if self.deployment.manager(name).switch.failed:
                leader.recover_switch(name, wipe_state=wipe_state)

    @property
    def detection_bound(self) -> float:
        return self._delegate().detection_bound

    @property
    def failover_bound(self) -> float:
        """Worst-case extra unavailability a controller failover adds:
        lease run-out + takeover margin/stagger + reconstruction."""
        stagger = self.takeover_stagger * max(0, len(self.replicas) - 1)
        return (
            self.lease_duration
            + self.takeover_margin
            + stagger
            + 3 * self.config_latency
        )

    @property
    def failures(self) -> List[FailureEvent]:
        if len(self.replicas) == 1:
            return self.replicas[0].failures
        events = [event for replica in self.replicas for event in replica.failures]
        events.sort(key=lambda event: event.detected_at)
        return events

    @property
    def recoveries(self) -> List[RecoveryEvent]:
        if len(self.replicas) == 1:
            return self.replicas[0].recoveries
        events = [event for replica in self.replicas for event in replica.recoveries]
        events.sort(key=lambda event: event.started_at)
        return events

    @property
    def aborted_recoveries(self) -> List[Tuple[int, str, float]]:
        if len(self.replicas) == 1:
            return self.replicas[0].aborted_recoveries
        events = [item for replica in self.replicas for item in replica.aborted_recoveries]
        events.sort(key=lambda item: item[2])
        return events

    @property
    def heartbeats_received(self) -> int:
        return sum(replica.heartbeats_received for replica in self.replicas)

    @property
    def false_positives(self) -> int:
        return sum(replica.false_positives for replica in self.replicas)

    @property
    def _known_failed(self) -> set:
        return self._delegate()._known_failed

    def last_failure(self) -> Optional[FailureEvent]:
        failures = self.failures
        return failures[-1] if failures else None

    def stop(self) -> None:
        """Tear the whole cluster down: every replica's periodic process
        and every heartbeat generator.  After in-flight events drain,
        the sim queue holds nothing of the controller's."""
        self._stopped = True
        for replica in self.replicas:
            replica.stop()
        for generator in self._hb_generators.values():
            generator.stop()
        self._hb_generators.clear()
