"""Controller replicas: failure detection, chain repair, recovery, leases.

Paper section 6.3 assumes "a central controller can detect which
switches have failed" and sketches the two phases we implement:

**Failover** (automatic, driven by the detector):

* SRO — "we regain connectivity by reprogramming the routing of the
  failed switch neighbors" and repair the chain by excising the failed
  member.  In-flight writes time out at their writers' control planes
  and are retried against the repaired chain.
* EWO — "other than removing the failed switch from the multicast
  group, no explicit failover protocol is needed."

Every failover, detected or found during a takeover, is one
:meth:`_excise`.

**Recovery** (operator-initiated via :meth:`recover_switch`) is a
restart — volatile data-plane memory wiped, the heartbeat and EWO sync
generators started afresh — followed by :meth:`_rejoin`:

* EWO — re-join the multicast groups and wait for periodic sync; CRDT
  state (including the rejoining switch's own counter slots) flows back
  from the other replicas.
* SRO — append to the chain, listed in the descriptor as catching up
  (gap-tolerant apply), wait a drain delay so in-flight old-chain writes
  settle, transfer a snapshot from a live chain member, and finally
  push the same-version descriptor that no longer lists it, which makes
  it the read tail.  Every catch-up, a takeover's re-drive included,
  starts in :meth:`_catch_up`.

**Failure detection** is real: every switch's packet generator emits a
:class:`Heartbeat` packet each ``heartbeat_period`` toward the *leader's
host switch* — the switch whose management port the acting controller
hangs off.  Heartbeats ride
the data plane, so loss, partitions, and nemesis interference affect
them like any other packet; a switch whose beacons stop for longer than
``heartbeat_timeout`` is declared failed.  Detection latency is bounded
by ``heartbeat_period + heartbeat_timeout``.  Because the detector is
not an oracle, it can be *wrong*: a partitioned-but-alive switch
is excised (split-brain), and its stale in-flight chain updates are
rejected by epoch fencing (see ``ChainUpdate.epoch``).  When beacons
from a suspected switch resume, the controller counts a false positive
and re-admits it: readmission is :meth:`_rejoin` alone, with no restart.

**High availability** (this module + :mod:`repro.protocols.election`):
the controller itself is replicated.  Each :class:`CentralController`
instance is one *replica* of the control plane; at most one holds the
leadership lease at a time and actually detects, repairs, and recovers.
A leader periodically extends its lease and broadcasts
:class:`~repro.protocols.messages.LeaseRenewal` to the standbys; when
renewals stop, a standby takes over after a margin provably past the
incumbent's self-fencing time, allocates a fresh controller epoch, and
*reconstructs* its view — chain membership, epochs, in-flight
recoveries, last-heard times — by querying the live switches rather
than trusting its own stale state.  Every configuration push travels as
an epoch-fenced :class:`~repro.protocols.messages.ControllerCommand`;
switches reject commands from a deposed leader.  An in-flight snapshot
transfer orphaned by a leader crash keeps streaming (it is driven by
the source switch's control plane), but its completion callback no-ops
at the dead leader; the successor finds the target still in catch-up
during reconstruction and re-drives the transfer to completion, so no
committed SRO write is lost across a controller failover.

Two narrow out-of-band assumptions remain, both documented properties
of a separate management network: configuration pushes, lease traffic,
and reconstruction queries reach live endpoints in ``config_latency``
(unless an explicit controller partition blocks them), and a leader
notices its *own* host switch dying via the management port (it then
re-homes to the next live switch).

The timing values below are constants of the model, not options: every
benchmark, example and ``perf/`` workload runs with exactly these.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.chain import ChainDescriptor
from repro.protocols.messages import (
    ControllerCommand,
    Heartbeat,
    LeaseRenewal,
    ReconstructQuery,
    ReconstructReply,
)
from repro.sim.engine import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemDeployment
    from repro.protocols.election import ControllerCluster

__all__ = ["CentralController", "FailureEvent", "RecoveryEvent"]

#: Heartbeat emission period per switch.
HEARTBEAT_PERIOD = 200e-6
#: Declare a switch failed after this long without a beacon.
HEARTBEAT_TIMEOUT = 600e-6
#: Latency for the controller to push one config update to one switch.
CONFIG_LATENCY = 100e-6
#: Wait for in-flight old-chain writes to settle before snapshotting.
DRAIN_DELAY = 5e-3
#: Give up a recovery after this many snapshot-transfer attempts.
MAX_TRANSFER_ATTEMPTS = 3


@dataclass
class FailureEvent:
    """Bookkeeping for one detected switch failure."""

    switch: str
    failed_at: float
    detected_at: float
    chains_repaired: List[int] = field(default_factory=list)
    multicast_groups_updated: int = 0
    #: True when the suspected switch was actually alive at detection
    #: time (heartbeat loss / partition, not a crash).
    false_positive: bool = False
    #: Controller epoch under which the failure was detected.
    epoch: int = 0

    @property
    def detection_latency(self) -> float:
        return self.detected_at - self.failed_at


@dataclass
class RecoveryEvent:
    """Bookkeeping for one switch recovery (or false-positive re-admission)."""

    switch: str
    started_at: float
    promoted_at: Dict[int, float] = field(default_factory=dict)
    #: True when this is a re-admission of a suspected-but-alive switch.
    readmission: bool = False
    #: True when a successor leader re-drove a recovery it found
    #: stranded mid-catch-up during reconstruction.
    redriven: bool = False
    #: Snapshot-transfer attempts per group (retries via on_failure).
    transfer_attempts: Dict[int, int] = field(default_factory=dict)
    #: Controller epoch under which the recovery was initiated.
    epoch: int = 0
    #: Causal context rooting this recovery's span subtree.
    trace: Any = None

    def sro_recovery_time(self, group_id: int) -> Optional[float]:
        promoted = self.promoted_at.get(group_id)
        if promoted is None:
            return None
        return promoted - self.started_at


class CentralController:
    """One controller replica: detector + reconfiguration engine.

    Constructed and owned by a
    :class:`~repro.protocols.election.ControllerCluster`; only while
    holding the leadership lease does a replica act on the deployment.
    Every mutating path checks :meth:`_is_active`, so events scheduled
    by a since-deposed leader fire as harmless no-ops.
    """

    def __init__(
        self,
        cluster: "ControllerCluster",
        replica_id: int,
    ) -> None:
        self.cluster = cluster
        self.deployment: "SwiShmemDeployment" = cluster.deployment
        self.sim = cluster.sim
        self.replica_id = replica_id
        # Config mirrored from the cluster (uniform across replicas).
        self.config_latency = cluster.config_latency
        self.drain_delay = cluster.drain_delay
        self.heartbeat_period = cluster.heartbeat_period
        self.heartbeat_timeout = cluster.heartbeat_timeout
        # Leadership state.
        self.role = "standby"
        self.failed = False
        self.epoch = 0
        self._seen_epoch = 0
        self.lease_expires = float("-inf")
        #: Believed expiry of the current leader's lease (from renewals).
        self.lease_view = self.sim.now + cluster.lease_duration
        self.reconstructing = False
        self._reconstruct_started = 0.0
        self._reconstruct_replies: Dict[str, ReconstructReply] = {}
        self._next_renew = 0.0
        self._stopped = False
        # Detection / repair state (leader-scoped; rebuilt on takeover).
        names = self.deployment.switch_names
        self.host: str = names[replica_id % len(names)]
        self._known_failed: Set[str] = set()
        self._known_down_links: Set[frozenset] = set()
        #: ``topo.link_version`` at this replica's last link scan (None
        #: until its first).
        self._links_scanned: Optional[int] = None
        self.link_events = 0
        self.failures: List[FailureEvent] = []
        self.recoveries: List[RecoveryEvent] = []
        #: Recoveries abandoned after MAX_TRANSFER_ATTEMPTS: (group, target, time).
        self.aborted_recoveries: List[Tuple[int, str, float]] = []
        #: (group, target) -> recovery generation.  Bumped every time a
        #: fresh catch-up is initiated, so snapshot events scheduled by a
        #: superseded recovery are ignored when they fire.
        self._recovery_gen: Dict[Tuple[int, str], int] = {}
        self.heartbeats_received = 0
        self.false_positives = 0
        self.rehomes = 0
        self._last_heard: Dict[str, float] = {}
        self._last_beacon = float("-inf")
        #: All deadlines are measured from max(last beacon, this base);
        #: reset on (re-)homing and takeover for a fresh grace window.
        self._deadline_base = self.sim.now
        # Observability spine (repro.obs.spine).  Metrics carry the
        # shared "controller" label, so replicas aggregate naturally.
        # Causal tracing: one Lamport clock per replica; ``trace_ctx``
        # is the root span of the current reign, set on activation.
        self.obs = self.deployment.obs
        self.node = f"ctl{replica_id}"
        self.causal = self.obs.clock(self.node)
        self.trace_ctx: Any = None
        self._process = Process(
            self.sim,
            self.heartbeat_period / 4,
            self._tick,
            name=f"controller:replica-{replica_id}",
        ).start()

    # ------------------------------------------------------------------
    # Leadership
    # ------------------------------------------------------------------
    @property
    def detection_bound(self) -> float:
        """Worst-case detection latency for a clean fail-stop (while a
        leader is continuously active; controller failover adds
        :attr:`ControllerCluster.failover_bound`)."""
        return self.heartbeat_period + self.heartbeat_timeout

    def _is_active(self) -> bool:
        """Whether this replica may act on the deployment *right now*:
        it leads, its lease is unexpired, and it can reach the fabric."""
        return (
            not self.failed
            and not self._stopped
            and self.role == "leader"
            and self.sim.now < self.lease_expires
            and not self.cluster.mgmt_blocked(self)
        )

    @property
    def is_active_leader(self) -> bool:
        return self._is_active()

    def _tick(self) -> None:
        if self.failed or self._stopped:
            return
        if self.role == "leader":
            if not self._lease_tick():
                return
            if self.reconstructing or self.cluster.mgmt_blocked(self):
                return
            self._check_liveness()
        else:
            self._standby_tick()

    def _lease_tick(self) -> bool:
        """Extend/advertise the lease; returns False after stepping down."""
        now = self.sim.now
        if now >= self.lease_expires:
            self._depose("lease-expired")
            return False
        if now >= self._next_renew:
            if self._lease_health_ok():
                self.lease_expires = now + self.cluster.lease_duration
            self._next_renew = now + self.cluster.renew_period
            self._broadcast_renewal()
        return True

    def _lease_health_ok(self) -> bool:
        """Whether the leader may extend its own lease this round.

        A leader that cannot reach the fabric must *not* extend: its
        lease runs out, it self-fences, and a (hopefully connected)
        standby takes over.  Reachability evidence is the management
        path being unblocked plus at least one switch beacon within the
        detection bound.  A solo replica has
        no standby to defer to, so self-fencing buys nothing and its
        lease self-extends unconditionally (the seed behaviour).
        """
        if len(self.cluster.replicas) == 1:
            return True
        if self.cluster.mgmt_blocked(self):
            return False
        reference = max(self._last_beacon, self._deadline_base)
        return self.sim.now - reference <= self.detection_bound

    def _broadcast_renewal(self) -> None:
        if self.cluster.mgmt_blocked(self):
            return
        renewal = LeaseRenewal(
            epoch=self.epoch,
            replica=self.replica_id,
            expires_at=self.lease_expires,
            sent_at=self.sim.now,
        )
        for peer in self.cluster.replicas:
            if peer is self or peer.failed:
                continue
            self.sim.schedule(
                self.config_latency,
                self.cluster.deliver_renewal,
                peer,
                renewal,
                label="controller:lease-renewal",
            )

    def on_lease_renewal(self, renewal: LeaseRenewal) -> None:
        if self.failed or self._stopped:
            return
        if renewal.epoch < self._seen_epoch:
            return  # stale advertisement from a deposed leader
        self._seen_epoch = renewal.epoch
        if (
            self.role == "leader"
            and renewal.replica != self.replica_id
            and renewal.epoch > self.epoch
        ):
            self._depose("superseded")
        self.lease_view = max(self.lease_view, renewal.expires_at)

    def _standby_tick(self) -> None:
        """Candidacy check: promote once the incumbent's advertised
        lease is provably expired, rank-staggered so lower replica ids
        go first and a successful takeover suppresses the rest."""
        deadline = (
            self.lease_view
            + self.cluster.takeover_margin
            + self.replica_id * self.cluster.takeover_stagger
        )
        if self.sim.now >= deadline:
            self.cluster.activate(self)

    def _depose(self, reason: str) -> None:
        if self.role != "leader":
            return
        self.role = "standby"
        self.reconstructing = False
        self.lease_expires = float("-inf")
        # Back off a full lease before self-candidacy, so a healthier
        # replica (or a healed fabric) gets the first shot.
        self.lease_view = max(self.lease_view, self.sim.now + self.cluster.lease_duration)
        self.cluster.on_leader_deposed(self, reason)

    # ------------------------------------------------------------------
    # Takeover: state reconstruction from the switches
    # ------------------------------------------------------------------
    def begin_reconstruction(self) -> None:
        """Query every switch for its replication view; distrust local
        state inherited from a previous reign or observed second-hand."""
        self.reconstructing = True
        self._reconstruct_started = self.sim.now
        self._reconstruct_replies = {}
        self._known_failed = set()
        self._last_heard = {}
        self._last_beacon = float("-inf")
        rc_ctx = self.causal.child(self.trace_ctx)
        if self.obs.on:
            self.obs.emit("controller.reconstruct.begin", self.node, rc_ctx, epoch=self.epoch)
        query = ReconstructQuery(
            epoch=self.epoch, replica=self.replica_id, sent_at=self.sim.now, trace=rc_ctx
        )
        if not self.cluster.mgmt_blocked(self):
            for name in self.deployment.switch_names:
                self.sim.schedule(
                    self.config_latency,
                    self._answer_query,
                    name,
                    query,
                    label="controller:reconstruct-query",
                )
        # Replies land at 2 x config_latency; close the window just after.
        self.sim.schedule(
            3 * self.config_latency,
            self._finish_reconstruction,
            self.epoch,
            label="controller:reconstruct-done",
        )

    def _answer_query(self, name: str, query: ReconstructQuery) -> None:
        """Runs at the switch's management port: snapshot its current
        chain view and send it back.  Answering also installs the new
        controller epoch, fencing any straggler commands from the old
        leader even before the successor issues its first command."""
        if self._stopped or self.cluster.mgmt_blocked(self):
            return
        manager = self.deployment.manager(name)
        if manager.switch.failed:
            return
        manager.observe_controller_epoch(query.epoch)
        answer_ctx = manager.causal.child(query.trace)
        if self.obs.on:
            self.obs.emit("controller.reconstruct.answer", name, answer_ctx, epoch=query.epoch)
        reply = ReconstructReply(
            switch=name,
            epoch=query.epoch,
            groups=tuple(
                state.chain for _, state in sorted(manager.sro.groups.items())
            ),
            sent_at=self.sim.now,
            trace=answer_ctx,
        )
        self.sim.schedule(
            self.config_latency,
            self._on_reconstruct_reply,
            reply,
            label="controller:reconstruct-reply",
        )

    def _on_reconstruct_reply(self, reply: ReconstructReply) -> None:
        if (
            self.failed
            or self._stopped
            or self.role != "leader"
            or reply.epoch != self.epoch
            or self.cluster.mgmt_blocked(self)
        ):
            return
        self._reconstruct_replies[reply.switch] = reply
        self._last_heard[reply.switch] = self.sim.now
        self._last_beacon = self.sim.now
        if self.obs.on:
            self.obs.emit(
                "controller.reconstruct.reply",
                self.node,
                reply.trace,
                switch=reply.switch,
                epoch=reply.epoch,
                groups=len(reply.groups),
            )

    def _finish_reconstruction(self, epoch: int) -> None:
        if (
            self.failed
            or self._stopped
            or self.role != "leader"
            or self.epoch != epoch
        ):
            return
        self.reconstructing = False
        replies = self._reconstruct_replies
        if not self._is_active() or (
            not replies and not self.cluster.has_pending_recoveries()
        ):
            # The fabric is unreachable (management partition, or every
            # switch down with nothing queued to revive): abdicate
            # rather than excising the whole deployment on no evidence.
            # A later candidacy retries once conditions change.
            self._depose("reconstruct-failed")
            return
        now = self.sim.now
        deployment = self.deployment
        # 1. Adopt any chain descriptor that supersedes our stale local
        #    copy (the previous leader reconfigured after our last update).
        for name in sorted(replies):
            for view in replies[name].groups:
                chain = deployment.chains.get(view.chain_id)
                if chain is not None and view.supersedes(chain):
                    deployment.chains[view.chain_id] = view
        # 2. Non-repliers are unreachable: excise them, all at once (one
        #    descriptor per chain).  No FailureEvent — failed_at is
        #    unknowable here; the detector re-reports if they come back
        #    and fail again.
        self._excise(*(name for name in deployment.switch_names if name not in replies))
        deployment.routing.recompute()
        if deployment.manager(self.host).switch.failed:
            self._rehome()
        # 3. Repliers: re-admit any the old leader had excised (they are
        #    demonstrably alive), and re-drive the catch-up of each member
        #    the adopted descriptor still lists (the old leader died
        #    mid-snapshot-transfer).
        for name in sorted(replies):
            reply = replies[name]
            manager = deployment.manager(name)
            excised = any(
                name not in deployment.chains[v.chain_id].members
                for v in reply.groups
                if v.chain_id in deployment.chains
            ) or any(
                name not in deployment.multicast.get(gid).members
                for gid in manager.ewo.groups
                # A re-level promotion deletes the group's multicast
                # fan-out; a switch still holding EWO state for it is
                # stale, not excised — reconciliation handles it.
                if deployment.multicast.has(gid)
            )
            if excised:
                self._readmit(name)
                continue
            redrive = [
                v.chain_id
                for v in reply.groups
                if v.chain_id in deployment.chains
                and name in deployment.chains[v.chain_id].catching_up
            ]
            if redrive:
                event = RecoveryEvent(
                    switch=name, started_at=now, redriven=True, epoch=self.epoch
                )
                event.trace = self.causal.child(self.trace_ctx)
                if self.obs.on:
                    self.obs.emit(
                        "controller.recovery.redrive",
                        self.node,
                        event.trace,
                        switch=name,
                        groups=",".join(str(g) for g in redrive),
                        epoch=self.epoch,
                    )
                self.recoveries.append(event)
                for group_id in redrive:
                    self._catch_up(group_id, name, event)
            # Refresh switches holding descriptors ours supersedes.
            for view in reply.groups:
                chain = deployment.chains.get(view.chain_id)
                if chain is not None and chain.supersedes(view):
                    self._send_command(
                        manager,
                        ControllerCommand(
                            epoch=self.epoch,
                            kind="set_chain",
                            group=view.chain_id,
                            payload=chain,
                        ),
                    )
        self.cluster.note_reconstruction(self, now - self._reconstruct_started)
        self.cluster.drain_pending_recoveries(self)
        # Resume (or roll back) any re-level handoff the dead leader
        # left mid-flight, then drain re-level requests queued while the
        # deployment was leaderless.
        deployment.releveler.on_leader_ready(self)

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def on_heartbeat(self, beacon: Heartbeat) -> None:
        """A beacon reached this replica's management port."""
        self.heartbeats_received += 1
        if self.obs.on:
            self.obs.emit("controller.heartbeat", self.node)
        self._last_heard[beacon.origin] = self.sim.now
        self._last_beacon = self.sim.now
        if self.role != "leader":
            return
        if beacon.origin in self._known_failed:
            if self.deployment.manager(beacon.origin).switch.failed:
                # A stale beacon (delayed in flight) from a switch that
                # really is down — not evidence of life.
                return
            self.false_positives += 1
            if self.obs.on:
                self.obs.emit("controller.false_positive", self.node)
            self._readmit(beacon.origin)

    def _check_liveness(self) -> None:
        """Periodic detector sweep over heartbeat deadlines."""
        host_switch = self.deployment.manager(self.host).switch
        if host_switch.failed:
            # Management port went dark: the host itself died.
            if self.host not in self._known_failed:
                self._on_failure_detected(self.host)  # re-homes as a side effect
            if self.deployment.manager(self.host).switch.failed:
                self._rehome()  # earlier re-home found no live switch; retry
        now = self.sim.now
        for name in self.deployment.switch_names:
            if name in self._known_failed:
                continue
            last = max(self._last_heard.get(name, 0.0), self._deadline_base)
            if now - last > self.heartbeat_timeout:
                self._on_failure_detected(name)
        self._poll_links()

    def _rehome(self) -> None:
        """Move this replica's management attachment to a live switch."""
        for name in self.deployment.switch_names:
            manager = self.deployment.manager(name)
            if not manager.switch.failed and name not in self._known_failed:
                self.host = name
                self.rehomes += 1
                # Fresh grace window: beacons in flight toward the old
                # host are gone; don't declare everyone dead at once.
                self._deadline_base = self.sim.now
                return
        # No live switch left — nothing to attach to (detector keeps
        # sweeping; recovery will re-home via recover_switch).

    def _poll_links(self) -> None:
        """Link failures only require re-routing (paper 6.3: 'links …
        may fail'; the replication protocols themselves retry/resync
        over whatever paths remain).

        A link changes state only through ``Link.set_up``, which bumps
        ``topo.link_version``; while that stands where this replica last
        scanned, the down set is the one it already knows."""
        topo = self.deployment.topo
        if topo.link_version == self._links_scanned:
            return
        self._links_scanned = topo.link_version
        down_now = {
            frozenset((link.a.name, link.b.name))
            for link in topo.links
            if not link.up
        }
        if down_now != self._known_down_links:
            self._known_down_links = down_now
            self.link_events += 1
            self.deployment.routing.recompute()

    def _on_failure_detected(self, name: str) -> None:
        if not self._is_active():
            return
        event = FailureEvent(
            switch=name,
            failed_at=self.cluster._fail_times.get(name, self.sim.now),
            detected_at=self.sim.now,
            false_positive=not self.deployment.manager(name).switch.failed,
            epoch=self.epoch,
        )
        self.failures.append(event)
        fail_ctx = self.causal.child(self.trace_ctx)
        if self.obs.on:
            self.obs.emit(
                "controller.failure.detect",
                self.node,
                fail_ctx,
                switch=name,
                false_positive=event.false_positive,
                epoch=self.epoch,
                latency=None if event.false_positive else event.detection_latency,
            )
        # "First, we regain connectivity by reprogramming the routing of
        # the failed switch neighbors."
        self.deployment.routing.recompute()
        event.chains_repaired, event.multicast_groups_updated = self._excise(
            name, parent=fail_ctx
        )
        if name == self.host:
            self._rehome()

    def _excise(self, *names: str, parent: Any = None) -> Tuple[List[int], int]:
        """Take ``names`` out of replication (paper 6.3's failover);
        returns ``(chains repaired, multicast groups updated)``, the
        groups counted once per name that left them.

        SRO: every chain any of them belongs to drops them all in one
        pushed descriptor — except a chain's last member, which stays
        (the last of ``names`` in it).  The bumped descriptor version
        doubles as the fencing epoch: updates sequenced under the old
        configuration are rejected by members that installed this one.
        EWO: each leaves every multicast group; nothing else is needed.
        Snapshot transfers sourced at them cannot finish, so they are
        abandoned now and their ``on_failure`` callbacks pick a new
        source (a dead CPU would otherwise swallow its own timers).
        """
        self._known_failed.update(names)
        deployment = self.deployment
        repaired = []
        for group_id, chain in sorted(deployment.chains.items()):
            gone = [name for name in names if name in chain]
            if len(gone) == len(chain):
                del gone[-1]
            if gone:
                self._push_chain(chain.without(*gone), parent=parent)
                repaired.append(group_id)
        updated = 0
        for name in names:
            updated += deployment.multicast.remove_member_everywhere(name)
            deployment.failover.fail_transfers_from(name)
        return repaired, updated

    # ------------------------------------------------------------------
    # Configuration distribution (epoch-fenced commands)
    # ------------------------------------------------------------------
    def _push_chain(self, chain: ChainDescriptor, parent: Any = None) -> None:
        """Distribute a descriptor to all live switches' control planes."""
        if not self._is_active():
            return
        self.deployment.chains[chain.chain_id] = chain
        for manager in self.deployment.managers.values():
            if manager.switch.failed:
                continue
            if chain.chain_id not in manager.sro.groups:
                continue
            self._send_command(
                manager,
                ControllerCommand(
                    epoch=self.epoch,
                    kind="set_chain",
                    group=chain.chain_id,
                    payload=chain,
                ),
                parent=parent,
            )

    def _send_command(
        self, manager, command: ControllerCommand, parent: Any = None
    ) -> None:
        if self.cluster.mgmt_blocked(self):
            return
        parent = parent if parent is not None else self.trace_ctx
        if parent is not None:
            # ControllerCommand is frozen; re-create it with the send
            # span stamped (trace is excluded from eq/wire_size).
            command = replace(command, trace=self.causal.child(parent))
            if self.obs.on:
                self.obs.emit(
                    "controller.command.send",
                    self.node,
                    command.trace,
                    group=command.group,
                    kind=command.kind,
                    epoch=command.epoch,
                    target=manager.switch.name,
                )
        self.sim.schedule(
            self.config_latency,
            self._deliver_command,
            manager,
            command,
            label="controller:command",
        )

    def _deliver_command(self, manager, command: ControllerCommand) -> None:
        # A partition that started after the send still swallows the
        # in-flight command (the management path is down at delivery).
        if manager.switch.failed or self.cluster.mgmt_blocked(self):
            return
        manager.apply_controller_command(command)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover_switch(self, name: str, wipe_state: bool = True) -> RecoveryEvent:
        """Bring a failed switch back into the deployment: restart it,
        then :meth:`_rejoin` it.

        ``wipe_state=True`` models a restarted switch whose volatile
        data-plane registers are empty (the realistic case).
        """
        manager = self.deployment.manager(name)
        switch = manager.switch
        if not switch.failed:
            raise ValueError(f"{name} has not failed; nothing to recover")
        event = RecoveryEvent(switch=name, started_at=self.sim.now, epoch=self.epoch)
        event.trace = self.causal.child(self.trace_ctx)
        if self.obs.on:
            self.obs.emit(
                "controller.recovery.begin",
                self.node,
                event.trace,
                switch=name,
                wiped=wipe_state,
                epoch=self.epoch,
            )
        self.recoveries.append(event)
        switch.recover()
        self._last_heard[name] = self.sim.now
        if wipe_state:
            for state in manager.sro.groups.values():
                state.wipe()
            for state in manager.ewo.groups.values():
                state.wipe()
        # The old generators self-stopped when the switch failed.
        self.cluster.restart_heartbeat_for(name)
        for group_id in manager.ewo.groups:
            if self.deployment.multicast.has(group_id):
                manager.start_ewo_sync(group_id)
        self._rejoin(name, event, wiped=wipe_state)
        # After the rejoin, which un-marks ``name``: a re-home skips
        # known-failed switches.
        if self.deployment.manager(self.host).switch.failed:
            self._rehome()
        return event

    def _readmit(self, name: str) -> None:
        """A suspected-but-alive switch proved it is up: bring it back.

        Its data-plane state is intact but it missed every chain update
        committed while it was excised, so it rejoins through the same
        catch-up + snapshot path as a recovering switch — minus the wipe
        and the process restarts.
        """
        event = RecoveryEvent(
            switch=name, started_at=self.sim.now, readmission=True, epoch=self.epoch
        )
        event.trace = self.causal.child(self.trace_ctx)
        if self.obs.on:
            self.obs.emit(
                "controller.recovery.readmit",
                self.node,
                event.trace,
                switch=name,
                readmission=True,
                epoch=self.epoch,
            )
        self.recoveries.append(event)
        self._rejoin(name, event, wiped=False)

    def _rejoin(self, name: str, event: RecoveryEvent, wiped: bool) -> None:
        """Put a live switch back into replication (paper 6.3's
        recovery): EWO rejoins the multicast groups and waits for sync;
        SRO re-appends it to every chain it replicates, in catch-up, and
        starts the drain-delayed snapshot transfer."""
        self._known_failed.discard(name)
        self.cluster._fail_times.pop(name, None)
        deployment = self.deployment
        deployment.routing.recompute()
        manager = deployment.manager(name)
        for group_id in manager.ewo.groups:
            # A group whose multicast a re-level promotion deleted is
            # skipped; reconciliation below re-levels the stale engine.
            if deployment.multicast.has(group_id):
                deployment.multicast.get(group_id).add(name)
        for group_id in list(manager.sro.groups):
            chain = deployment.chains.get(group_id)
            if chain is None:
                continue
            if name in chain:
                if len(chain) == 1 or not wiped:
                    # Sole member (no one to copy from), or an undetected
                    # failure with state intact — nothing to do.
                    continue
                # Undetected failure + wiped state: if we stayed in place
                # the empty replica would see every next update as a gap
                # and wedge.  Excise and re-append so it catches up.
                appended = chain.without(name).with_appended(name)
            else:
                appended = chain.with_appended(name)
            self._push_chain(appended, parent=event.trace)
            self._catch_up(group_id, name, event)
        # A switch that was down (or excised) across a re-level still
        # runs the old engine for the group; re-send it the switch step.
        deployment.releveler.reconcile_recovery(self, manager)

    def _catch_up(self, group_id: int, name: str, event: RecoveryEvent) -> None:
        """Start a fresh catch-up of ``name`` in ``group_id``: bump its
        recovery generation, so snapshot events of a superseded recovery
        are ignored, and let in-flight old-chain writes settle before
        snapshotting, so the snapshot provably covers every committed
        write that did not flow through the new member."""
        gen = self._recovery_gen.get((group_id, name), 0) + 1
        self._recovery_gen[(group_id, name)] = gen
        self.sim.schedule(
            self.drain_delay,
            self._start_snapshot,
            group_id,
            name,
            event,
            1,
            frozenset(),
            gen,
            label="controller:snapshot-start",
        )

    def _is_full_member(self, group_id: int, name: str) -> bool:
        """A member that provably holds every committed write: live and
        not itself in catch-up."""
        manager = self.deployment.manager(name)
        if manager.switch.failed:
            return False
        state = manager.sro.groups.get(group_id)
        return state is not None and not state.catching_up

    def _start_snapshot(
        self,
        group_id: int,
        target: str,
        event: RecoveryEvent,
        attempt: int,
        exclude: frozenset,
        gen: int,
    ) -> None:
        if not self._is_active():
            # Deposed (or crashed) since scheduling this.  If the target
            # is still catching up, the successor's reconstruction finds
            # it and re-drives the transfer under its own generation.
            return
        if gen != self._recovery_gen.get((group_id, target)):
            # Scheduled by a recovery that has since been superseded
            # (the target was excised and readmitted in between); the
            # newer recovery scheduled its own snapshot.
            return
        chain = self.deployment.chains[group_id]
        if target not in chain or self.deployment.manager(target).switch.failed:
            # The target failed again (or was excised) mid-recovery; a
            # future recover_switch will restart the whole dance.
            return
        candidates = [
            member
            for member in chain.members
            if member != target
            and not self.deployment.manager(member).switch.failed
        ]
        if not candidates:
            # Degenerate chain: the target is the only live member.
            self._promote(group_id, target, event, gen)
            return
        usable = [member for member in candidates if member not in exclude]
        if not usable:
            usable = candidates  # everyone failed us once; try again anyway
        # Only *full* members may serve the snapshot: a replica that is
        # itself catching up can predate writes committed while it was
        # excised, and copying from it would silently launder those
        # committed writes out of the chain.
        full = [member for member in usable if self._is_full_member(group_id, member)]
        if not full:
            full = [m for m in candidates if self._is_full_member(group_id, m)]
        if not full:
            # Every live candidate is still catching up.  Defer until
            # one of their own transfers completes.
            self._reschedule_snapshot(
                self.drain_delay,
                "controller:snapshot-defer",
                group_id,
                target,
                event,
                attempt,
                exclude,
                gen,
            )
            return
        # Prefer the read tail — it serves reads, so it provably holds
        # every committed value.
        source = chain.read_tail if chain.read_tail in full else full[0]
        event.transfer_attempts[group_id] = attempt
        snap_ctx = self.causal.child(event.trace)
        if self.obs.on:
            self.obs.emit(
                "controller.snapshot.start",
                self.node,
                snap_ctx,
                group=group_id,
                source=source,
                target=target,
                attempt=attempt,
            )
        self.deployment.failover.start_transfer(
            group_id,
            source=source,
            target=target,
            on_complete=lambda: self._promote(group_id, target, event, gen),
            on_failure=lambda transfer: self._on_transfer_failed(
                group_id, target, event, attempt, exclude, gen, transfer
            ),
            trace=snap_ctx,
        )

    def _on_transfer_failed(
        self,
        group_id: int,
        target: str,
        event: RecoveryEvent,
        attempt: int,
        exclude: frozenset,
        gen: int,
        transfer,
    ) -> None:
        """A snapshot transfer died (source failed / retry budget spent)."""
        if not self._is_active():
            return
        if self.deployment.manager(target).switch.failed:
            return  # the target itself died; nothing to salvage here
        self._reschedule_snapshot(
            self.config_latency,
            "controller:snapshot-retry",
            group_id,
            target,
            event,
            attempt,
            frozenset(exclude | {transfer.source}),
            gen,
        )

    def _reschedule_snapshot(
        self,
        delay: float,
        label: str,
        group_id: int,
        target: str,
        event: RecoveryEvent,
        attempt: int,
        exclude: frozenset,
        gen: int,
    ) -> None:
        """Try the snapshot again after ``delay``, or give the recovery
        up (logged in ``aborted_recoveries``) once ``attempt`` spent the
        last of MAX_TRANSFER_ATTEMPTS."""
        if attempt >= MAX_TRANSFER_ATTEMPTS:
            self.aborted_recoveries.append((group_id, target, self.sim.now))
            return
        self.sim.schedule(
            delay,
            self._start_snapshot,
            group_id,
            target,
            event,
            attempt + 1,
            exclude,
            gen,
            label=label,
        )

    def _promote(
        self,
        group_id: int,
        target: str,
        event: RecoveryEvent,
        gen: int,
    ) -> None:
        """Catch-up finished: push the descriptor that no longer lists
        the target as catching up (same version, so nothing is fenced).
        It becomes the read tail unless a member appended after it is
        already full.

        If the leader that started the transfer has since been deposed,
        this is a no-op: the target stays in catch-up and the successor
        re-drives the transfer during reconstruction, so a half-promoted
        chain never leaks from a dead leader's callback.
        """
        if not self._is_active():
            return
        if gen != self._recovery_gen.get((group_id, target)):
            return  # transfer belonged to a superseded recovery
        promote_ctx = self.causal.child(event.trace)
        if self.obs.on:
            self.obs.emit(
                "controller.promote",
                self.node,
                promote_ctx,
                group=group_id,
                target=target,
                epoch=self.epoch,
            )
        chain = self.deployment.chains[group_id]
        caught_up = chain.caught_up(target)
        if caught_up is not chain:
            self._push_chain(caught_up, parent=promote_ctx)
        event.promoted_at[group_id] = self.sim.now

    # ------------------------------------------------------------------
    def stop(self) -> None:
        self._stopped = True
        self._process.stop()
