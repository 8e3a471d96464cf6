"""Runtime consistency re-leveling: drain -> switch -> unfence.

The paper assigns each NF a static Table 1 consistency class; the
access-pattern profiler (:mod:`repro.obs.accessprof`) and advisor
(:mod:`repro.obs.advisor`) re-derive that table from live traffic and
flag misdeclared groups.  This module closes the loop: a
:class:`RelevelingCoordinator` takes a high-confidence recommendation
and *acts* on it, promoting or demoting a register group between SRO,
ERO, and EWO on a live deployment without losing a committed write.

The handoff is a controller-driven three-phase protocol, every phase an
idempotent epoch-fenced :class:`~repro.protocols.messages.ControllerCommand`
so a takeover leader can blindly re-drive the current phase:

1. **drain** (``relevel_fence``): every switch installs a write fence
   for the group — new writes park in a per-switch overlay instead of
   the protocol engines — and the coordinator polls until the old
   engine quiesces: no pending bit set and no writer state outstanding
   (SRO/ERO source), or queued entries flushed plus a settle window for
   in-flight broadcasts (EWO source).  The fence rides an epoch bump,
   so in-flight commands from a deposed leader cannot land mid-handoff.

2. **switch** (``relevel_switch``): the leader synchronously rewrites
   the global structures — retire the chain / create the multicast
   group (or the reverse), snapshot the drained authoritative value
   (SRO head store, or the LWW merge of every replica), and rewrite
   ``RegisterSpec.consistency`` — then commands every switch to tear
   down its old engine and install + seed the new one.  Seeding uses
   one controller-issued timestamp, so all replicas land byte-identical
   state.  Promotion chain versions continue monotonically from the
   retired chain's version, so stale ``set_chain`` commands stay fenced
   across a demote/promote flap.

3. **unfence** (``relevel_unfence``): each switch pops its fence and
   replays the overlay through the normal write path — now routed to
   the new engine.  Re-levelable groups have overwrite (LWW) semantics,
   so replaying each key's last fenced value is exact.

If a chain member dies mid-drain, or the drain times out, the handoff
**rolls back**: the fences are released without switching, and the
group keeps its original level.  Counter EWO groups are refused
outright — their merge state has no overwrite-faithful representation
in a chain store.

The coordinator is deployment-scoped (not per-controller-replica) so an
in-progress handoff survives a leader crash; only command *sending* is
leader-gated.  ``ControllerCluster`` calls :meth:`on_leader_ready` at
the end of every takeover reconstruction, which resumes (or completes)
the current phase under the new leader's epoch.

Every phase is stamped into the flight recorder (``relevel.begin`` /
``.drain`` / ``.switch`` / ``.unfence`` / ``.complete`` / ``.rollback``
/ ``.resume``) for post-mortem timelines; ``phase_listeners`` fire just
after each phase's commands are sent — the seam the chaos nemesis uses
to kill the leader at the worst possible moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.chain import ChainDescriptor
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.crdt.clock import Timestamp
from repro.protocols.ewo import merge_replicas
from repro.protocols.messages import ControllerCommand

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemDeployment, SwiShmemManager
    from repro.obs.advisor import ConsistencyAdvisor

__all__ = ["Handoff", "RelevelingCoordinator", "RelevelStats"]

#: Drain poll cadence, in units of the cluster's config latency.
_POLL_FACTOR = 2.0


class RelevelStats:
    """Counters over the coordinator's lifetime (chaos digests use them)."""

    __slots__ = (
        "requested",
        "completed",
        "rollbacks",
        "deferred",
        "resumed",
        "refused",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


@dataclass
class Handoff:
    """One in-flight re-level."""

    group_id: int
    spec: RegisterSpec
    source: Consistency
    target: Consistency
    reason: str
    started_at: float
    epoch: int
    #: "drain" | "switch" | "unfence"
    phase: str = "drain"
    #: Bumped on every leader resume; scheduled callbacks carry the gen
    #: they were scheduled under and no-op when it has moved on.
    gen: int = 0
    drain_deadline: float = 0.0
    #: Sim time when every live member was first observed fenced (EWO
    #: sources wait a settle window past this for in-flight broadcasts).
    fenced_all_at: Optional[float] = None
    #: The exact ``relevel_switch`` payload, stored so a takeover leader
    #: re-sends byte-identical (idempotent) commands.
    switch_payload: Optional[Dict[str, Any]] = None
    trace: Any = None
    resumes: int = 0


class RelevelingCoordinator:
    """Executes advisor-recommended consistency transitions live."""

    def __init__(self, deployment: "SwiShmemDeployment") -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        self.stats = RelevelStats()
        #: The deployment's observability spine.  Spans carry the
        #: "releveler" node, each a child of the handoff's root context;
        #: metrics share the controller's label.
        self.obs = deployment.obs
        self.causal = self.obs.clock("releveler")
        #: In-flight handoffs by group id.
        self._active: Dict[int, Handoff] = {}
        #: Requests waiting for a leader (or for the group's current
        #: handoff to finish): (spec, target, reason).
        self._queue: List[Tuple[RegisterSpec, Consistency, str]] = []
        #: Chain versions retired by demotions, so a later promotion
        #: continues the version sequence monotonically (epoch fencing
        #: on chain updates depends on versions never reusing a value).
        self._retired_versions: Dict[int, int] = {}
        #: Hooks ``listener(phase, handoff)`` fired right after a
        #: phase's commands are sent (chaos nemeses register here).
        self.phase_listeners: List[Callable[[str, Handoff], None]] = []
        #: Drain-timeout override in seconds (None = derived default).
        #: The timeout is a *backstop* against a wedged engine, not a
        #: liveness bound: in-flight SRO writes may ride long retry
        #: backoffs under loss or duplication, and fencing already
        #: stops new work, so generous is correct — member death is
        #: detected separately and rolls back immediately.
        self.drain_timeout: Optional[float] = None
        #: Completed handoffs: (group name, source, target, duration).
        self.log: List[Tuple[str, str, str, float]] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def request(
        self, spec: RegisterSpec, target: Any, reason: str = ""
    ) -> bool:
        """Ask for ``spec`` to be re-leveled to ``target``.

        Returns True when a handoff started immediately; False when the
        request was queued (no active leader, or the group is already
        mid-handoff).  Raises for transitions that cannot be executed
        safely (non-LWW EWO groups, unknown groups, no-op targets).
        """
        target = Consistency(target)
        if spec.group_id not in self.deployment.specs:
            raise ValueError(f"group {spec.name!r} is not declared here")
        if spec.ewo_mode is not EwoMode.LWW:
            self.stats.refused += 1
            raise ValueError(
                f"cannot re-level {spec.name!r}: {spec.ewo_mode.value} merge "
                f"state has no overwrite-faithful chain representation"
            )
        if target is spec.consistency and spec.group_id not in self._active:
            raise ValueError(
                f"{spec.name!r} is already {target.value}; nothing to do"
            )
        leader = self.deployment.controller.active_leader()
        if leader is None or spec.group_id in self._active:
            self.stats.deferred += 1
            self._queue.append((spec, target, reason))
            return False
        self._begin(spec, target, reason, leader)
        return True

    def apply_advice(self, advisor: "ConsistencyAdvisor") -> List[str]:
        """Act on every high-confidence mismatch the advisor reports.

        Non-LWW groups are skipped (logged via ``stats.refused``) rather
        than raised: the advisor legitimately recommends levels for
        groups this protocol cannot carry.  Returns the names of groups
        whose re-level was started or queued.
        """
        acted: List[str] = []
        for advice in advisor.mismatches():
            spec = self.deployment.specs.get(advice.group_id)
            if spec is None:
                continue
            if spec.ewo_mode is not EwoMode.LWW:
                self.stats.refused += 1
                continue
            if Consistency(advice.recommended) is spec.consistency:
                continue
            self.request(spec, advice.recommended, reason=advice.rationale)
            acted.append(spec.name)
        return acted

    def active_handoff(self, group_id: int) -> Optional[Handoff]:
        return self._active.get(group_id)

    # ------------------------------------------------------------------
    # Leader takeover
    # ------------------------------------------------------------------
    def on_leader_ready(self, leader: Any) -> None:
        """A (new) leader finished reconstruction: re-drive the current
        phase of every in-flight handoff under its epoch, then drain
        queued requests.  Every phase's commands are idempotent, so
        re-sending is always safe — including commands the dead leader
        already delivered."""
        for group_id in sorted(self._active):
            handoff = self._active[group_id]
            handoff.gen += 1
            handoff.resumes += 1
            handoff.epoch = leader.epoch
            self.stats.resumed += 1
            if self.obs.on:
                self.obs.emit(
                    "relevel.resume",
                    "releveler",
                    handoff.trace,
                    group=group_id,
                    name=handoff.spec.name,
                    phase=handoff.phase,
                )
            if handoff.phase == "drain":
                # Give the drain a fresh window: the dead leader's
                # outage ate into the old deadline.
                handoff.drain_deadline = max(
                    handoff.drain_deadline, self.sim.now + self._drain_timeout()
                )
                self._send_fences(handoff, leader)
                self._schedule_poll(handoff)
            elif handoff.phase == "switch":
                # Global structures were rewritten atomically with the
                # phase transition; only command delivery is in doubt.
                self._send_switch(handoff, leader)
                self._schedule_unfence(handoff)
            else:
                self._send_unfence(handoff, leader)
                self._schedule_finish(handoff)
        self._drain_queue()

    def reconcile_recovery(self, leader: Any, manager: "SwiShmemManager") -> None:
        """A recovered switch may have missed a re-level while failed:
        its live level disagrees with the (already rewritten) spec.
        Re-send it the switch step so it tears down the stale engine.

        A demoted group's recovered replica joins the multicast group
        with empty seed state and converges via sync gossip.  A promoted
        group's recovered replica installs the chain engine but rejoins
        the chain itself through the normal excision/readmission path.
        """
        for group_id in sorted(self.deployment.specs):
            if group_id in self._active:
                continue
            spec = self.deployment.specs[group_id]
            if manager.relevel_fence_for(group_id) is not None:
                # The switch died holding a fence from a handoff that
                # has since completed or rolled back: release it (the
                # overlay replays through whatever engine is live).
                leader._send_command(
                    manager,
                    ControllerCommand(
                        epoch=leader.epoch,
                        kind="relevel_unfence",
                        group=group_id,
                    ),
                )
            current = manager.level_of(spec)
            target = spec.consistency
            if current is target:
                continue
            if target is Consistency.EWO:
                if not self.deployment.multicast.has(group_id):
                    continue
                group = self.deployment.multicast.get(group_id)
                group.add(manager.switch.name)
                payload: Dict[str, Any] = {
                    "target": target.value,
                    "members": group.members,
                    "seed": [],
                    "stamp": Timestamp(self.sim.now, 0, 0),
                }
            elif current is Consistency.EWO:
                chain = self.deployment.chains.get(group_id)
                if chain is None:
                    continue
                payload = {"target": target.value, "chain": chain, "seed": []}
            else:
                payload = {"target": target.value}
            leader._send_command(
                manager,
                ControllerCommand(
                    epoch=leader.epoch,
                    kind="relevel_switch",
                    group=group_id,
                    payload=payload,
                ),
            )

    # ------------------------------------------------------------------
    # Phase 1: drain
    # ------------------------------------------------------------------
    def _begin(
        self, spec: RegisterSpec, target: Consistency, reason: str, leader: Any
    ) -> None:
        cluster = self.deployment.controller
        # Epoch bump (a CAS in the management config store): the fence
        # commands carry a fresh epoch, so anything in flight from a
        # deposed leader is fenced at every switch the drain touches.
        cluster.max_epoch += 1
        leader.epoch = cluster.max_epoch
        leader._seen_epoch = cluster.max_epoch
        handoff = Handoff(
            group_id=spec.group_id,
            spec=spec,
            source=spec.consistency,
            target=target,
            reason=reason,
            started_at=self.sim.now,
            epoch=leader.epoch,
        )
        handoff.trace = self.causal.root()
        handoff.drain_deadline = self.sim.now + self._drain_timeout()
        self._active[spec.group_id] = handoff
        self.stats.requested += 1
        if self.obs.on:
            self.obs.emit(
                "relevel.begin",
                "releveler",
                handoff.trace,
                group=spec.group_id,
                name=spec.name,
                source=handoff.source.value,
                target=target.value,
                epoch=handoff.epoch,
                reason=reason[:120],
            )
        self._send_fences(handoff, leader)
        self._schedule_poll(handoff)

    def _drain_timeout(self) -> float:
        if self.drain_timeout is not None:
            return self.drain_timeout
        cluster = self.deployment.controller
        return max(200 * cluster.config_latency, 40 * cluster.drain_delay)

    def _poll_period(self) -> float:
        return _POLL_FACTOR * self.deployment.controller.config_latency

    def _send_fences(self, handoff: Handoff, leader: Any) -> None:
        self._broadcast(leader, "relevel_fence", handoff)
        if self.obs.on:
            self.obs.emit(
                "relevel.drain",
                "releveler",
                handoff.trace,
                group=handoff.group_id,
                name=handoff.spec.name,
                epoch=handoff.epoch,
            )
        self._notify("drain", handoff)

    def _schedule_poll(self, handoff: Handoff) -> None:
        self.sim.schedule(
            self._poll_period(),
            self._poll_drain,
            handoff.group_id,
            handoff.gen,
            label="relevel:poll-drain",
        )

    def _poll_drain(self, group_id: int, gen: int) -> None:
        handoff = self._active.get(group_id)
        if handoff is None or handoff.gen != gen or handoff.phase != "drain":
            return
        leader = self.deployment.controller.active_leader()
        if leader is None:
            # Leaderless: freeze here; on_leader_ready re-drives drain
            # under the successor (with a new gen).
            return
        members = self._live_members(group_id)
        if self._member_lost(handoff):
            self._rollback(handoff, leader, "member-died-mid-drain")
            return
        if self.sim.now > handoff.drain_deadline:
            self._rollback(handoff, leader, "drain-timeout")
            return
        if self._drained(handoff, members):
            self._do_switch(handoff, leader)
            return
        self._schedule_poll(handoff)

    def _live_members(self, group_id: int) -> List["SwiShmemManager"]:
        """Live managers still running an engine for the group."""
        return [
            manager
            for manager in self.deployment.managers.values()
            if not manager.switch.failed
            and (
                group_id in manager.sro.groups or group_id in manager.ewo.groups
            )
        ]

    def _member_lost(self, handoff: Handoff) -> bool:
        """Did a replica holding the group fail since the drain began?

        For an SRO/ERO source, ask the chain descriptor; for EWO, the
        multicast group.  Failover trims failed members from both, but
        only after detection — mid-drain we must notice immediately, or
        the drained snapshot could silently exclude committed writes
        (SRO) that only the dead head had sequenced.
        """
        group_id = handoff.group_id
        if handoff.source is Consistency.EWO:
            if not self.deployment.multicast.has(group_id):
                return True
            names = self.deployment.multicast.get(group_id).members
        else:
            chain = self.deployment.chains.get(group_id)
            if chain is None:
                return True
            names = chain.members
        return any(
            self.deployment.managers[name].switch.failed for name in names
        )

    def _drained(self, handoff: Handoff, members: List["SwiShmemManager"]) -> bool:
        group_id = handoff.group_id
        fenced = all(
            manager.relevel_fence_for(group_id) is not None for manager in members
        )
        if not fenced:
            handoff.fenced_all_at = None
            return False
        if handoff.fenced_all_at is None:
            handoff.fenced_all_at = self.sim.now
        if handoff.source is Consistency.EWO:
            # Fences flushed the queues; wait the settle window so
            # in-flight broadcast/sync packets land everywhere.
            settle = self.deployment.controller.drain_delay
            return self.sim.now >= handoff.fenced_all_at + settle
        return all(manager.sro.quiesced(group_id) for manager in members)

    # ------------------------------------------------------------------
    # Phase 2: switch
    # ------------------------------------------------------------------
    def _do_switch(self, handoff: Handoff, leader: Any) -> None:
        """Atomically (single sim event, no yields) rewrite the global
        structures, build the idempotent per-switch payload, and command
        the engine swap."""
        deployment = self.deployment
        group_id = handoff.group_id
        spec = handoff.spec
        target = handoff.target
        if target is Consistency.EWO:
            # Demotion: snapshot the head's drained store — the chain's
            # authoritative value — then retire the chain and stand up
            # the broadcast fan-out over the surviving members.
            chain = deployment.chains.pop(group_id)
            self._retired_versions[group_id] = chain.version
            members = [
                name
                for name in chain.members
                if not deployment.managers[name].switch.failed
            ]
            head_mgr = deployment.managers[chain.head]
            seed = [
                (key, value)
                for key, value, _slot, _seq in head_mgr.sro.snapshot(group_id)
            ]
            if not deployment.multicast.has(group_id):
                deployment.multicast.create(group_id, members=members)
            handoff.switch_payload = {
                "target": target.value,
                "members": members,
                "seed": seed,
                "stamp": Timestamp(self.sim.now, 0, 0),
            }
        elif handoff.source is Consistency.EWO:
            # Promotion: merge every live replica's cells — the group's
            # convergent value — then delete the fan-out and install a
            # chain whose version continues past anything the group has
            # ever seen.
            members = [
                name
                for name in deployment.multicast.get(group_id).members
                if not deployment.managers[name].switch.failed
            ]
            replicas = (
                deployment.managers[name].ewo.groups.get(group_id) for name in members
            )
            merged = merge_replicas(state for state in replicas if state is not None)
            seed = [(key, merged[key]) for key in sorted(merged, key=repr)]
            version = self._retired_versions.get(group_id, 0) + 1
            chain = ChainDescriptor(
                chain_id=group_id, members=tuple(members), version=version
            )
            deployment.multicast.delete(group_id)
            deployment.chains[group_id] = chain
            handoff.switch_payload = {
                "target": target.value,
                "chain": chain,
                "seed": seed,
            }
        else:
            # SRO <-> ERO: the chain stays; only pending-bit tracking
            # flips at every member.
            handoff.switch_payload = {"target": target.value}
        # The one place the shared spec mutates: per-switch routing went
        # through live-level maps the moment the group was declared, so
        # this rewrite only retargets *future* construction and advice.
        spec.consistency = target
        handoff.phase = "switch"
        self._send_switch(handoff, leader)
        self._schedule_unfence(handoff)

    def _send_switch(self, handoff: Handoff, leader: Any) -> None:
        self._broadcast(leader, "relevel_switch", handoff, handoff.switch_payload)
        if self.obs.on:
            self.obs.emit(
                "relevel.switch",
                "releveler",
                handoff.trace,
                group=handoff.group_id,
                name=handoff.spec.name,
                target=handoff.target.value,
                seeded=len(handoff.switch_payload.get("seed", ())),
                epoch=handoff.epoch,
            )
        self._notify("switch", handoff)

    def _schedule_unfence(self, handoff: Handoff) -> None:
        # One config latency after the switch commands: unfence commands
        # sent then arrive strictly after every switch command landed.
        self.sim.schedule(
            self.deployment.controller.config_latency,
            self._do_unfence,
            handoff.group_id,
            handoff.gen,
            label="relevel:unfence",
        )

    # ------------------------------------------------------------------
    # Phase 3: unfence
    # ------------------------------------------------------------------
    def _do_unfence(self, group_id: int, gen: int) -> None:
        handoff = self._active.get(group_id)
        if handoff is None or handoff.gen != gen:
            return
        leader = self.deployment.controller.active_leader()
        if leader is None:
            return  # on_leader_ready re-drives the switch phase
        handoff.phase = "unfence"
        self._send_unfence(handoff, leader)
        self._schedule_finish(handoff)

    def _send_unfence(self, handoff: Handoff, leader: Any) -> None:
        self._broadcast(leader, "relevel_unfence", handoff)
        if self.obs.on:
            self.obs.emit(
                "relevel.unfence",
                "releveler",
                handoff.trace,
                group=handoff.group_id,
                name=handoff.spec.name,
                epoch=handoff.epoch,
            )
        self._notify("unfence", handoff)

    def _schedule_finish(self, handoff: Handoff) -> None:
        self.sim.schedule(
            2 * self.deployment.controller.config_latency,
            self._finish,
            handoff.group_id,
            handoff.gen,
            label="relevel:finish",
        )

    def _finish(self, group_id: int, gen: int) -> None:
        handoff = self._active.get(group_id)
        if handoff is None or handoff.gen != gen or handoff.phase != "unfence":
            return
        del self._active[group_id]
        duration = self.sim.now - handoff.started_at
        self.stats.completed += 1
        self.log.append(
            (
                handoff.spec.name,
                handoff.source.value,
                handoff.target.value,
                duration,
            )
        )
        if self.obs.on:
            self.obs.emit(
                "relevel.complete",
                "releveler",
                handoff.trace,
                group=group_id,
                name=handoff.spec.name,
                source=handoff.source.value,
                target=handoff.target.value,
                duration_us=round(duration * 1e6, 3),
                resumes=handoff.resumes,
                duration=duration,
            )
        # Future advice compares against the new declared level.
        self.obs.describe_group(handoff.spec)
        self._drain_queue()

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------
    def _rollback(self, handoff: Handoff, leader: Any, why: str) -> None:
        """Abandon a drain: release the fences without switching.  The
        overlay replays through the *original* engines, so the group
        simply kept its level."""
        del self._active[handoff.group_id]
        self.stats.rollbacks += 1
        self._broadcast(leader, "relevel_unfence", handoff)
        if self.obs.on:
            self.obs.emit(
                "relevel.rollback",
                "releveler",
                handoff.trace,
                group=handoff.group_id,
                name=handoff.spec.name,
                why=why,
                source=handoff.source.value,
                target=handoff.target.value,
            )
        self._drain_queue()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _broadcast(
        self,
        leader: Any,
        kind: str,
        handoff: Handoff,
        payload: Any = None,
    ) -> int:
        sent = 0
        for name in self.deployment.switch_names:
            manager = self.deployment.managers[name]
            if manager.switch.failed:
                continue
            leader._send_command(
                manager,
                ControllerCommand(
                    epoch=handoff.epoch,
                    kind=kind,
                    group=handoff.group_id,
                    payload=payload,
                ),
            )
            sent += 1
        return sent

    def _drain_queue(self) -> None:
        while self._queue:
            leader = self.deployment.controller.active_leader()
            if leader is None:
                return
            spec, target, reason = self._queue[0]
            if spec.group_id in self._active:
                return  # still mid-handoff; _finish drains again
            self._queue.pop(0)
            if target is spec.consistency:
                continue  # a flap already took it there
            self._begin(spec, target, reason, leader)

    def _notify(self, phase: str, handoff: Handoff) -> None:
        for listener in list(self.phase_listeners):
            listener(phase, handoff)
