"""Deterministic, schedulable fault injection.

:class:`FaultInjector` composes the fault primitives the paper's system
model allows ("packets can be dropped, and links and switches may
fail", section 5) into schedules riding the simulator's event queue:

* ``crash`` / ``recover`` — fail-stop a switch, later bring it back
  through the controller's recovery protocol (wiped state by default);
* ``link_flap`` — administratively down one link for a while;
* ``loss_burst`` — temporarily raise the loss rate on some or all
  channels (correlated loss, unlike the i.i.d. baseline);
* ``partition`` — bipartition the topology by downing every crossing
  link, healing after a duration;
* ``crash_controller`` / ``recover_controller`` — fail-stop one
  controller replica (default: whoever leads when the fault fires),
  exercising lease expiry, standby takeover, and state reconstruction;
* ``partition_controller`` — sever one replica's management
  connectivity (to switches and to its peers) for a while: a
  partitioned leader stops hearing beacons and renewing its lease, so
  it self-fences and a connected standby takes over;
* ``corrupt_register`` — bit-flip one stored register value;
* ``stale_replica`` / ``drop_chain_applies`` — freeze a replica's apply
  unit for a while / make a chain member lose its next applies, both on
  what the switch *receives* (:class:`SwitchFaults`, in the manager's
  ``interpose`` slot: the engines hold no fault code).

Every applied fault is appended to :attr:`FaultInjector.log`, which —
together with the deployment's event counters and final state — forms
the determinism digest chaos runs compare across identical seeds.

``schedule_random`` draws a randomized-but-seeded schedule from the
injector's own named RNG streams, so two injectors with the same seed
against the same deployment plan byte-identical schedules.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.registers import Consistency, EwoMode
from repro.net.headers import SwiShmemOp
from repro.protocols.antientropy import DivergenceEvent
from repro.protocols.messages import EwoMirror
from repro.sim.random import SeededRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemDeployment, SwiShmemManager
    from repro.net.packet import Packet

__all__ = ["FaultInjector", "FaultRecord", "SwitchFaults"]


@dataclass(frozen=True)
class FaultRecord:
    """One fault as actually applied (not merely scheduled)."""

    at: float
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.at * 1e3:8.3f} ms] {self.kind}: {self.detail}"


class SwitchFaults:
    """One switch's lost-apply faults, in its manager's ``interpose``
    slot: per group a drop budget (``drop_chain_applies``), a freeze
    deadline (``stale_replica``) and the applies lost.  A lost
    ``ChainUpdate`` still cuts through (``SroEngine.relay``); a frozen
    group also loses its EWO sections and its scrub repairs (an EWO
    repair's entries count as applies, like a section's)."""

    def __init__(self, manager: "SwiShmemManager") -> None:
        self.manager = manager
        self.drop_budget: Counter = Counter()
        self.frozen_until: Dict[int, float] = {}
        self.lost: Counter = Counter()

    def frozen(self, group_id: int) -> bool:
        return self.frozen_until.get(group_id, 0.0) > self.manager.sim.now

    def _loses(self, engine: Any, group_id: int, applies: int) -> bool:
        lost = group_id in engine.groups and self.frozen(group_id)
        if lost:
            self.lost[group_id] += applies
        return lost

    def __call__(self, packet: "Packet") -> bool:
        """True when the packet was consumed here."""
        op, message, manager = packet.swishmem.op, packet.swishmem_payload, self.manager
        if op is SwiShmemOp.EWO_UPDATE or op is SwiShmemOp.EWO_SYNC:
            sections = message.sections
            kept = tuple(s for s in sections if not self._loses(manager.ewo, s[0], len(s[1])))
            if kept and len(kept) < len(sections):  # the rest go on, same origin and trace
                manager.ewo.handle_update(
                    EwoMirror(message.origin, kept, trace=message.trace),
                    op is SwiShmemOp.EWO_SYNC,
                )
            return len(kept) < len(sections)
        if op is SwiShmemOp.SCRUB_REPAIR:
            engine = manager.ewo if message.entries else manager.sro
            if self._loses(engine, message.group, len(message.entries) or 1):
                # Parsed like any repair, so its receive span is derived (span
                # ids stay those of the apply path); then the apply unit loses it.
                manager.causal.child(message.trace)
                return True
        if op is not SwiShmemOp.CHAIN_UPDATE:
            return False
        group_id = message.group
        # A frozen window logs its one "stale" divergence at the thaw.
        if not self._loses(manager.sro, group_id, 1):
            if group_id not in manager.sro.groups or not self.drop_budget[group_id]:
                return False
            self.drop_budget[group_id] -= 1
            self.lost[group_id] += 1
            name = manager.switch.name
            manager.deployment.divergence_log.append(DivergenceEvent(
                group=group_id, switch=name, kind="apply-drop", key=message.key,
                at=manager.sim.now, detail=f"{name} dropped seq {message.seq}",
            ))
        manager.sro.relay(message)
        return True


class FaultInjector:
    """Schedulable, seed-driven fault composition for one deployment."""

    def __init__(self, deployment: "SwiShmemDeployment", seed: int = 0) -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        self.rng = SeededRng(seed)
        self.log: List[FaultRecord] = []
        # Overlapping loss bursts: per-channel true pre-burst rate and
        # the stack of active burst rates (effective = max of all).
        self._burst_base: Dict[object, float] = {}
        self._burst_active: Dict[object, List[float]] = {}

    def _record(self, kind: str, detail: str) -> None:
        self.log.append(FaultRecord(at=self.sim.now, kind=kind, detail=detail))

    # ------------------------------------------------------------------
    # Switch crash / recovery
    # ------------------------------------------------------------------
    def crash(self, at: float, name: str) -> None:
        self.sim.schedule_at(at, self._crash, name, label="chaos:crash")

    def _crash(self, name: str) -> None:
        if self.deployment.manager(name).switch.failed:
            return  # already down; crashing twice is a no-op
        self.deployment.controller.note_failure_time(name)
        self.deployment.fail_switch(name)
        self._record("crash", name)

    def recover(self, at: float, name: str, wipe_state: bool = True) -> None:
        self.sim.schedule_at(at, self._recover, name, wipe_state, label="chaos:recover")

    def _recover(self, name: str, wipe_state: bool) -> None:
        if not self.deployment.manager(name).switch.failed:
            return  # came back some other way (or never crashed)
        self.deployment.controller.recover_switch(name, wipe_state=wipe_state)
        self._record("recover", f"{name} (wipe={wipe_state})")

    def crash_recover(
        self, at: float, name: str, down_for: float, wipe_state: bool = True
    ) -> None:
        self.crash(at, name)
        self.recover(at + down_for, name, wipe_state=wipe_state)

    # ------------------------------------------------------------------
    # Silent data-plane corruption
    # ------------------------------------------------------------------
    def drop_chain_applies(self, at: float, name: str, group_id: int, count: int = 1) -> None:
        """Make ``name`` lose the next ``count`` chain updates it receives
        in ``group_id``: each cuts through un-applied, so the tail still
        commits while the victim's store develops a gap — the lost chain
        hop the flight recorder's post-mortem is built to explain."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        faults = self._install(name, group_id, chain_only=True)
        self.sim.schedule_at(
            at, self._drop_chain_applies, faults, group_id, count, label="chaos:drop-applies"
        )

    def _install(self, name: str, group_id: int, chain_only: bool) -> SwitchFaults:
        """``name``'s :class:`SwitchFaults`, installed on first use; a
        ValueError unless it replicates ``group_id`` (as a chain group)."""
        manager = self.deployment.managers.get(name)
        engines = () if manager is None else (
            (manager.sro,) if chain_only else (manager.sro, manager.ewo)
        )
        if not any(group_id in engine.groups for engine in engines):
            raise ValueError(f"{name} does not replicate {'chain ' * chain_only}group {group_id}")
        if manager.interpose is None:
            manager.interpose = SwitchFaults(manager)
        return manager.interpose

    def lost_applies(self) -> Dict[Tuple[str, int], int]:
        """Applies lost so far to ``drop_chain_applies`` and
        ``stale_replica``, per (switch, group)."""
        return {
            (name, group_id): lost
            for name, manager in sorted(self.deployment.managers.items())
            if manager.interpose is not None
            for group_id, lost in sorted(manager.interpose.lost.items())
        }

    def _drop_chain_applies(self, faults: SwitchFaults, group_id: int, count: int) -> None:
        faults.drop_budget[group_id] += count
        self._record("drop-applies", f"{faults.manager.switch.name} group {group_id} x{count}")

    def corrupt_register(
        self, at: float, name: str, group_id: int, key: Any = None
    ) -> None:
        """Bit-flip one stored register value on ``name`` at ``at``.

        The silent-divergence fault the anti-entropy scrubber exists
        for: no crash, no drop, no detector signal — the replica simply
        holds the wrong value.  ``key=None`` picks a live key from the
        seeded ``corrupt`` stream at fire time.  SRO values flip a low
        bit (sequence numbers stay intact, so only the scrubber can
        notice); EWO counters lose the top bit of a peer slot (the true,
        higher value wins the eventual max-merge); LWW cells flip the
        value under an unchanged version stamp — a conflict gossip leaves
        alone, for the scrubber's vote.  Every applied corruption logs a
        :class:`DivergenceEvent`, with the entry the flip left, for the
        invariant suite to track to detection and a heal that is right.
        """
        self.sim.schedule_at(
            at, self._corrupt_register, name, group_id, key, label="chaos:corrupt"
        )

    @staticmethod
    def _flip_value(value: Any, stream) -> Any:
        if isinstance(value, bool) or not isinstance(value, int):
            return ("corrupt", stream.randint(1, 1 << 16))
        return value ^ (1 << stream.randint(0, 7))

    def _corrupt_register(self, name: str, group_id: int, key: Any) -> None:
        manager = self.deployment.manager(name)
        if manager.switch.failed:
            self._record("corrupt-noop", f"{name} group {group_id} (down)")
            return
        spec = self.deployment.specs[group_id]
        stream = self.rng.stream("corrupt")
        detail = None
        if spec.consistency is not Consistency.EWO:
            state = manager.sro.groups[group_id]
            if key is None:
                live = sorted(state.store, key=repr)
                key = stream.choice(live) if live else None
            if key is None or key not in state.store:
                self._record("corrupt-noop", f"{name} group {group_id} (empty)")
                return
            state.store[key] = self._flip_value(state.store[key], stream)
            entry = (state.pending.applied_seq(state.pending.slot_of(key)), state.store[key])
            detail = f"{name} group {group_id} key {key!r} (sro store)"
        elif spec.ewo_mode is EwoMode.COUNTER:
            ewo = manager.ewo.groups[group_id]
            if key is None:
                live = ewo.sorted_keys()
                key = stream.choice(live) if live else None
            cell = ewo.cells.get(key) if key is not None else None
            # A bit flip lands beneath the CRDT's API: reach for the
            # GCounter's raw vector.  Corrupt a *peer* slot (never our
            # own: local increments build on the local slot, and must
            # stay truthful), and only downward — the true value re-wins
            # the max-merge.
            vector = cell._vector if cell is not None else []
            slots = [s for s, v in enumerate(vector) if v > 0 and s != ewo.my_slot]
            if not slots:
                self._record("corrupt-noop", f"{name} group {group_id} (empty)")
                return
            slot = stream.choice(slots)
            vector[slot] &= ~(1 << (vector[slot].bit_length() - 1))
            entry = (slot, vector[slot])
            detail = f"{name} group {group_id} key {key!r} slot {slot} (counter)"
        else:  # an LWW group
            ewo = manager.ewo.groups[group_id]
            if key is None:
                live = [k for k in ewo.sorted_keys() if ewo.cells[k].written]
                key = stream.choice(live) if live else None
            cell = ewo.cells.get(key) if key is not None else None
            if cell is None or not cell.written:
                self._record("corrupt-noop", f"{name} group {group_id} (empty)")
                return
            cell._value = self._flip_value(cell._value, stream)
            (entry,) = cell.entries()
            detail = f"{name} group {group_id} key {key!r} (lww)"
        self.deployment.divergence_log.append(
            DivergenceEvent(
                group=group_id, switch=name, kind="corrupt", key=key,
                at=self.sim.now, detail=detail, entry=entry,
            )
        )
        self._record("corrupt", detail)

    def stale_replica(self, at: float, name: str, group_id: int, duration: float) -> None:
        """Freeze ``name``'s apply unit for ``group_id`` for ``duration``:
        it loses every apply it receives, scrub repairs included, so it
        serves stale state while looking healthy.  The
        :class:`DivergenceEvent` is logged at the thaw, when it becomes
        repairable."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        faults = self._install(name, group_id, chain_only=False)
        self.sim.schedule_at(
            at, self._stale_replica, faults, group_id, duration, label="chaos:stale"
        )

    def _stale_replica(self, faults: SwitchFaults, group_id: int, duration: float) -> None:
        name = faults.manager.switch.name
        if faults.manager.switch.failed:
            self._record("stale-noop", f"{name} group {group_id} (down)")
            return
        until = max(faults.frozen_until.get(group_id, 0.0), self.sim.now + duration)
        faults.frozen_until[group_id] = until
        self._record("stale-replica", f"{name} group {group_id} for {duration * 1e3:.1f} ms")
        self.sim.schedule(
            duration, self._thaw_replica, faults, group_id, label="chaos:stale-thaw"
        )

    def _thaw_replica(self, faults: SwitchFaults, group_id: int) -> None:
        name = faults.manager.switch.name
        if faults.manager.switch.failed:
            return  # crash recovery resets the replica anyway
        if faults.frozen(group_id):
            return  # an overlapping freeze extended the window
        self.deployment.divergence_log.append(DivergenceEvent(
            group=group_id, switch=name, kind="stale", key=None,
            at=self.sim.now, detail=f"{name} group {group_id} thawed",
        ))
        self._record("stale-thaw", f"{name} group {group_id}")

    # ------------------------------------------------------------------
    # Controller faults (high availability, protocols.election)
    # ------------------------------------------------------------------
    def _pick_replica(self, replica: Optional[int]):
        cluster = self.deployment.controller
        if replica is None:
            target = cluster.active_leader()
            if target is None:
                return cluster, None
            replica = target.replica_id
        return cluster, replica

    def crash_controller(self, at: float, replica: Optional[int] = None) -> None:
        """Fail-stop a controller replica.  ``replica=None`` targets
        whichever replica holds the lease when the fault fires — the
        interesting case."""
        self.sim.schedule_at(
            at, self._crash_controller, replica, label="chaos:controller-crash"
        )

    def _crash_controller(self, replica: Optional[int]) -> Optional[int]:
        """Crash ``replica`` (None: the leader); the replica crashed, if any."""
        cluster, replica = self._pick_replica(replica)
        if replica is None or cluster.replicas[replica].failed:
            return None  # no active leader to kill / already down
        cluster.crash_replica(replica)
        self._record("controller-crash", f"replica {replica}")
        return replica

    def recover_controller(self, at: float, replica: int) -> None:
        self.sim.schedule_at(
            at, self._recover_controller, replica, label="chaos:controller-recover"
        )

    def _recover_controller(self, replica: int) -> None:
        cluster = self.deployment.controller
        if not cluster.replicas[replica].failed:
            return
        cluster.restore_replica(replica)
        self._record("controller-recover", f"replica {replica}")

    def crash_leader_for(self, at: float, down_for: float) -> None:
        """Crash whichever replica leads at ``at`` and restore that same
        replica ``down_for`` later.  Unlike :meth:`crash_controller` +
        :meth:`recover_controller`, the victim's identity is only known
        at fire time, so the restore is scheduled from inside the crash."""
        self.sim.schedule_at(
            at, self._crash_leader_for, down_for, label="chaos:controller-crash"
        )

    def _crash_leader_for(self, down_for: float) -> None:
        replica = self._crash_controller(None)
        if replica is not None:
            self.sim.schedule(
                down_for, self._recover_controller, replica, label="chaos:controller-recover"
            )

    def partition_controller(
        self, at: float, duration: float, replica: Optional[int] = None
    ) -> None:
        """Sever one replica's management connectivity for ``duration``.
        ``replica=None`` targets the acting leader at fire time."""
        self.sim.schedule_at(
            at,
            self._partition_controller,
            replica,
            duration,
            label="chaos:controller-partition",
        )

    def _partition_controller(self, replica: Optional[int], duration: float) -> None:
        cluster, replica = self._pick_replica(replica)
        if replica is None:
            return
        cluster.set_mgmt_partition(replica, True)
        self._record(
            "controller-partition",
            f"replica {replica} for {duration * 1e3:.1f} ms",
        )
        self.sim.schedule(
            duration, self._heal_controller, replica, label="chaos:controller-heal"
        )

    def _heal_controller(self, replica: int) -> None:
        self.deployment.controller.set_mgmt_partition(replica, False)
        self._record("controller-heal", f"replica {replica}")

    # ------------------------------------------------------------------
    # Link faults
    # ------------------------------------------------------------------
    def link_flap(self, at: float, a: str, b: str, down_for: float) -> None:
        self.sim.schedule_at(at, self._set_link, a, b, False, label="chaos:link-down")
        self.sim.schedule_at(
            at + down_for, self._set_link, a, b, True, label="chaos:link-up"
        )

    def _link(self, a: str, b: str):
        link = self.deployment.topo.link_between(a, b)
        if link is None:
            raise ValueError(f"no link between {a} and {b}")
        return link

    def _set_link(self, a: str, b: str, up: bool) -> None:
        link = self._link(a, b)
        if link.up == up:
            return
        link.set_up(up)
        self._record("link-up" if up else "link-down", f"{a}<->{b}")

    def loss_burst(
        self,
        at: float,
        duration: float,
        loss_rate: float,
        pairs: Optional[Iterable[Tuple[str, str]]] = None,
    ) -> None:
        """Raise the loss rate on the given links (default: all links)
        for ``duration``, then restore the original rates."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        pair_list = list(pairs) if pairs is not None else None
        self.sim.schedule_at(
            at, self._start_burst, pair_list, loss_rate, duration, label="chaos:loss-burst"
        )

    def _burst_links(self, pair_list):
        if pair_list is None:
            return list(self.deployment.topo.links)
        return [self._link(a, b) for a, b in pair_list]

    def _start_burst(self, pair_list, loss_rate: float, duration: float) -> None:
        """Push one burst onto each affected channel.

        Bursts may overlap: each channel keeps its true pre-burst rate
        plus a stack of active burst rates, and its effective rate is
        the max of all of them — so ending one burst while another still
        covers the channel never restores a stale intermediate rate.
        """
        links = self._burst_links(pair_list)
        channels = []
        for link in links:
            channels.extend((link.ab, link.ba))
        for channel in channels:
            if channel not in self._burst_base:
                self._burst_base[channel] = channel.loss_rate
            self._burst_active.setdefault(channel, []).append(loss_rate)
            channel.loss_rate = max(
                self._burst_base[channel], *self._burst_active[channel]
            )
        scope = "all links" if pair_list is None else f"{len(links)} links"
        self._record("loss-burst", f"{scope} at {loss_rate:.0%} for {duration * 1e3:.1f} ms")
        self.sim.schedule(
            duration, self._end_burst, channels, loss_rate, label="chaos:loss-burst-end"
        )

    def _end_burst(self, channels, loss_rate: float) -> None:
        for channel in channels:
            active = self._burst_active[channel]
            active.remove(loss_rate)
            if active:
                channel.loss_rate = max(self._burst_base[channel], *active)
            else:
                channel.loss_rate = self._burst_base.pop(channel)
                del self._burst_active[channel]
        self._record("loss-burst-end", f"{len(channels) // 2} links restored")

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(
        self,
        at: float,
        duration: float,
        side_a: Sequence[str],
        side_b: Optional[Sequence[str]] = None,
    ) -> None:
        """Bipartition the deployment: down every link crossing the cut,
        heal after ``duration``.  ``side_b`` defaults to the complement."""
        side_a = list(side_a)
        if side_b is None:
            side_b = [n for n in self.deployment.switch_names if n not in side_a]
        side_b = list(side_b)
        overlap = set(side_a) & set(side_b)
        if overlap:
            raise ValueError(f"sides overlap: {sorted(overlap)}")
        self.sim.schedule_at(
            at, self._apply_partition, side_a, side_b, duration, label="chaos:partition"
        )

    def _apply_partition(self, side_a, side_b, duration: float) -> None:
        crossing = []
        set_a, set_b = set(side_a), set(side_b)
        for link in self.deployment.topo.links:
            ends = {link.a.name, link.b.name}
            if ends & set_a and ends & set_b and link.up:
                link.set_up(False)
                crossing.append(link)
        self._record(
            "partition",
            f"{{{','.join(sorted(set_a))}}} | {{{','.join(sorted(set_b))}}}"
            f" ({len(crossing)} links) for {duration * 1e3:.1f} ms",
        )
        self.sim.schedule(duration, self._heal_partition, crossing, label="chaos:heal")

    def _heal_partition(self, crossing) -> None:
        for link in crossing:
            link.set_up(True)
        self._record("heal", f"{len(crossing)} links restored")

    # ------------------------------------------------------------------
    # Randomized-but-seeded schedules
    # ------------------------------------------------------------------
    def schedule_random(
        self,
        start: float,
        horizon: float,
        crashes: int = 1,
        flaps: int = 1,
        bursts: int = 1,
        partitions: int = 1,
        crash_downtime: Tuple[float, float] = (5e-3, 20e-3),
        flap_downtime: Tuple[float, float] = (1e-3, 5e-3),
        burst_duration: Tuple[float, float] = (2e-3, 10e-3),
        burst_loss: float = 0.05,
        partition_duration: Tuple[float, float] = (5e-3, 20e-3),
        protect: Sequence[str] = (),
        controller_crashes: int = 0,
        controller_downtime: Tuple[float, float] = (15e-3, 40e-3),
        corruptions: int = 0,
        stale_replicas: int = 0,
        stale_duration: Tuple[float, float] = (3e-3, 8e-3),
    ) -> List[str]:
        """Plan a random schedule inside ``[start, start + horizon]``.

        Victims and times come from this injector's seeded streams, so
        identical seeds plan identical schedules.  ``protect`` names
        switches exempt from crashes (e.g. a designated writer whose
        liveness an experiment's assertions require).  Crash downtime
        should comfortably exceed the controller's detection bound so
        each crash is detected before the recovery begins.

        Returns human-readable descriptions of the planned faults.
        """
        stream = self.rng.stream("schedule")
        names = [n for n in self.deployment.switch_names if n not in set(protect)]
        links = [
            (link.a.name, link.b.name) for link in self.deployment.topo.links
        ]
        planned: List[str] = []

        def when(tail_margin: float) -> float:
            span = max(horizon - tail_margin, 1e-9)
            return start + stream.random() * span

        for _ in range(crashes):
            if not names:
                break
            victim = stream.choice(names)
            down = stream.uniform(*crash_downtime)
            at = when(down)
            self.crash_recover(at, victim, down_for=down)
            planned.append(f"crash {victim} at {at * 1e3:.2f} ms for {down * 1e3:.2f} ms")
        for _ in range(flaps):
            if not links:
                break
            a, b = stream.choice(links)
            down = stream.uniform(*flap_downtime)
            at = when(down)
            self.link_flap(at, a, b, down_for=down)
            planned.append(f"flap {a}<->{b} at {at * 1e3:.2f} ms for {down * 1e3:.2f} ms")
        for _ in range(bursts):
            duration = stream.uniform(*burst_duration)
            at = when(duration)
            self.loss_burst(at, duration=duration, loss_rate=burst_loss)
            planned.append(
                f"loss burst {burst_loss:.0%} at {at * 1e3:.2f} ms"
                f" for {duration * 1e3:.2f} ms"
            )
        all_names = list(self.deployment.switch_names)
        for _ in range(partitions):
            if len(all_names) < 2:
                break
            size = stream.randint(1, len(all_names) - 1)
            side = stream.sample(all_names, size)
            duration = stream.uniform(*partition_duration)
            at = when(duration)
            self.partition(at, duration=duration, side_a=side)
            planned.append(
                f"partition {{{','.join(sorted(side))}}} at {at * 1e3:.2f} ms"
                f" for {duration * 1e3:.2f} ms"
            )
        # Controller crashes draw last, so schedules planned before this
        # knob existed (controller_crashes=0) remain byte-identical.
        n_replicas = len(self.deployment.controller.replicas)
        for _ in range(controller_crashes):
            if n_replicas < 2:
                break  # killing a solo controller just halts the run
            victim = stream.randint(0, n_replicas - 1)
            down = stream.uniform(*controller_downtime)
            at = when(down)
            self.crash_controller(at, victim)
            self.recover_controller(at + down, victim)
            planned.append(
                f"controller crash replica {victim} at {at * 1e3:.2f} ms"
                f" for {down * 1e3:.2f} ms"
            )
        # Silent-divergence faults draw after the controller draws, so
        # schedules planned before these knobs existed stay byte-identical.
        group_ids = sorted(self.deployment.specs)
        for _ in range(corruptions):
            if not names or not group_ids:
                break
            victim = stream.choice(names)
            gid = stream.choice(group_ids)
            at = when(0.0)
            self.corrupt_register(at, victim, gid)
            planned.append(
                f"corrupt {victim} group {gid} at {at * 1e3:.2f} ms"
            )
        for _ in range(stale_replicas):
            if not names or not group_ids:
                break
            victim = stream.choice(names)
            gid = stream.choice(group_ids)
            duration = stream.uniform(*stale_duration)
            at = when(duration)
            self.stale_replica(at, victim, gid, duration=duration)
            planned.append(
                f"stale {victim} group {gid} at {at * 1e3:.2f} ms"
                f" for {duration * 1e3:.2f} ms"
            )
        return planned

    # ------------------------------------------------------------------
    def log_digest(self) -> Tuple[Tuple[float, str, str], ...]:
        """Canonical form of the applied-fault log for determinism checks."""
        return tuple((r.at, r.kind, r.detail) for r in self.log)
