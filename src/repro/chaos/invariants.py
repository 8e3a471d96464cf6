"""Continuous invariant monitors for chaos runs.

Three monitors watch a deployment while faults are injected, each
checking one of the claims the paper makes about failure handling:

* **no-committed-write-lost** (SRO, section 6.3): once a write is acked
  to its writer, every full chain member holds it — live, the monitor
  checks per-slot applied sequence numbers; at finalization it also
  compares stored values.  Members that are failed, excised, or in
  catch-up are exempt (they are by definition not yet full members).

* **counter monotonicity** (EWO counter CRDT): the merged counter value
  — element-wise max across live replicas, summed over slots — never
  regresses.  A crash may legitimately destroy increments that were
  never gossiped (EWO trades durability for write latency), so the
  floor is re-baselined whenever the failure picture changes; any such
  loss is recorded as a note, not a violation.  Regression *without* a
  fault is a bug.

* **config consistency**: no live switch ever holds a chain descriptor
  newer than the controller's authoritative one; equal versions imply
  identical membership; and no detected-failed switch lingers in any
  chain or multicast group.

* **single leader** (controller HA): at no instant are two controller
  replicas simultaneously active — holding an unexpired lease, unfenced
  by the management partition, and willing to command switches.  The
  lease margin math (docs/PROTOCOLS.md) argues this can never happen;
  this monitor checks it empirically under crash/partition chaos.

* **divergence healed** (anti-entropy, protocols.antientropy): every
  silent divergence the chaos layer injects (``corrupt_register``,
  ``stale_replica``, ``drop_chain_applies``) logs a ``DivergenceEvent``;
  when a scrubber is running, each event must be healed within its heal
  bound (the scrubber pushes deadlines out while scrubbing is
  impossible — no leader, aborted rounds, victim down), and healed
  right: no live member may still hold the entry a corruption left
  (``DivergenceEvent.entry``).  Replicas with an outstanding event are
  exempt from the *live* lost-write check (the divergence is known and
  being healed), but the strict end-of-run value check is not relaxed:
  divergence surviving finalization is a violation no matter what.

* **writes accounted** (SRO writer side): on every switch and group,
  each write initiated has committed, failed, been abandoned (its group
  removed or its writer crashed) or is still outstanding —
  ``initiated == committed + failed + abandoned + outstanding``.  At
  finalization no live switch may still hold a write older than the
  retry horizon (``RETRY_HORIZON``: every retry it could make has
  fired), so a run that started its last write longer ago than that
  must end with nothing outstanding.

Monitors are asserted live on a periodic simulator process
(:meth:`InvariantSuite.start`) and summarized by
:meth:`InvariantSuite.finalize`, which runs the strict end-of-run
checks and returns an :class:`InvariantReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.registers import Consistency, EwoMode
from repro.obs.events import MONITORS
from repro.protocols.sro import RETRY_HORIZON
from repro.sim.engine import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemDeployment

__all__ = ["InvariantSuite", "InvariantReport", "Violation"]

_MISSING = object()


@dataclass(frozen=True)
class Violation:
    """One invariant breach, timestamped at detection."""

    at: float
    monitor: str
    detail: str
    #: Causally-ordered flight-recorder timeline for the offending
    #: register key (None when the recorder is disabled or the breach
    #: has no single key).  Excluded from ``__str__`` so violation
    #: digests are identical with and without the recorder.
    timeline: Optional[str] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"[{self.at * 1e3:8.3f} ms] {self.monitor}: {self.detail}"

    def post_mortem(self) -> str:
        """The violation plus its causal timeline, when one was captured."""
        if self.timeline is None:
            return str(self)
        return f"{self}\n{self.timeline}"


@dataclass
class InvariantReport:
    """Outcome of a monitored run."""

    checks: Dict[str, int] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    #: Non-fatal observations (e.g. counter floor re-baselined after a
    #: crash destroyed un-gossiped increments).
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def post_mortems(self) -> List[str]:
        """Human-readable explanation of every violation: the breach
        line plus — when the flight recorder was on — the causal
        timeline of the offending key's spans."""
        return [v.post_mortem() for v in self.violations]


class InvariantSuite:
    """Live + final invariant checking against one deployment."""

    def __init__(self, deployment: "SwiShmemDeployment") -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        self.report = InvariantReport(checks=dict.fromkeys(MONITORS, 0))
        #: Commit timestamps, for unavailability-window analysis.
        self.commit_times: List[float] = []
        #: (group, key) -> (slot, seq, value) of the newest committed write.
        self._commits: Dict[Tuple[int, Any], Tuple[int, int, Any]] = {}
        #: (group, slot) -> highest committed seq.
        self._slot_max: Dict[Tuple[int, int], int] = {}
        #: (group, key) -> highest merged counter value observed.
        self._counter_floor: Dict[Tuple[int, Any], Any] = {}
        self._fault_picture: Optional[Tuple] = None
        #: divergence_log indexes of the heals already checked right.
        self._heals_checked: Set[int] = set()
        self._process: Optional[Process] = None
        deployment.commit_listeners.append(self._on_commit)
        # Live telemetry mirror of report.checks / violations, so a
        # metrics snapshot can be cross-checked against the suite's
        # verdicts without holding the report object.
        self.obs = deployment.obs
        self.obs.announce("invariants")

    # ------------------------------------------------------------------
    def _on_commit(self, writer: str, spec, key: Any, ack) -> None:
        self.commit_times.append(self.sim.now)
        if self.obs.on:
            self.obs.emit("invariant.commit", "invariants")
        gid = spec.group_id
        current = self._commits.get((gid, key))
        if current is None or ack.seq >= current[1]:
            self._commits[(gid, key)] = (ack.slot, ack.seq, ack.value)
        slot_key = (gid, ack.slot)
        if ack.seq > self._slot_max.get(slot_key, 0):
            self._slot_max[slot_key] = ack.seq

    # ------------------------------------------------------------------
    def start(self, period: float = 1e-3) -> "InvariantSuite":
        self._process = Process(
            self.sim, period, self.check_now, name="chaos:invariants"
        ).start()
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    def check_now(self) -> None:
        self._check_no_lost_write()
        self._check_counters()
        self._check_config()
        self._check_single_leader()
        self._check_divergence()
        self._check_writes_accounted()

    def finalize(self) -> InvariantReport:
        """Stop live checking, run the strict end-of-run checks."""
        self.stop()
        self._check_no_lost_write(final=True)
        self._check_counters()
        self._check_config()
        self._check_single_leader()
        self._check_divergence(final=True)
        self._check_writes_accounted(final=True)
        return self.report

    # ------------------------------------------------------------------
    def _violate(
        self,
        monitor: str,
        detail: str,
        group: Optional[int] = None,
        key: Any = None,
    ) -> None:
        timeline = None
        recorder = self.obs.flight_recorder
        if recorder is not None and group is not None:
            timeline = recorder.render_timeline(group=group, key=key)
        self.report.violations.append(
            Violation(at=self.sim.now, monitor=monitor, detail=detail, timeline=timeline)
        )
        if self.obs.on:
            self.obs.emit("invariant.violation", "invariants", monitor=monitor)

    def _checked(self, monitor: str) -> None:
        self.report.checks[monitor] += 1
        if self.obs.on:
            self.obs.emit("invariant.check", "invariants", monitor=monitor)

    def _full_members(self, group_id: int):
        """Live, non-catching-up members of the group's current chain —
        the replicas obligated to hold every committed write."""
        chain = self.deployment.chains.get(group_id)
        if chain is None:
            return []
        members = []
        for name in chain.members:
            manager = self.deployment.manager(name)
            if manager.switch.failed:
                continue
            state = manager.sro.groups.get(group_id)
            if state is None or state.catching_up:
                continue
            if state.chain is not chain and state.chain != chain:
                # The controller re-configured but the epoch-fenced
                # command is still in flight (config_latency): until the
                # descriptor lands — and with it the member's catch-up
                # status — the switch is not yet obligated to it.  (The
                # installed descriptor is normally the controller's own
                # object; identity spares the equality call.)
                continue
            members.append((name, state))
        return members

    # ------------------------------------------------------------------
    # Monitor 1: no committed write lost
    # ------------------------------------------------------------------
    def _check_no_lost_write(self, final: bool = False) -> None:
        self._checked("no_lost_write")
        # With a scrubber running, replicas with a known, still-unhealed
        # injected divergence (or a frozen apply unit) lag committed
        # seqs *by design* — that is the fault, and the divergence_healed
        # monitor owns its deadline.  Without one, silent divergence is
        # exactly a lost write and stays a violation here.
        scrubbing = self.deployment.scrubber is not None
        diverged = (
            {(e.group, e.switch) for e in self.deployment.divergence_log if not e.healed}
            | {
                (gid, name)
                for name, manager in self.deployment.managers.items()
                if manager.interpose is not None
                for gid in manager.interpose.frozen_until
                if manager.interpose.frozen(gid)
            }
            if scrubbing
            else set()
        )
        for (gid, slot), seq in self._slot_max.items():
            for name, state in self._full_members(gid):
                if (gid, name) in diverged:
                    continue
                applied = state.pending.applied_seq(slot)
                if applied < seq:
                    self._violate(
                        "no_lost_write",
                        f"group {gid} slot {slot}: {name} applied seq {applied}"
                        f" < committed seq {seq}",
                        group=gid,
                    )
        if not final:
            return
        # End-of-run: the committed *values* must be present too (a
        # later committed same-slot write to another key, or an applied-
        # but-uncommitted overwrite, legitimately supersedes — detected
        # by applied_seq having moved past the committed seq).
        for (gid, key), (slot, seq, value) in self._commits.items():
            for name, state in self._full_members(gid):
                applied = state.pending.applied_seq(slot)
                if applied == seq and state.store.get(key, _MISSING) != value:
                    held = state.store.get(key, _MISSING)
                    shown = "<absent>" if held is _MISSING else repr(held)
                    self._violate(
                        "no_lost_write",
                        f"group {gid} key {key!r}: {name} holds {shown},"
                        f" committed {value!r} at seq {seq}",
                        group=gid,
                        key=key,
                    )

    # ------------------------------------------------------------------
    # Monitor 2: CRDT counter monotonicity
    # ------------------------------------------------------------------
    def _current_fault_picture(self) -> Tuple:
        controller = self.deployment.controller
        down = tuple(
            name
            for name in self.deployment.switch_names
            if self.deployment.manager(name).switch.failed
        )
        # Injected silent divergence perturbs merged counters like a
        # crash does (a corrupted slot lowers the max-merge): count the
        # log so each new event re-baselines instead of violating.
        return (
            len(controller.failures),
            len(controller.recoveries),
            down,
            len(self.deployment.divergence_log),
        )

    def _check_counters(self) -> None:
        self._checked("counter_monotonic")
        picture = self._current_fault_picture()
        rebaseline = picture != self._fault_picture
        self._fault_picture = picture
        for gid, spec in self.deployment.specs.items():
            if spec.consistency is not Consistency.EWO:
                continue
            if spec.ewo_mode is not EwoMode.COUNTER:
                continue
            merged: Dict[Any, List[int]] = {}
            for name in self.deployment.switch_names:
                manager = self.deployment.manager(name)
                if manager.switch.failed:
                    continue
                state = manager.ewo.groups.get(gid)
                if state is None:
                    continue
                for key, vector in state.canonical_items():
                    best = merged.setdefault(key, [0] * len(vector))
                    if len(best) < len(vector):
                        best.extend([0] * (len(vector) - len(best)))
                    for i, v in enumerate(vector):
                        if v > best[i]:
                            best[i] = v
            totals = {key: sum(vector) for key, vector in merged.items()}
            # A key every live replica lost entirely (e.g. sole holder
            # crashed) never shows up in the merge — still a regression.
            for floor_gid, key in self._counter_floor:
                if floor_gid == gid and key not in totals:
                    totals[key] = 0
            for key, total in totals.items():
                floor = self._counter_floor.get((gid, key), 0)
                if total < floor:
                    if rebaseline:
                        self.report.notes.append(
                            f"[{self.sim.now * 1e3:.3f} ms] counter {gid}/{key!r}"
                            f" re-baselined {floor} -> {total} after fault"
                            f" (un-gossiped increments destroyed)"
                        )
                        self._counter_floor[(gid, key)] = total
                    else:
                        self._violate(
                            "counter_monotonic",
                            f"group {gid} key {key!r}: merged value regressed"
                            f" {floor} -> {total} with no fault",
                        )
                else:
                    self._counter_floor[(gid, key)] = total

    # ------------------------------------------------------------------
    # Monitor 3: chain / multicast configuration consistency
    # ------------------------------------------------------------------
    def _check_config(self) -> None:
        self._checked("config_consistent")
        controller = self.deployment.controller
        detected_failed = set(controller._known_failed)
        for gid, chain in self.deployment.chains.items():
            for member in chain.members:
                if member in detected_failed:
                    self._violate(
                        "config_consistent",
                        f"group {gid}: detected-failed {member} still in chain",
                    )
            for name in self.deployment.switch_names:
                manager = self.deployment.manager(name)
                if manager.switch.failed:
                    continue
                state = manager.sro.groups.get(gid)
                if state is None:
                    continue
                if state.chain.version > chain.version:
                    self._violate(
                        "config_consistent",
                        f"group {gid}: {name} holds chain v{state.chain.version}"
                        f" ahead of controller v{chain.version}",
                    )
                elif (
                    state.chain.version == chain.version
                    and state.chain.members != chain.members
                ):
                    self._violate(
                        "config_consistent",
                        f"group {gid}: {name} disagrees on membership at"
                        f" v{chain.version}: {state.chain.members} vs {chain.members}",
                    )
        for gid, spec in self.deployment.specs.items():
            if spec.consistency is not Consistency.EWO:
                continue
            group = self.deployment.multicast.get(gid)
            for member in group.members:
                if member in detected_failed:
                    self._violate(
                        "config_consistent",
                        f"group {gid}: detected-failed {member} still in"
                        f" multicast group",
                    )

    # ------------------------------------------------------------------
    # Monitor 4: at most one active controller leader
    # ------------------------------------------------------------------
    def _check_single_leader(self) -> None:
        self._checked("single_leader")
        replicas = getattr(self.deployment.controller, "replicas", None)
        if not replicas:
            return
        active = [r.replica_id for r in replicas if r._is_active()]
        if len(active) > 1:
            self._violate(
                "single_leader",
                f"replicas {active} simultaneously hold an active lease",
            )

    # ------------------------------------------------------------------
    # Monitor 5: injected divergence detected and healed within bound
    # ------------------------------------------------------------------
    def _check_divergence(self, final: bool = False) -> None:
        self._checked("divergence_healed")
        scrubber = self.deployment.scrubber
        if scrubber is None:
            return  # nothing promises healing without the scrub loop
        now = self.sim.now
        for index, event in enumerate(self.deployment.divergence_log):
            if event.violated:
                continue
            if event.healed:
                # Healed means right: checked at the first tick after the
                # heal, and again at finalization.
                if final or index not in self._heals_checked:
                    self._heals_checked.add(index)
                    holders = self._holders(event)
                    if holders:
                        event.violated = True
                        self._violate(
                            "divergence_healed",
                            f"group {event.group}: {event.kind} divergence on"
                            f" {event.switch} (key {event.key!r}) healed, yet"
                            f" {','.join(holders)} still hold(s) the corrupted"
                            f" entry {event.entry!r}",
                            group=event.group,
                            key=event.key,
                        )
                continue
            deadline = (
                event.deadline
                if event.deadline is not None
                else event.at + scrubber.heal_bound
            )
            if now > deadline:
                event.violated = True
                self._violate(
                    "divergence_healed",
                    f"group {event.group}: {event.kind} divergence on"
                    f" {event.switch} (key {event.key!r}) unhealed"
                    f" {(now - event.at) * 1e3:.3f} ms after injection"
                    f" (bound {scrubber.heal_bound * 1e3:.3f} ms)",
                    group=event.group,
                    key=event.key,
                )

    def _holders(self, event: Any) -> List[str]:
        """The live switches whose digested form of the corrupted key
        still shows the entry the flip left (a counter's entry is one
        slot of the vector)."""
        if event.entry is None:
            return []
        version, value = event.entry
        spec = self.deployment.specs[event.group]
        counter = spec.consistency is Consistency.EWO and spec.ewo_mode is EwoMode.COUNTER
        holders = []
        for name in self.deployment.switch_names:
            manager = self.deployment.manager(name)
            if manager.switch.failed:
                continue
            form = dict(manager.scrub._items(event.group)).get(event.key)
            if form is not None and (
                form[version] == value if counter else form == (value, version)
            ):
                holders.append(name)
        return holders

    # ------------------------------------------------------------------
    # Monitor 6: every SRO write is accounted for
    # ------------------------------------------------------------------
    def _check_writes_accounted(self, final: bool = False) -> None:
        self._checked("writes_accounted")
        now = self.sim.now
        for name, manager in self.deployment.managers.items():
            engine = manager.sro
            outstanding: Dict[int, int] = {}
            overdue: Dict[int, int] = {}
            if engine._outstanding:
                for write in engine._outstanding.values():
                    gid = write.request.group
                    outstanding[gid] = outstanding.get(gid, 0) + 1
                    if now - write.started_at > RETRY_HORIZON:
                        overdue[gid] = overdue.get(gid, 0) + 1
            groups = engine.groups
            for gid in groups:
                stats = groups[gid].stats
                held = outstanding.get(gid, 0) if outstanding else 0
                if stats.writes_initiated != (
                    stats.writes_committed + stats.writes_failed + stats.writes_abandoned + held
                ):
                    self._violate(
                        "writes_accounted",
                        f"group {gid}: {name} initiated {stats.writes_initiated} writes,"
                        f" committed {stats.writes_committed} + failed {stats.writes_failed}"
                        f" + abandoned {stats.writes_abandoned} + outstanding {held}",
                        group=gid,
                    )
            if final and not manager.switch.failed:
                for gid, late in sorted(overdue.items()):
                    self._violate(
                        "writes_accounted",
                        f"group {gid}: {name} still holds {late} write(s) outstanding"
                        f" past the {RETRY_HORIZON * 1e3:.0f} ms retry horizon",
                        group=gid,
                    )
