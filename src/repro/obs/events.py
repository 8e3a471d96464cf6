"""The closed event vocabulary of the observability spine.

Protocol code reports each step with one ``obs.emit(kind, node, ctx,
**fields)`` (:mod:`repro.obs.spine`) and knows nothing about sinks.
:data:`EVENTS` is the one place that says, per kind, what each sink
does with the step:

* :class:`Span` — ``FlightRecorder.record`` with the listed attrs, in
  the listed order (``group`` / ``key`` are the recorder's own
  parameters and are listed like any other attr; the rest become the
  span's ``names`` / ``values`` tuples);
* :func:`Count` / :func:`Level` / :func:`Observe` — ``inc`` / ``set`` /
  ``dec`` / ``observe`` on a named instrument.  The instrument's node
  label is the emitting node (scope :data:`SWITCH`) or a fixed label
  (``controller``, ``scrub``, ``invariants``);
* :class:`Profile` — ``AccessProfiler.on_read`` /
  ``on_write`` / ``on_apply`` / ``on_merge``, which are handlers
  themselves: the spine calls the profiler's bound method directly;
* :class:`Sample` / :class:`Outcome` — ``SLOMonitor.observe`` /
  ``observe_event``.

Adding a metric, a span or a profile hook to an existing step is one
rule in its row; a new step is one row plus one ``emit`` call.
``tests/test_obs_spine.py`` fails on a kind that no call site emits, a
call site whose kind or keywords are not in the table, and a
non-literal kind.

Each rule's ``bind(spine, kind, event)`` returns a handler
``(node, ctx, now, fields) -> None`` — a closure over the attached
sink, or for :class:`Profile` the profiler's bound method — or
``None`` when that sink is absent.  The spine compiles each kind, per
emitting node, into the instrument methods its metric rules call
(``Metric.resolve``: called directly, no handler in between) plus the
handlers of its other rules, so an emit is two dict lookups plus the
sink calls that kind needs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "EVENTS",
    "Event",
    "MONITORS",
    "SWITCH",
    "Span",
    "Metric",
    "Count",
    "Level",
    "Observe",
    "Profile",
    "Sample",
    "Outcome",
]

Handler = Callable[[str, Any, float, Dict[str, Any]], None]

#: Metric scope whose node label is the emitting switch.  Every other
#: scope is a fixed node label.
SWITCH = "switch"

#: The invariant monitors of :class:`repro.chaos.InvariantSuite`; each
#: has a ``checks`` and a ``violations`` counter.
MONITORS = (
    "no_lost_write",
    "counter_monotonic",
    "config_consistent",
    "single_leader",
    "divergence_healed",
    "writes_accounted",
)


class Span:
    """Record one flight-recorder span.

    ``name`` defaults to the event kind.  ``child=True`` records the span
    as a child of the step's context, its span id and Lamport value
    allocated from the emitting node's causal clock (``CausalClock.stamp``),
    so the allocation happens only while a recorder is attached and no
    ``TraceContext`` is built for it.
    """

    def __init__(self, *attrs: str, name: Optional[str] = None, child: bool = False) -> None:
        self.fields = attrs
        self.name = name
        self.child = child
        # The span's attrs beyond group and key: one names tuple per
        # rule, shared by every span of the kind.
        self.names = tuple(a for a in attrs if a not in ("group", "key"))

    def bind(self, spine: Any, kind: str, event: "Event") -> Optional[Handler]:
        recorder = spine.flight_recorder
        if recorder is None:
            return None
        record = recorder.record
        name = self.name or kind
        child = self.child
        clocks = spine.clocks
        has_group, has_key = "group" in self.fields, "key" in self.fields
        names = self.names

        if len(names) == 1:
            # One attr: its one-value tuple is built here, not by a
            # picker call per span.
            (one,) = names

            def handle(node: str, ctx: Any, now: float, f: Dict[str, Any]) -> None:
                if ctx is None:
                    return
                record(
                    ctx, name, node, now,
                    f["group"] if has_group else None,
                    f["key"] if has_key else None,
                    names, (f[one],),
                    clocks[node] if child else None,
                )

            return handle
        pick = itemgetter(*names) if names else (lambda f: ())

        def handle(node: str, ctx: Any, now: float, f: Dict[str, Any]) -> None:
            if ctx is None:
                return
            record(
                ctx, name, node, now,
                f["group"] if has_group else None,
                f["key"] if has_key else None,
                names, pick(f),
                clocks[node] if child else None,
            )

        return handle


class Metric:
    """Apply ``op`` to one instrument; see :func:`Count`, :func:`Level`
    and :func:`Observe`.  ``field`` names the keyword holding the amount
    or value (``None``: no argument); a ``None`` value is skipped — the
    step happened, the sample does not exist.  ``per=(field, values)``
    fills the ``{}`` in ``name`` from that keyword."""

    def __init__(
        self,
        instrument: str,
        op: str,
        name: str,
        field: Optional[str] = None,
        scope: str = SWITCH,
        per: Optional[Tuple[str, Tuple[str, ...]]] = None,
    ) -> None:
        if per is not None and scope == SWITCH:
            raise ValueError("a templated metric needs a fixed node label")
        self.instrument = instrument
        self.op = op
        self.name = name
        self.field = field
        self.scope = scope
        self.per = per
        self.fields = tuple(f for f in (field, per[0] if per else None) if f)

    def resolve(self, registry: Any, node: str, variant: str = "") -> Callable:
        """The instrument method this rule calls for a step at ``node``
        (created on first use).  The spine calls it directly — no
        handler in between — with the ``field`` keyword's value."""
        label = node if self.scope == SWITCH else self.scope
        instrument = getattr(registry, self.instrument)(self.name.format(variant), label)
        return getattr(instrument, self.op)

    def declare(self, registry: Any, label: str) -> None:
        """Create the instrument(s) so that snapshots list them at zero."""
        for variant in self.per[1] if self.per else ("",):
            self.resolve(registry, label, variant)

    def bind(self, spine: Any, kind: str, event: "Event") -> Optional[Handler]:
        """Only a templated metric needs a handler: its instrument
        depends on a keyword's value."""
        registry = spine.metrics
        if registry is None or self.per is None:
            return None
        variant = self.per[0]
        return lambda node, ctx, now, f: self.resolve(registry, node, f[variant])()


def Count(name: str, by: Optional[str] = None, **where: Any) -> Metric:
    """``Counter.inc`` by one, or by keyword ``by``."""
    return Metric("counter", "inc", name, by, **where)


def Level(op: str, name: str, field: str, **where: Any) -> Metric:
    """``Gauge.set`` / ``inc`` / ``dec`` with keyword ``field``."""
    return Metric("gauge", op, name, field, **where)


def Observe(name: str, field: str, **where: Any) -> Metric:
    """``Histogram.observe`` of keyword ``field``."""
    return Metric("histogram", "observe", name, field, **where)


class Profile:
    """Feed the access profiler: ``hook`` is ``read`` (a control-plane
    peek is one too), ``write`` (keywords ``origin`` and ``op``),
    ``apply``, or ``merge`` (keyword ``outcomes``, one ``(key,
    applied)`` pair per merged entry, in entry order).

    The handler is the profiler's own bound method (``on_read``,
    ``on_write``, ``on_apply``, ``on_merge``), which takes
    the spine's handler shape ``(node, ctx, now, fields)``: a profiled
    step is one call from the spine into the profiler, and a merged
    section is one call however many entries it carries."""

    FIELDS = {
        "read": ("group", "key"),
        "write": ("group", "key", "origin", "op"),
        "apply": ("group", "key"),
        "merge": ("group", "outcomes"),
    }

    def __init__(self, hook: str) -> None:
        self.hook = hook
        self.fields = self.FIELDS[hook]

    def bind(self, spine: Any, kind: str, event: "Event") -> Optional[Handler]:
        profiler = spine.access_profiler
        if profiler is None:
            return None
        return getattr(profiler, "on_" + self.hook)


class Sample:
    """``SLOMonitor.observe(metric, fields[field], now)``."""

    def __init__(self, metric: str, field: str) -> None:
        self.metric = metric
        self.fields = (field,)

    def bind(self, spine: Any, kind: str, event: "Event") -> Optional[Handler]:
        monitor = spine.slo_monitor
        if monitor is None:
            return None
        observe, metric, field = monitor.observe, self.metric, self.fields[0]
        return lambda node, ctx, now, f: observe(metric, f[field], now)


class Outcome:
    """``SLOMonitor.observe_event(metric, ok, now)``."""

    fields: Tuple[str, ...] = ()

    def __init__(self, metric: str, ok: bool) -> None:
        self.metric = metric
        self.ok = ok

    def bind(self, spine: Any, kind: str, event: "Event") -> Optional[Handler]:
        monitor = spine.slo_monitor
        if monitor is None:
            return None
        observe_event, metric, ok = monitor.observe_event, self.metric, self.ok
        return lambda node, ctx, now, f: observe_event(metric, ok, now)


class Event:
    """One row of the table: the rules a kind feeds, in call order.
    ``fields`` is exactly the keywords a call site passes."""

    def __init__(self, *rules: Any) -> None:
        self.rules = rules
        self.fields: Tuple[str, ...] = tuple(
            dict.fromkeys(name for rule in rules for name in rule.fields)
        )


def _controller(rule: Callable[..., Metric], *args: Any) -> Metric:
    return rule(*args, scope="controller")


def _scrub(rule: Callable[..., Metric], *args: Any) -> Metric:
    return rule(*args, scope="scrub")


def _invariant(name: str) -> Metric:
    return Count(name, scope="invariants", per=("monitor", MONITORS))


EVENTS: Dict[str, Event] = {
    # -- core/manager.py: mediated register accesses, controller commands
    "state.read": Event(Count("state.reads"), Profile("read")),
    "state.peek": Event(Profile("read")),
    "state.write": Event(Count("state.writes")),
    "controller.command.fenced": Event(
        Span("group", "kind", "command_epoch", "fencing_epoch")
    ),
    "controller.command.apply": Event(Span("group", "kind", "epoch")),
    # -- protocols/sro.py: reads
    "sro.read.tail": Event(Count("sro.reads_tail")),
    "sro.read.local": Event(Count("sro.reads_local")),
    "sro.read.forward": Event(Span("group", "next_hop"), Count("sro.reads_forwarded")),
    "sro.read.chase": Event(Span("group", "next_hop")),
    "sro.read.arrive": Event(Span("group", name="sro.read.tail", child=True)),
    # -- protocols/sro.py: writer side
    "sro.write.initiate": Event(Span("group", "key", "token"), Profile("write")),
    "sro.write.send": Event(Span("group", "key", "next_hop", "attempt", "dataplane")),
    "sro.write.retry": Event(Count("sro.write_retries")),
    "sro.write.give_up": Event(
        Outcome("sro.write", False), Level("set", "sro.outstanding_writes", "outstanding")
    ),
    "sro.write.commit": Event(
        Span("group", "key", "seq", "latency_us", child=True),
        Observe("sro.write_commit_latency_seconds", "latency"),
        Level("set", "sro.outstanding_writes", "outstanding"),
        Sample("sro.write_commit", "latency"),
        Outcome("sro.write", True),
    ),
    "sro.outstanding": Event(Level("set", "sro.outstanding_writes", "outstanding")),
    # -- protocols/sro.py: chain side
    "sro.head.stale_drop": Event(Span("group", "key", "current_head")),
    "sro.head.sequence": Event(Span("group", "key", "seq", "slot", "epoch", "dedup_hit")),
    "sro.dedup": Event(
        Level("set", "sro.dedup_occupancy", "occupancy"),
        Count("sro.dedup_evictions", "evicted"),
    ),
    "sro.chain.fenced": Event(Span("group", "key", "seq", "update_epoch", "local_epoch")),
    "sro.chain.duplicate": Event(Span("group", "key", "seq", "applied")),
    "sro.chain.apply": Event(
        Span("group", "key", "seq", "slot", "tail"), Profile("apply")
    ),
    "sro.chain.catchup": Event(
        Span("group", "key", "seq", "slot", "catchup", name="sro.chain.apply"),
        Profile("apply"),
    ),
    "sro.pending.set": Event(
        Span("group", "key", "seq", "slot", child=True),
        Level("inc", "sro.pending_bits", "raised"),
    ),
    "sro.pending.clear": Event(Level("dec", "sro.pending_bits", "cleared")),
    "sro.chain.reorder_stash": Event(Span("group", "key", "seq", "applied")),
    # A full stash evicts its oldest update (span only: a counter would
    # be announced at zero into every snapshot).
    "sro.chain.reorder_overflow": Event(Span("group", "key", "seq", "capacity", child=True)),
    "sro.chain.forward": Event(Span("group", "key", "seq", "next_hop")),
    "sro.ack.emit": Event(Span("group", "key", "seq", "targets")),
    "sro.ack.deliver": Event(
        Span("group", "key", "seq", "pending_cleared", "writer"),
        Level("dec", "sro.pending_bits", "pending_cleared"),
    ),
    # -- protocols/ewo.py
    "ewo.write": Event(Profile("write")),
    "ewo.update.broadcast": Event(
        Span("group", "entries"),
        Count("ewo.update_packets"),
        Count("ewo.update_bytes", "bytes"),
    ),
    "ewo.update.send": Event(Span("group", "target", "entries")),
    "ewo.update.sent": Event(Count("ewo.update_packets"), Count("ewo.update_bytes", "bytes")),
    "ewo.merge": Event(
        Span("group", "origin", "sync", "applied", "stale", child=True),
        Count("ewo.merges_applied", "applied"),
        Count("ewo.merges_stale", "stale"),
        Profile("merge"),
    ),
    "ewo.sync.probe": Event(Span("group", "target")),
    # The probed member's outcome: it agrees (the round ends, no span:
    # most rounds agree) or answers the prober with its full state, the
    # round's span opening there.
    "ewo.sync.agree": Event(Outcome("ewo.sync_agreed", True)),
    "ewo.sync.round": Event(
        Span("group", "target", "entries"), Outcome("ewo.sync_agreed", False)
    ),
    "ewo.sync.sent": Event(Count("ewo.sync_packets"), Count("ewo.sync_bytes", "bytes")),
    # -- protocols/election.py, controller.py
    "controller.activate": Event(
        Span("epoch", "initial"), _controller(Count, "controller.leader_changes")
    ),
    "controller.lease_expired": Event(_controller(Count, "controller.lease_expiries")),
    "controller.reconstructed": Event(
        _controller(Observe, "controller.reconstruction_latency_seconds", "latency")
    ),
    "controller.reconstruct.begin": Event(Span("epoch")),
    "controller.reconstruct.answer": Event(Span("epoch")),
    "controller.reconstruct.reply": Event(Span("switch", "epoch", "groups", child=True)),
    "controller.heartbeat": Event(_controller(Count, "controller.heartbeats")),
    "controller.false_positive": Event(_controller(Count, "controller.false_positives")),
    "controller.failure.detect": Event(
        Span("switch", "false_positive", "epoch"),
        _controller(Count, "controller.failures_detected"),
        _controller(Observe, "controller.detection_latency_seconds", "latency"),
    ),
    "controller.command.send": Event(Span("group", "kind", "epoch", "target")),
    "controller.recovery.begin": Event(
        Span("switch", "wiped", "epoch"), _controller(Count, "controller.recoveries")
    ),
    "controller.recovery.readmit": Event(
        Span("switch", "readmission", "epoch", name="controller.recovery.begin"),
        _controller(Count, "controller.recoveries"),
    ),
    "controller.recovery.redrive": Event(
        Span("switch", "groups", "epoch"), _controller(Count, "controller.recoveries")
    ),
    "controller.snapshot.start": Event(Span("group", "source", "target", "attempt")),
    "controller.promote": Event(Span("group", "target", "epoch")),
    # -- protocols/failover.py
    "failover.snapshot.round": Event(Span("group", "target", "entries", "round")),
    "failover.snapshot.apply": Event(Span("group", "key", "seq", "slot")),
    "failover.transfer.complete": Event(
        Span("group", "target", "entries", "rounds", child=True)
    ),
    # -- protocols/releveling.py (spans on the "releveler" clock)
    "relevel.begin": Event(
        Span("group", "name", "source", "target", "epoch", "reason", child=True),
        _controller(Count, "relevel.requested"),
    ),
    "relevel.resume": Event(
        Span("group", "name", "phase", child=True), _controller(Count, "relevel.resumed")
    ),
    "relevel.drain": Event(Span("group", "name", "epoch", child=True)),
    "relevel.switch": Event(Span("group", "name", "target", "seeded", "epoch", child=True)),
    "relevel.unfence": Event(Span("group", "name", "epoch", child=True)),
    "relevel.complete": Event(
        Span("group", "name", "source", "target", "duration_us", "resumes", child=True),
        _controller(Count, "relevel.completed"),
        _controller(Observe, "relevel.handoff_seconds", "duration"),
    ),
    "relevel.rollback": Event(
        Span("group", "name", "why", "source", "target", child=True),
        _controller(Count, "relevel.rollbacks"),
    ),
    # -- protocols/antientropy.py: member side
    "scrub.repair.fenced": Event(
        Span("group", "key", "repair_epoch", "local_epoch"), Count("scrub.repairs_fenced")
    ),
    "scrub.repair.apply": Event(
        Span("group", "key", "seq", "source", "applied"),
        Count("scrub.repairs_applied", "applied"),
    ),
    # -- protocols/antientropy.py: coordinator (spans on the "scrub" clock)
    "scrub.round.start": Event(
        Span("group", "round", "members", "epoch", "chain_version"),
        _scrub(Count, "scrub.rounds"),
    ),
    "scrub.round.descend": Event(
        Span("group", "round", "level", "nodes", "members", child=True)
    ),
    "scrub.round.complete": Event(
        Span("group", "round", "divergent", "confirmed", child=True),
        _scrub(Count, "scrub.rounds_diverged", "diverged"),
    ),
    "scrub.round.abort": Event(
        Span("group", "round", "reason", child=True), _scrub(Count, "scrub.rounds_aborted")
    ),
    "scrub.detect": Event(
        Span("group", "switch", "kind", "key", "latency_us", child=True),
        _scrub(Observe, "scrub.detect_latency_seconds", "latency"),
    ),
    "scrub.heal": Event(
        Span("group", "switch", "kind", "key", "latency_us", child=True),
        _scrub(Observe, "scrub.heal_latency_seconds", "latency"),
    ),
    "scrub.repair.send": Event(
        Span("group", "key", "victim", "seq", "epoch"),
        _scrub(Count, "scrub.repairs_sent"),
        _scrub(Count, "scrub.repair_bytes", "bytes"),
    ),
    # -- chaos/invariants.py
    "invariant.commit": Event(Count("invariant.commits_observed", scope="invariants")),
    "invariant.check": Event(_invariant("invariant.{}.checks")),
    "invariant.violation": Event(_invariant("invariant.{}.violations")),
}
