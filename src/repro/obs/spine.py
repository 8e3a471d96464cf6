"""The observability spine: one emit point, four subscribers.

One :class:`ObsSpine` per deployment (``deployment.obs``) owns the
metrics registry, flight recorder, access profiler and SLO monitor.
Every protocol-layer component holds the spine *by reference* and
reports a step with exactly one guarded call::

    obs = self.obs
    if obs.on:
        obs.emit("sro.chain.forward", self.switch.name, update.trace,
                 group=update.group, key=update.key, seq=update.seq,
                 next_hop=successor)

What each sink does with a kind is a row of
:data:`repro.obs.events.EVENTS`, compiled per kind and emitting node
into the instrument methods and sink handlers that step calls (and
dropped on every :meth:`attach`).  Nothing else calls a sink, so an
absent sink is ``None`` and a sink attached late
(``deployment.rebind_observability``) reaches every emitter by
construction; :meth:`attach` replays the static facts — which
instruments exist, which groups are declared, which NF owns them — to
the newcomer.

Not on the spine, deliberately: the packet-rate dataplane.  Devices
count, the registry reads — ``switch/pisa.py`` and ``net/link.py``
keep their own ``stats`` whether or not anyone watches, and the
deployment registers one source (``MetricsRegistry.add_source``) that
reports them as ``switch.*`` / ``link.*`` whenever the registry is
read, so the per-packet path holds no instrument and tests no flag.
``CausalClock`` stamping is not a sink either, but it is paid for only while watched: the
spine sets every clock recording exactly while a flight recorder is
attached (:meth:`attach`, :meth:`clock`), and an unwatched clock stamps
``None`` and allocates nothing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.causal import CausalClock
from repro.obs.events import EVENTS, Metric

__all__ = ["ObsSpine"]


class ObsSpine:
    """Dispatches protocol-step events to the attached sinks."""

    def __init__(self, sim: Any, **sinks: Any) -> None:
        self.sim = sim
        #: True while any sink is attached; the one flag emitters test.
        self.on = False
        self.metrics: Any = None
        self.flight_recorder: Any = None
        self.access_profiler: Any = None
        self.slo_monitor: Any = None
        #: Causal clock per node (switch, ``ctl<n>``, ``releveler``,
        #: ``scrub``); ``child=True`` spans allocate from them.  Each
        #: records only while a flight recorder is attached.
        self.clocks: Dict[str, CausalClock] = {}
        self._scopes: List[Tuple[str, str]] = []
        self._groups: Dict[int, Any] = {}
        self._owners: Dict[int, str] = {}
        #: kind -> node -> (instrument calls, other sinks' handlers).
        self._plans: Dict[str, Dict[str, Tuple[tuple, tuple]]] = {}
        self.attach(**sinks)

    def emit(self, kind: str, node: str, ctx: Any = None, /, **fields: Any) -> None:
        """Report one protocol step at ``node``, under causal context
        ``ctx`` (``None``: the step records no span).  Call only when
        :attr:`on` is set."""
        plans = self._plans[kind]
        try:
            calls, handlers = plans[node]
        except KeyError:
            calls, handlers = plans[node] = self._plan(kind, node)
        for call, field in calls:
            if field is None:
                call()
            elif fields[field] is not None:  # no sample for this step
                call(fields[field])
        if handlers:
            now = self.sim.now
            for handle in handlers:
                handle(node, ctx, now, fields)

    def _plan(self, kind: str, node: str) -> Tuple[tuple, tuple]:
        """Compile ``kind`` for steps at ``node``, from the attached sinks."""
        event = EVENTS[kind]
        calls, handlers = [], []
        for rule in event.rules:
            if isinstance(rule, Metric) and rule.per is None:
                if self.metrics is not None:
                    calls.append((rule.resolve(self.metrics, node), rule.field))
            else:
                handler = rule.bind(self, kind, event)
                if handler is not None:
                    handlers.append(handler)
        return tuple(calls), tuple(handlers)

    def clock(self, node: str) -> CausalClock:
        """The causal clock of ``node``, created on first use."""
        clock = self.clocks.get(node)
        if clock is None:
            clock = self.clocks[node] = CausalClock(node)
            clock.recording = self.flight_recorder is not None
        return clock

    # -- static facts, replayed to sinks that attach late -----------------
    def announce(self, scope: str, label: Optional[str] = None) -> None:
        """A component that emits ``scope``'s metrics exists: create its
        instruments, labelled ``label`` (default: the scope's own name),
        so that snapshots list them before the first sample."""
        entry = (scope, label or scope)
        if entry not in self._scopes:
            self._scopes.append(entry)
            if self.metrics is not None:
                self._declare(*entry)

    def _declare(self, scope: str, label: str) -> None:
        for event in EVENTS.values():
            for rule in event.rules:
                if isinstance(rule, Metric) and rule.scope == scope:
                    rule.declare(self.metrics, label)

    def describe_group(self, spec: Any) -> None:
        """A register group was declared, or re-leveled."""
        self._groups[spec.group_id] = spec
        if self.access_profiler is not None:
            self.access_profiler.describe_group(spec)

    def note_nf(self, group_id: int, nf_name: str) -> None:
        """``nf_name`` owns ``group_id`` (the first claim wins)."""
        self._owners.setdefault(group_id, nf_name)
        if self.access_profiler is not None:
            self.access_profiler.note_nf(group_id, nf_name)

    # -- sinks --------------------------------------------------------------
    def attach(
        self,
        metrics: Any = None,
        flight_recorder: Any = None,
        access_profiler: Any = None,
        slo_monitor: Any = None,
    ) -> None:
        """Attach or replace the given sinks; ``None`` leaves one as is."""
        if metrics is not None:
            self.metrics = metrics
            for scope, label in self._scopes:
                self._declare(scope, label)
        if flight_recorder is not None:
            self.flight_recorder = flight_recorder
            for clock in self.clocks.values():
                clock.recording = True
        if access_profiler is not None:
            self.access_profiler = access_profiler
            for spec in self._groups.values():
                access_profiler.describe_group(spec)
            for group_id, nf_name in self._owners.items():
                access_profiler.note_nf(group_id, nf_name)
        if slo_monitor is not None:
            self.slo_monitor = slo_monitor
        self._plans = {kind: {} for kind in EVENTS}
        self.on = any(
            sink is not None
            for sink in (
                self.metrics, self.flight_recorder, self.access_profiler, self.slo_monitor
            )
        )
