"""Causal trace contexts for cross-fabric message propagation.

A :class:`TraceContext` is a Dapper-style span identity plus a Lamport
timestamp.  Every protocol message (``WriteRequest``, ``ChainUpdate``,
``ControllerCommand``, ...) carries one in a zero-wire-cost ``trace``
field — like ``Packet.trace`` it is simulator-side bookkeeping, not
on-wire bytes, so stamping it never perturbs serialization delay,
event timing, or chaos-replay digests.

Identity allocation is deterministic: each node owns a
:class:`CausalClock` whose span ids are ``"<node>:<n>"`` with a
per-node counter, and whose Lamport value advances only on local
``tick`` / message receipt (``stamp``).  Two runs of the same seeded
scenario therefore produce byte-identical span trees — which is what
lets the flight recorder's output be asserted in tests rather than
eyeballed.

Stamping happens only while someone records: a deployment's clocks
record exactly while its ``ObsSpine`` has a flight recorder.  A clock
that is not recording derives ``None`` and counts nothing, and
``child(None)`` is ``None`` on any clock, so with no recorder every
message carries ``trace=None`` and no context is allocated.  The
decision is made where a trace is rooted and travels with it (Dapper's
sampling rule); a standalone ``CausalClock(node)`` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TraceContext", "CausalClock"]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one causal span: which trace, which span, whose child.

    ``lamport`` is the sender's logical clock at stamp time; receivers
    fold it into their own clock (``CausalClock.stamp``) so causally
    later spans always carry strictly larger Lamport values, even
    across nodes with skewed simulated wall clocks.

    Slotted: one is stamped on every protocol message, so it carries no
    per-instance ``__dict__``.  The slots are declared by hand (no field
    has a default) rather than with ``dataclass(slots=True)``, which
    needs Python 3.10.  A recorded span keeps the four fields, not the
    context (:class:`repro.obs.flightrec.FlightRecorder`).
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "lamport")

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    lamport: int

    def __reduce__(self) -> tuple:
        # ``copy`` and ``pickle`` would restore slot state by assignment,
        # which the frozen ``__setattr__`` refuses; rebuild through
        # ``__init__`` instead.
        return (TraceContext, (self.trace_id, self.span_id, self.parent_id, self.lamport))

    def __str__(self) -> str:
        parent = self.parent_id if self.parent_id is not None else "-"
        return f"{self.trace_id}/{self.span_id}<-{parent}@L{self.lamport}"


class CausalClock:
    """Per-node Lamport clock + deterministic span-id allocator.

    One instance per switch manager, controller replica and coordinator,
    handed out by the deployment's ``ObsSpine.clock(node)``.  All
    allocation is pure counter arithmetic — no RNG, no wall clock — so
    trace identity is a deterministic function of the event order the
    simulator already guarantees.

    ``recording`` is set by the spine (on while a flight recorder is
    attached); a clock that is not recording returns ``None`` from
    :meth:`root` and :meth:`child` and leaves its counters alone.
    """

    def __init__(self, node: str) -> None:
        self.node = node
        self.recording = True
        self.lamport = 0
        self._spans = 0
        self._traces = 0

    # -- Lamport maintenance ------------------------------------------

    def tick(self) -> int:
        """Advance for a local event; returns the new Lamport value."""
        self.lamport += 1
        return self.lamport

    def stamp(self, parent_lamport: int) -> int:
        """Allocate a receiving-side span under a parent stamped
        ``parent_lamport``: fold that value into the clock (the new
        :attr:`lamport` is the span's) and return the span's number; its
        id is ``f"{node}:{number}"``.

        :meth:`child`'s arithmetic without building a context or an id
        string — the flight recorder keeps the number of a ``child=True``
        span (:class:`repro.obs.events.Span`) and spells the id on read."""
        lamport = self.lamport
        self.lamport = (lamport if lamport > parent_lamport else parent_lamport) + 1
        self._spans += 1
        return self._spans

    # -- context derivation -------------------------------------------

    def root(self, trace_id: Optional[str] = None) -> Optional[TraceContext]:
        """Start a brand-new trace (e.g. one SRO write, one election);
        ``None`` while not recording."""
        if not self.recording:
            return None
        if trace_id is None:
            self._traces += 1
            trace_id = f"T:{self.node}:{self._traces}"
        self._spans += 1
        return TraceContext(trace_id, f"{self.node}:{self._spans}", None, self.tick())

    def child(self, parent: Optional[TraceContext]) -> Optional[TraceContext]:
        """Derive the receiving-side span for a message stamped ``parent``;
        ``None`` for an unstamped message or while not recording."""
        if parent is None or not self.recording:
            return None
        span_id = f"{self.node}:{self.stamp(parent.lamport)}"
        return TraceContext(parent.trace_id, span_id, parent.span_id, self.lamport)
