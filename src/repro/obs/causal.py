"""Causal trace contexts for cross-fabric message propagation.

A :class:`TraceContext` is a Dapper-style span identity plus a Lamport
timestamp.  Every protocol message (``WriteRequest``, ``ChainUpdate``,
``ControllerCommand``, ...) carries one in a zero-wire-cost ``trace``
field — like ``Packet.meta`` it is simulator-side bookkeeping, not
on-wire bytes, so stamping it never perturbs serialization delay,
event timing, or chaos-replay digests.

Identity allocation is deterministic: each node owns a
:class:`CausalClock` whose span ids are ``"<node>:<n>"`` with a
per-node counter, and whose Lamport value advances only on local
``tick`` / message ``observe``.  Two runs of the same seeded scenario
therefore produce byte-identical span trees — which is what lets the
flight recorder's output be asserted in tests rather than eyeballed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TraceContext", "CausalClock"]


@dataclass(frozen=True)
class TraceContext:
    """Identity of one causal span: which trace, which span, whose child.

    ``lamport`` is the sender's logical clock at stamp time; receivers
    fold it into their own clock (``CausalClock.observe``) so causally
    later spans always carry strictly larger Lamport values, even
    across nodes with skewed simulated wall clocks.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    lamport: int

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
    """

    def __init__(self, node: str) -> None:
        self.node = node
        self.lamport = 0
        self._spans = 0
        self._traces = 0

    # -- Lamport maintenance ------------------------------------------

    def tick(self) -> int:
        """Advance for a local event; returns the new Lamport value."""
        self.lamport += 1
        return self.lamport

    def observe(self, remote_lamport: int) -> int:
        """Fold a received message's Lamport value into the local clock."""
        self.lamport = max(self.lamport, remote_lamport) + 1
        return self.lamport

    # -- context derivation -------------------------------------------

    def _next_span_id(self) -> str:
        self._spans += 1
        return f"{self.node}:{self._spans}"

    def root(self, trace_id: Optional[str] = None) -> TraceContext:
        """Start a brand-new trace (e.g. one SRO write, one election)."""
        if trace_id is None:
            self._traces += 1
            trace_id = f"T:{self.node}:{self._traces}"
        return TraceContext(trace_id, self._next_span_id(), None, self.tick())

    def child(self, parent: TraceContext) -> TraceContext:
        """Derive the receiving-side span for a message stamped ``parent``."""
        lamport = self.observe(parent.lamport)
        return TraceContext(parent.trace_id, self._next_span_id(), parent.span_id, lamport)
