"""Adversarial channel wrapper: duplication, delay, reordering.

The network model in :mod:`repro.net.link` already drops packets (i.i.d.
loss, down links).  Real fabrics additionally *duplicate* frames
(flooding during convergence, retransmitting middleboxes) and *delay*
them unpredictably (queueing), which reorders traffic relative to later
packets.  SwiShmem's protocols claim to tolerate all of this — SRO via
sequence numbers, token dedup, and epoch fencing; EWO via idempotent
merges — so the nemesis exists to put those mechanisms under load.

A :class:`Nemesis` installs itself on every channel of a topology.  At
transmit time (after the loss decision) it may schedule extra deliveries
of a cloned packet and/or push the original's arrival later.  All
randomness comes from per-channel :class:`~repro.sim.random.SeededRng`
streams, so a chaos run is a pure function of its seed.

Only SwiShmem replication packets are touched — NF traffic is the
workload under test, not the adversary's target — and delays are
capped at ``max_delay``.  Keep ``max_delay`` under ~half the heartbeat
period if a run asserts the detection-latency bound: in-network delay
eats into the detector's slack like any real network jitter would.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple, TYPE_CHECKING

from repro.sim.random import SeededRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Channel
    from repro.net.packet import Packet
    from repro.net.topology import Topology

__all__ = ["LeaderKiller", "Nemesis"]


class Nemesis:
    """Seed-driven duplication/delay adversary for in-flight packets."""

    def __init__(
        self,
        seed: int,
        duplicate_prob: float = 0.0,
        delay_prob: float = 0.0,
        max_delay: float = 100e-6,
    ) -> None:
        if not 0.0 <= duplicate_prob <= 1.0:
            raise ValueError(f"duplicate_prob must be in [0, 1], got {duplicate_prob}")
        if not 0.0 <= delay_prob <= 1.0:
            raise ValueError(f"delay_prob must be in [0, 1], got {delay_prob}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be non-negative, got {max_delay}")
        self.rng = SeededRng(seed)
        self.duplicate_prob = duplicate_prob
        self.delay_prob = delay_prob
        self.max_delay = max_delay
        self.enabled = True
        self.packets_inspected = 0
        self.packets_duplicated = 0
        self.packets_delayed = 0
        self._streams: Dict[Tuple[str, str], random.Random] = {}

    # ------------------------------------------------------------------
    def install(self, topo: "Topology") -> "Nemesis":
        """Attach to both directions of every link in the topology."""
        for link in topo.links:
            link.ab.nemesis = self
            link.ba.nemesis = self
        return self

    def uninstall(self, topo: "Topology") -> None:
        for link in topo.links:
            if link.ab.nemesis is self:
                link.ab.nemesis = None
            if link.ba.nemesis is self:
                link.ba.nemesis = None

    # ------------------------------------------------------------------
    def _stream(self, channel: "Channel") -> random.Random:
        key = (channel.src.name, channel.dst.name)
        stream = self._streams.get(key)
        if stream is None:
            stream = self.rng.stream(f"nemesis:{key[0]}->{key[1]}")
            self._streams[key] = stream
        return stream

    def plan(self, packet: "Packet", channel: "Channel") -> Tuple[float, Tuple[float, ...]]:
        """Decide this packet's fate: (extra delay, duplicate offsets).

        Called by :meth:`Channel.transmit` after the loss decision.
        Duplicate offsets are relative to the packet's nominal arrival,
        so a duplicate can land before *or* after the original once the
        original's own delay is added — which is exactly how reordering
        between the copy and the original arises.
        """
        if not self.enabled:
            return 0.0, ()
        if packet.swishmem is None:
            return 0.0, ()
        self.packets_inspected += 1
        stream = self._stream(channel)
        duplicates: Tuple[float, ...] = ()
        if self.duplicate_prob > 0.0 and stream.random() < self.duplicate_prob:
            duplicates = (stream.uniform(0.0, self.max_delay),)
            self.packets_duplicated += 1
        extra = 0.0
        if self.delay_prob > 0.0 and stream.random() < self.delay_prob:
            extra = stream.uniform(0.0, self.max_delay)
            self.packets_delayed += 1
        return extra, duplicates

    def counters(self) -> Dict[str, int]:
        return {
            "packets_inspected": self.packets_inspected,
            "packets_duplicated": self.packets_duplicated,
            "packets_delayed": self.packets_delayed,
        }


class LeaderKiller:
    """Control-plane nemesis: crash the controller leader at the worst
    moment of a runtime re-level.

    Registers on ``deployment.releveler.phase_listeners`` and, when a
    handoff reaches the targeted phase (default ``"drain"`` — the window
    where fences are installed but the engine swap has not happened),
    crashes the replica that is currently the active leader.  The
    handoff must then stall until a successor finishes reconstruction
    and resumes it from persisted coordinator state — exactly the
    takeover path ``RelevelingCoordinator.on_leader_ready`` exists for.

    Deterministic by construction: the kill is a pure function of the
    handoff sequence (no randomness), so same-seed runs replay
    byte-identically.
    """

    def __init__(
        self,
        deployment,
        phase: str = "drain",
        kills: int = 1,
        groups: Tuple[int, ...] = (),
    ) -> None:
        self.deployment = deployment
        self.phase = phase
        self.kills_remaining = kills
        self.groups = frozenset(groups)
        #: (sim time, replica_id, group_id) per kill, for assertions.
        self.log: list = []
        deployment.releveler.phase_listeners.append(self._on_phase)

    def _on_phase(self, phase: str, handoff) -> None:
        if self.kills_remaining <= 0 or phase != self.phase:
            return
        if self.groups and handoff.group_id not in self.groups:
            return
        leader = self.deployment.controller.active_leader()
        if leader is None:
            return
        self.kills_remaining -= 1
        self.log.append((self.deployment.sim.now, leader.replica_id, handoff.group_id))
        self.deployment.controller.crash_replica(leader.replica_id)
