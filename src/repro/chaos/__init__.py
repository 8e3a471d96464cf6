"""Chaos engineering harness for the SwiShmem reproduction.

The paper's robustness claims (section 6.3: "no committed write is
lost" across SRO chain repair; EWO "needs no explicit failover
protocol") are only credible under an adversarial fault model.  This
package provides one, built entirely on the deterministic simulator so
every chaos run is reproducible from its seed:

* :mod:`repro.chaos.faults` — :class:`FaultInjector`: schedulable,
  seed-driven switch crashes/recoveries, link flaps, loss bursts
  (overlap-safe), network partitions, and silent-divergence faults —
  register corruption (``corrupt_register``), frozen replicas and lost
  chain applies (``stale_replica``, ``drop_chain_applies``: a
  ``SwitchFaults`` in the manager's receive slot) — each logging a
  :class:`~repro.protocols.antientropy.DivergenceEvent` for the
  anti-entropy scrubber to detect and heal.
* :mod:`repro.chaos.nemesis` — :class:`Nemesis`: a channel wrapper that
  duplicates and delays (hence reorders) in-flight SwiShmem packets;
  :class:`LeaderKiller`: crashes the controller leader mid-phase of a
  runtime re-level to exercise the takeover-resume path.
* :mod:`repro.chaos.invariants` — :class:`InvariantSuite`: continuous
  monitors asserting no-committed-write-lost, CRDT counter
  monotonicity, chain/multicast configuration consistency, and — once
  scrubbing is on — that every divergence heals within its deadline.
"""

from repro.chaos.faults import FaultInjector, FaultRecord
from repro.chaos.invariants import InvariantReport, InvariantSuite, Violation
from repro.chaos.nemesis import LeaderKiller, Nemesis

__all__ = [
    "FaultInjector",
    "FaultRecord",
    "InvariantReport",
    "InvariantSuite",
    "LeaderKiller",
    "Nemesis",
    "Violation",
]
