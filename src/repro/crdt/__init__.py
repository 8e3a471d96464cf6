"""Conflict-free replicated data types and the clock that orders them.

The CRDT substrate of the EWO engine (``repro.protocols.ewo``), which
stores one *cell* per key — a :class:`GCounter`, :class:`LwwRegister`
or :class:`ORSet` — and calls the same four methods on each:

* ``apply(version, value) -> bool`` — merge one wire entry; True if the
  cell advanced, ValueError if this cell type cannot carry the entry;
* ``entries()`` — full state as ``(version, value)`` wire entries, in
  wire order (what a sync round ships);
* ``read()`` — the readable value;
* ``canonical()`` — the immutable form the scrubber digests, identical
  on converged replicas; None when there is nothing to digest.

Local updates are each type's own (``increment``, ``write``, ``add`` /
``remove``): that pair — a local update plus a merge — is all the paper
gives a register (section 6.2).
"""

from repro.crdt.clock import HybridClock, Timestamp
from repro.crdt.gcounter import GCounter
from repro.crdt.lww import LwwRegister
from repro.crdt.orset import ORSet

__all__ = [
    "HybridClock",
    "Timestamp",
    "GCounter",
    "LwwRegister",
    "ORSet",
]
