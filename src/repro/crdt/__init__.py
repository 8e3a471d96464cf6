"""Conflict-free replicated data types and the clock that orders them.

The CRDT substrate of the EWO engine (``repro.protocols.ewo``), which
stores one *cell* per key — a :class:`GCounter` or a
:class:`LwwRegister` — and calls the same methods on each:

* ``apply(version, value) -> bool`` — merge one wire entry; True if the
  cell advanced, ValueError if this cell type cannot carry the entry;
* ``entries()`` — full state as ``(version, value)`` wire entries, in
  wire order (what a sync round ships);
* ``read()`` — the readable value;
* ``canonical()`` — the immutable form the scrubber digests, identical
  on converged replicas; None when there is nothing to digest;
* ``repair(version, value) -> bool`` — a decided scrub repair: as
  ``apply``, except that an LWW cell also takes an equal stamp.

Two more are static, on the cell class, and work on a whole replica (an
object with ``cells``, ``new_cell()``, ``add_cell(key, cell)`` and
``clock``), so the engine moves sections rather than entries:

* ``merge_section(replica, entries, origin_slot, outcomes) -> int`` —
  merge one received section of wire entries (``key``, ``version``,
  ``value``) and return how many advanced their cell; a slotless
  entry (``version`` None) is at ``origin_slot``.  It is ``apply``
  entry by entry — an unseen key gets a cell unless the entry is one
  ``apply`` refuses — and appends ``(key, advanced)`` per entry to
  ``outcomes`` when that is a list.  A ``GCounter`` section is a max
  into each key's vector with ``apply``'s slot check and no frame per
  entry;
* ``digest(cells, keys) -> tuple`` — the sync-probe digest of those
  keys, built in C: equal on two replicas of a group exactly when the
  keys' ``entries()`` are;
* ``sync_entries(cells, keys) -> list`` — the sync answer for those
  keys: ``(key, version, value)`` for each of each key's ``entries()``,
  keys in the given order; the engine makes them wire entries.

Local updates are each type's own (``increment``, ``write``): that
pair — a local update plus a merge — is all the paper gives a register
(section 6.2).
"""

from repro.crdt.clock import HybridClock, Timestamp
from repro.crdt.gcounter import GCounter
from repro.crdt.lww import LwwRegister

__all__ = [
    "HybridClock",
    "Timestamp",
    "GCounter",
    "LwwRegister",
]
