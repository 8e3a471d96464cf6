"""SwiShmem register abstractions — the paper's user-facing API.

Paper section 5: "SwiShmem provides the abstraction of shared registers
to programmable switches … SwiShmem supports three types of registers
which have different semantics and are accessed through different
protocols":

* **SRO** (Strong Read Optimized) — linearizable; local reads when no
  write is in flight, tail reads otherwise; writes via chain replication
  through the control plane.
* **ERO** (Eventual Read Optimized) — SRO's write path, but reads are
  always local: bounded read latency, no pending bits, eventual
  consistency during write propagation.
* **EWO** (Eventual Write Optimized) — local reads and writes, with
  asynchronous broadcast plus periodic synchronization; last-writer-wins
  or CRDT-counter merge semantics.

A :class:`RegisterSpec` declares a register *group* (a keyed collection
sharing one protocol configuration — the unit the deployment replicates).
NF code receives :class:`RegisterHandle` objects bound to the local
switch and calls :meth:`~RegisterHandle.read`,
:meth:`~RegisterHandle.write`, or :meth:`~RegisterHandle.increment`
without knowing which switch it runs on — the "one big switch" facade.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemManager

__all__ = [
    "Consistency",
    "DigestTree",
    "EwoMode",
    "FetchAdd",
    "RegisterSpec",
    "RegisterHandle",
    "ReadForwarded",
    "WriteError",
]


class Consistency(enum.Enum):
    """The three register types of paper section 5."""

    SRO = "sro"
    ERO = "ero"
    EWO = "ewo"


class EwoMode(enum.Enum):
    """Merge semantics for EWO groups (paper section 6.2)."""

    #: Last-writer-wins: timestamp + switch-id tiebreak.
    LWW = "lww"
    #: CRDT counter: per-switch slot vector, element-wise max merge.
    COUNTER = "counter"
    #: Observed-remove set — the paper's open question ("whether [set
    #: CRDTs] are useful for in-switch NF applications or implementable
    #: in a switch data plane"), made concrete: per-key OR-Sets with
    #: delta replication and explicit footprint accounting.
    ORSET = "orset"


@dataclass(frozen=True)
class FetchAdd:
    """Marker value for a linearizable read-modify-write on SRO state.

    Appearing as the value in a write set, it tells the chain head to
    compute ``current + amount`` at sequencing time — the primitive an
    in-network sequencer needs (paper section 9).  The committed value
    returns on the ack and is handed to the packet's ``on_release``
    hook.
    """

    amount: int = 1


class ReadForwarded(Exception):
    """A read hit a pending slot; the packet was forwarded to the tail.

    NF handlers let this propagate: the SwiShmem manager catches it and
    terminates local processing (the tail re-executes the NF against the
    latest committed state — paper section 6.1's read path).
    """

    def __init__(self, group: int, key: Any, tail: str) -> None:
        super().__init__(f"read of group {group} key {key!r} forwarded to tail {tail}")
        self.group = group
        self.key = key
        self.tail = tail


class WriteError(RuntimeError):
    """A write could not be initiated (e.g. no chain configured)."""


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class DigestTree:
    """Incremental Merkle-style digest over one replica's register set.

    The anti-entropy scrubber (``repro.protocols.antientropy``) compares
    these trees across chain/group members to locate silently diverged
    registers without shipping full state:

    * Keys hash into one of ``buckets`` leaf buckets
      (:meth:`bucket_of`, stable across replicas).  A bucket's digest is
      the XOR of its entries' 64-bit hashes — order-independent, so two
      replicas holding the same set of (key, value) pairs produce the
      same digest regardless of insertion order, and an entry change
      updates the bucket in O(1) (XOR out the old hash, XOR in the new).
    * Internal nodes hash their two children, up to a single root.
      Comparing roots answers "identical?"; walking divergent nodes
      downward (:meth:`node`) bisects to the buckets, and
      :meth:`bucket_entries` yields per-key hashes for the final step.

    :meth:`refresh` diffs the live store against the cached entries, so
    the steady-state cost per scrub round is proportional to the number
    of *changed* keys, not the store size.  Values handed to ``refresh``
    must be immutable canonical forms (tuples, not live lists): the
    change check compares cached values by equality, which aliasing
    would defeat.
    """

    __slots__ = ("buckets", "depth", "_entries", "_tree", "_dirty", "refreshed_entries")

    def __init__(self, buckets: int = 16) -> None:
        if buckets < 1 or buckets & (buckets - 1):
            raise ValueError(f"buckets must be a power of two, got {buckets}")
        self.buckets = buckets
        #: Tree depth: level 0 is the root, level ``depth`` the buckets.
        self.depth = buckets.bit_length() - 1
        #: key -> (canonical value, entry hash)
        self._entries: Dict[Any, Tuple[Any, int]] = {}
        #: Implicit heap: _tree[1] is the root, buckets live at
        #: [buckets, 2*buckets).  Bucket digests are XOR accumulators.
        self._tree: List[int] = [0] * (2 * self.buckets)
        # Internal nodes must equal hash(children) from the start, not
        # lazily on first dirtying: otherwise two trees holding the same
        # entries can disagree purely on which sibling subtrees were
        # ever touched (e.g. after an add-then-remove), which a digest
        # comparison would misread as divergence.
        for index in range(self.buckets - 1, 0, -1):
            left, right = self._tree[2 * index], self._tree[2 * index + 1]
            self._tree[index] = _hash64(
                left.to_bytes(8, "big") + right.to_bytes(8, "big")
            )
        self._dirty: Set[int] = set()
        #: Total entries re-hashed across all refreshes (incrementality
        #: is observable: unchanged stores add zero).
        self.refreshed_entries = 0

    @staticmethod
    def entry_hash(key: Any, value: Any) -> int:
        return _hash64(repr((key, value)).encode())

    def bucket_of(self, key: Any) -> int:
        """Stable bucket index for ``key`` (identical on every replica)."""
        return _hash64(repr(key).encode()) % self.buckets

    # ------------------------------------------------------------------
    def refresh(self, items: Iterable[Tuple[Any, Any]]) -> int:
        """Bring the tree up to date with ``items``; returns changed keys."""
        changed = 0
        seen: Set[Any] = set()
        for key, value in items:
            seen.add(key)
            cached = self._entries.get(key)
            if cached is not None and cached[0] == value:
                continue
            h = self.entry_hash(key, value)
            bucket = self.bucket_of(key)
            slot = self.buckets + bucket
            if cached is not None:
                self._tree[slot] ^= cached[1]
            self._tree[slot] ^= h
            self._entries[key] = (value, h)
            self._dirty.add(bucket)
            changed += 1
        if len(seen) != len(self._entries):
            for key in [k for k in self._entries if k not in seen]:
                _, h = self._entries.pop(key)
                bucket = self.bucket_of(key)
                self._tree[self.buckets + bucket] ^= h
                self._dirty.add(bucket)
                changed += 1
        if self._dirty:
            parents = {
                i for i in ((self.buckets + b) >> 1 for b in self._dirty) if i >= 1
            }
            self._dirty.clear()
            while parents:
                for index in parents:
                    left, right = self._tree[2 * index], self._tree[2 * index + 1]
                    self._tree[index] = _hash64(
                        left.to_bytes(8, "big") + right.to_bytes(8, "big")
                    )
                parents = {i >> 1 for i in parents if i > 1}
        self.refreshed_entries += changed
        return changed

    # ------------------------------------------------------------------
    def node(self, level: int, index: int) -> int:
        """Digest of node ``index`` at ``level`` (0 = root, depth = buckets)."""
        if not 0 <= level <= self.depth:
            raise ValueError(f"level must be in [0, {self.depth}], got {level}")
        width = 1 << level
        if not 0 <= index < width:
            raise ValueError(f"index must be in [0, {width}), got {index}")
        return self._tree[width + index]

    def bucket_entries(self, bucket: int) -> List[Tuple[Any, int]]:
        """(key, entry hash) pairs currently hashed into ``bucket``."""
        return sorted(
            (
                (key, h)
                for key, (_, h) in self._entries.items()
                if self.bucket_of(key) == bucket
            ),
            key=lambda pair: repr(pair[0]),
        )

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class RegisterSpec:
    """Declaration of one shared register group.

    ``capacity`` bounds the number of live keys, and together with
    ``key_bytes``/``value_bytes`` determines the data-plane memory
    charged on every replica.  ``pending_slots`` sizes the SRO pending
    table (ignored for ERO/EWO); fewer slots than keys means shared
    pending bits (paper section 7, experiment A1).

    ``control_plane_state`` marks groups whose backing store is a P4
    *table* rather than a register: chain updates then pass through each
    member's control plane (paper section 6.1, "Otherwise, the update
    protocol is processed by the control-plane of each switch in the
    chain") — slower, but exactly what NAT/firewall/LB connection tables
    already require.
    """

    name: str
    consistency: Consistency
    capacity: int = 1024
    key_bytes: int = 8
    value_bytes: int = 8
    default: Any = None
    # SRO/ERO:
    pending_slots: Optional[int] = None
    control_plane_state: bool = False
    #: Section 9 open question, answered experimentally: buffer the
    #: output packet *in the data plane* by recirculating it until the
    #: chain ack arrives (retransmitting the write request from the data
    #:  plane after a recirculation budget), instead of parking it in
    #: control-plane DRAM.  Trades pipeline slots for CPU independence —
    #: the NetChain-style contrast of footnote 2.  Incompatible with
    #: ``control_plane_state`` (tables need the CPU anyway).
    dataplane_write_buffering: bool = False
    # EWO:
    ewo_mode: EwoMode = EwoMode.LWW
    #: Broadcast after this many local writes (1 = every write; paper
    #: section 7's batching knob, experiment A2).
    ewo_batch_size: int = 1
    #: Section 9 extension: consult the deployment's directory service
    #: for per-key replica sets instead of broadcasting to the whole
    #: group.  Requires ``SwiShmemDeployment.attach_directory``.
    partial_replication: bool = False
    #: group id, assigned by the deployment at registration time.
    group_id: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"register group {self.name!r}: capacity must be positive")
        if self.key_bytes <= 0 or self.value_bytes <= 0:
            raise ValueError(f"register group {self.name!r}: widths must be positive")
        if self.pending_slots is not None and self.pending_slots <= 0:
            raise ValueError(f"register group {self.name!r}: pending_slots must be positive")
        if self.ewo_batch_size <= 0:
            raise ValueError(f"register group {self.name!r}: batch size must be positive")
        if self.dataplane_write_buffering and self.control_plane_state:
            raise ValueError(
                f"register group {self.name!r}: data-plane write buffering is "
                "incompatible with control-plane table state"
            )

    def effective_pending_slots(self) -> int:
        """Default: one slot per key (no sharing)."""
        return self.pending_slots if self.pending_slots is not None else self.capacity


class RegisterHandle:
    """Per-switch handle to a register group.

    All methods must be called from inside a pipeline pass (an NF
    handler); the manager supplies the packet context implicitly.
    """

    def __init__(self, spec: RegisterSpec, manager: "SwiShmemManager") -> None:
        self.spec = spec
        self._manager = manager

    def read(self, key: Any, default: Any = None) -> Any:
        """Read the register for ``key``.

        SRO: raises :class:`ReadForwarded` when a write to the key's
        slot is in flight and this switch is not the tail.  ERO/EWO:
        always local, never raises.
        """
        return self._manager.register_read(self.spec, key, default)

    def write(self, key: Any, value: Any) -> None:
        """Write the register for ``key``.

        SRO/ERO: the write joins the current packet's write set; the
        output packet is buffered by the control plane until the chain
        acks (SRO semantics for externalizing output).  EWO: applied
        locally at once and broadcast asynchronously.
        """
        self._manager.register_write(self.spec, key, value)

    def increment(self, key: Any, amount: int = 1) -> int:
        """Counter increment (EWO counter mode); returns the new global value."""
        return self._manager.register_increment(self.spec, key, amount)

    def fetch_add(self, key: Any, amount: int = 1) -> None:
        """Linearizable fetch-add on an SRO register (section 9 sequencer).

        Must be called from an NF packet handler; the assigned value is
        delivered to the context's ``on_release`` hook when the chain
        commits (the data plane cannot block for it).
        """
        self._manager.register_fetch_add(self.spec, key, amount)

    def add(self, key: Any, element: Any) -> None:
        """Add an element to an OR-Set register (EWO ORSET mode)."""
        self._manager.register_set_add(self.spec, key, element)

    def discard(self, key: Any, element: Any) -> bool:
        """Remove an element from an OR-Set register (observed-remove)."""
        return self._manager.register_set_remove(self.spec, key, element)

    def contains(self, key: Any, element: Any) -> bool:
        """Membership test on an OR-Set register (local, per-packet cheap)."""
        return self._manager.register_set_contains(self.spec, key, element)

    def peek(self, key: Any, default: Any = None) -> Any:
        """Control-plane read of the local replica, bypassing the protocol.

        Used by periodic control loops (e.g. the rate limiter's window
        scan) and by tests; never forwards, never blocks.
        """
        return self._manager.register_peek(self.spec, key, default)

    def __repr__(self) -> str:
        return f"<RegisterHandle {self.spec.name} {self.spec.consistency.value}>"
