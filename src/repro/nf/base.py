"""Network-function base class and shared helpers.

Every NF in this package follows the same contract so that
:meth:`repro.core.manager.SwiShmemDeployment.install_nf` can deploy it
on every switch:

* ``build_specs(**kwargs)`` (classmethod) — declare the NF's shared
  register groups.  Called once per deployment; the returned specs are
  shared by all per-switch instances.
* ``__init__(manager, handles, **kwargs)`` — one instance per switch;
  ``handles`` maps spec name -> :class:`~repro.core.registers.RegisterHandle`.
* ``process(ctx) -> Decision`` — the packet handler, written against
  the one-big-switch model: it reads/writes shared registers and never
  references the underlying topology.

NFs keep *local* (unshared) state as plain attributes — mirroring
per-switch state a P4 program would keep without SwiShmem (port pools,
window baselines) — and *shared* state exclusively in registers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.core.manager import Decision, PacketContext
from repro.core.registers import RegisterHandle, RegisterSpec
from repro.net.headers import FiveTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemManager

__all__ = ["NetworkFunction", "NfStats"]


class NfStats:
    """Packet-disposition counters common to all NFs."""

    __slots__ = ("processed", "forwarded", "dropped", "state_hits", "state_misses")

    def __init__(self) -> None:
        self.processed = 0
        self.forwarded = 0
        self.dropped = 0
        self.state_hits = 0
        self.state_misses = 0


class NetworkFunction:
    """Base class: plumbing shared by the six Table 1 NFs."""

    #: Human-readable name, for reports.
    NAME = "nf"

    def __init__(self, manager: "SwiShmemManager", handles: Dict[str, RegisterHandle], **kwargs: Any) -> None:
        self.manager = manager
        self.handles = handles
        self.stats = NfStats()
        # Attribute this NF's register groups to it, so the access
        # profiler's advisory reports can say *whose* state a group is
        # without hand-maintained tables.  The first claim wins, so this
        # is idempotent across the per-switch instances install_nf builds.
        for handle in handles.values():
            manager.obs.note_nf(handle.spec.group_id, self.NAME)

    @classmethod
    def build_specs(cls, **kwargs: Any) -> List[RegisterSpec]:
        raise NotImplementedError

    def process(self, ctx: PacketContext) -> Decision:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def flow_of(ctx: PacketContext) -> Optional[FiveTuple]:
        return ctx.packet.five_tuple()

    def forward(self, decision: Decision = None) -> Decision:
        self.stats.forwarded += 1
        return decision if decision is not None else Decision.forward()

    def drop(self) -> Decision:
        self.stats.dropped += 1
        return Decision.drop()
