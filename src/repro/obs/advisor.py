"""Consistency advisor: re-derive Table 1 from observed traffic.

Given a populated :class:`~repro.obs.accessprof.AccessProfiler` and the
number of data packets the hosts injected, :class:`ConsistencyAdvisor`
classifies every register group into the paper's Table 1 taxonomy and
recommends a consistency class — with **zero hand labels**: each
group's consistency *requirement* (Table 1's last column) is inferred
from observables the streaming profiler records:

* **write-per-packet** groups (writes on ~every packet) cannot afford
  chain writes — Observation 2 sends them to EWO;
* **mergeable** groups (only commutative increment/set deltas observed)
  converge under EWO merge regardless of write rate;
* **read-heavy** groups whose writes originate in the *data plane* at
  new-connection rate are flow tables: packet-path reads race the
  connection-establishing write, so they need SRO (Observation 1 makes
  the chain affordable);
* **single-writer** groups written rarely and from the *control plane*
  (rule pushes, window tasks) keep the ordered write path but need no
  pending bits — ERO.

The advisor emits one :class:`GroupAdvice` per group, a mismatch report
against the declared classes, and a ranked hot-key list (the input
ROADMAP item 1's migration machinery needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.accessprof import COMMUTATIVE_OPS, AccessProfiler, GroupProfile

__all__ = [
    "ConsistencyAdvisor",
    "GroupAdvice",
    "PER_PACKET_THRESHOLD",
    "OCCASIONAL_THRESHOLD",
]

#: Accesses-per-packet tier edges of Table 1's frequency vocabulary.
PER_PACKET_THRESHOLD = 0.4
OCCASIONAL_THRESHOLD = 0.02


@dataclass
class GroupAdvice:
    """The advisor's verdict on one register group."""

    group_id: int
    name: str
    nf: Optional[str]
    declared: str
    #: Table 1 vocabulary: "Every packet" / "New connection" / "Low".
    write_freq: str
    #: Table 1 vocabulary: "Every packet" / "Every window" / "Low".
    read_freq: str
    #: Taxonomy bucket: write-per-packet / mergeable / read-heavy /
    #: single-writer / idle.
    pattern: str
    recommended: str
    mismatch: bool
    #: "high" when enough writes were observed to judge; "low" verdicts
    #: are excluded from the mismatch report.
    confidence: str
    rationale: str
    single_writer: bool
    mergeable: bool
    shared: bool
    reads: int
    writes: int
    reads_per_packet: float
    writes_per_packet: float
    merge_conflict_rate: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "group": self.group_id,
            "name": self.name,
            "nf": self.nf,
            "declared": self.declared,
            "write_freq": self.write_freq,
            "read_freq": self.read_freq,
            "pattern": self.pattern,
            "recommended": self.recommended,
            "mismatch": self.mismatch,
            "confidence": self.confidence,
            "rationale": self.rationale,
            "single_writer": self.single_writer,
            "mergeable": self.mergeable,
            "shared": self.shared,
            "reads": self.reads,
            "writes": self.writes,
            "reads_per_packet": round(self.reads_per_packet, 6),
            "writes_per_packet": round(self.writes_per_packet, 6),
            "merge_conflict_rate": round(self.merge_conflict_rate, 6),
        }


class ConsistencyAdvisor:
    """Classify profiled register groups and recommend consistency.

    ``packets`` is the observed workload volume (data packets injected
    by the end hosts) — measurement context for the per-packet tiers,
    not a per-group label.
    """

    def __init__(
        self,
        profiler: AccessProfiler,
        packets: int,
        per_packet_threshold: float = PER_PACKET_THRESHOLD,
        occasional_threshold: float = OCCASIONAL_THRESHOLD,
    ) -> None:
        if packets < 0:
            raise ValueError("packets must be non-negative")
        self.profiler = profiler
        self.packets = packets
        self.per_packet_threshold = per_packet_threshold
        self.occasional_threshold = occasional_threshold

    # ------------------------------------------------------------------
    def advise(self) -> List[GroupAdvice]:
        return [
            self._advise_group(self.profiler.groups[group_id])
            for group_id in sorted(self.profiler.groups)
        ]

    def advice_for(self, name: str) -> GroupAdvice:
        return self._advise_group(self.profiler.group(name))

    def mismatches(self) -> List[GroupAdvice]:
        """High-confidence disagreements with the declared classes."""
        return [
            advice
            for advice in self.advise()
            if advice.mismatch and advice.confidence == "high"
        ]

    def hot_keys(self, limit: int = 10) -> List[Dict[str, Any]]:
        return self.profiler.hot_keys(limit=limit)

    def report(self, hot_keys: int = 10) -> Dict[str, Any]:
        """JSON-ready advisory report (what the dashboard renders)."""
        advice = self.advise()
        return {
            "packets": self.packets,
            "groups": [a.as_dict() for a in advice],
            "mismatches": [
                a.as_dict()
                for a in advice
                if a.mismatch and a.confidence == "high"
            ],
            "hot_keys": self.hot_keys(limit=hot_keys),
        }

    # ------------------------------------------------------------------
    def _labels(self, group: GroupProfile) -> tuple:
        """(write freq, read freq) in Table 1's vocabulary.

        Three tiers: accesses on (nearly) every packet, accesses tied to
        occasional events (new connections for writes, periodic windows
        for reads), and rare control-plane-only accesses ("Low").
        """
        writes_pp = group.writes / self.packets if self.packets else 0.0
        reads_pp = group.reads / self.packets if self.packets else 0.0
        write_freq = (
            "Every packet" if writes_pp >= self.per_packet_threshold
            else "New connection" if writes_pp >= self.occasional_threshold
            else "Low"
        )
        read_freq = (
            "Every packet" if reads_pp >= self.per_packet_threshold
            else "Every window" if reads_pp > 0.0
            else "Low"
        )
        return write_freq, read_freq, writes_pp, reads_pp

    def _advise_group(self, group: GroupProfile) -> GroupAdvice:
        write_freq, read_freq, writes_pp, reads_pp = self._labels(group)
        single_writer = group.writer_nodes <= 1
        shared = group.sharing_nodes >= 2
        mergeable = group.writes > 0 and group.commutative_write_fraction >= 1.0

        if group.writes == 0 and group.reads == 0:
            pattern, recommended = "idle", group.declared
            confidence = "low"
            rationale = "no accesses observed; keeping the declared class"
        elif write_freq == "Every packet":
            pattern, recommended = "write-per-packet", "ewo"
            confidence = "high"
            rationale = (
                f"writes on ~every packet ({writes_pp:.2f}/pkt) cannot afford "
                f"chain replication (Observation 2)"
            )
        elif mergeable:
            pattern, recommended = "mergeable", "ewo"
            confidence = "high"
            rationale = (
                "all observed writes are commutative deltas "
                f"({', '.join(sorted(set(group.ops) & COMMUTATIVE_OPS))}); "
                "EWO merge converges without ordering"
            )
        elif (
            read_freq == "Every packet"
            and write_freq != "Low"
            and group.dataplane_write_fraction > 0.5
        ):
            pattern, recommended = "read-heavy", "sro"
            confidence = "high"
            rationale = (
                f"packet-path reads ({reads_pp:.2f}/pkt) race data-plane "
                f"writes at new-connection rate ({writes_pp:.3f}/pkt); "
                "infrequent writes make the chain affordable (Observation 1)"
            )
        elif group.writes > 0:
            pattern = "single-writer" if single_writer else "read-heavy"
            recommended = "ero"
            confidence = "high"
            origin = (
                "control-plane"
                if group.writes_control >= group.writes_dataplane
                else "low-rate data-plane"
            )
            rationale = (
                f"read-dominated with {origin} writes "
                f"({writes_pp:.5f}/pkt); ordered write path suffices, "
                "pending bits buy nothing"
            )
        else:
            pattern, recommended = "read-heavy", "ero"
            confidence = "low"
            rationale = "never written during the observation; reads are safe anywhere"

        return GroupAdvice(
            group_id=group.group_id,
            name=group.name,
            nf=group.nf,
            declared=group.declared,
            write_freq=write_freq,
            read_freq=read_freq,
            pattern=pattern,
            recommended=recommended,
            mismatch=recommended != group.declared,
            confidence=confidence,
            rationale=rationale,
            single_writer=single_writer,
            mergeable=mergeable,
            shared=shared,
            reads=group.reads,
            writes=group.writes,
            reads_per_packet=reads_pp,
            writes_per_packet=writes_pp,
            merge_conflict_rate=group.merge_conflict_rate,
        )
