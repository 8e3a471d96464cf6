"""DDoS detector (Table 1, row 5).

"DDoS detection requires tracking the frequency of source and
destination IPs using approximate sketch data structures.  The sketches
are updated and read on every packet, triggering an alarm when the
analysis of the IP frequencies raises suspicion of the attack.
Approximate sketches have been shown to behave correctly under eventual
consistency." (paper section 4.2)

Detection method (after Lapolli et al., the paper's citation [25]):
a volumetric attack concentrates traffic on few destinations while
spreading it over many sources, so the normalized Shannon entropy of
the *destination* IP distribution collapses while *source* entropy
rises.  The detector keeps per-window frequency counts and alarms when
``H(dst) - H(src)`` drops below a threshold.

Shared state (both written on **every packet** — the canonical
write-intensive workload):
  * ``ddos_src`` — **EWO counter**: per-source packet counts;
  * ``ddos_dst`` — **EWO counter**: per-destination packet counts.

Each switch sees only its share of traffic; EWO replication merges the
per-switch counts (CRDT slot vectors), so every switch's periodic
window analysis runs against the *global* distribution — the entire
point of sharing this state.  Experiment N2 compares detection accuracy
against (a) a single omniscient switch and (b) unreplicated local-only
counts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.manager import Decision, PacketContext
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.nf.base import NetworkFunction
from repro.sim.engine import Process
from repro.sketch.countmin import ColumnMemo, row_hash
from repro.sketch.heavyhitter import normalized_entropy

__all__ = ["DdosDetectorNF"]

#: Count-min geometry for ``use_sketch=True`` (shared by all switches —
#: every replica must hash IPs to the same cells).
SKETCH_DEPTH = 3
SKETCH_WIDTH = 512
SKETCH_SEED = 0xD05
#: One 0 per row: the default of each cell an estimate reads.
_ABSENT = (0,) * SKETCH_DEPTH


def _sketch_cells(ip: Any) -> Tuple[Tuple[int, int], ...]:
    """``ip``'s count-min cell in each row: the ``(row, column)`` keys
    of the shared counter registers."""
    return tuple((row, row_hash(SKETCH_SEED, row, ip, SKETCH_WIDTH)) for row in range(SKETCH_DEPTH))


class DdosDetectorNF(NetworkFunction):
    """Entropy-based distributed DDoS detection on EWO counters."""

    NAME = "ddos"

    def __init__(self, manager, handles, *, window: float = 5e-3,
                 entropy_threshold: float = -0.2, min_packets: int = 50,
                 capacity: int = 8192, replicate: bool = True,
                 use_sketch: bool = False) -> None:
        super().__init__(manager, handles)
        self.window = window
        self.entropy_threshold = entropy_threshold
        self.min_packets = min_packets
        self.use_sketch = use_sketch
        #: sketch mode: IPs observed locally this window, the candidate
        #: sets whose counts are estimated from the shared sketch cells
        self._window_src_ips: set = set()
        self._window_dst_ips: set = set()
        #: sketch mode: repr(ip) -> ``_sketch_cells(ip)``, so an IP seen
        #: again is not hashed again (bounded like any ``ColumnMemo``)
        self._cells = ColumnMemo(_sketch_cells)
        self.src_counts = handles["ddos_src"]
        self.dst_counts = handles["ddos_dst"]
        #: Baseline for windowed diffs: key -> count at window start.
        self._src_base: Dict[Any, int] = {}
        self._dst_base: Dict[Any, int] = {}
        self.alarms: List[float] = []
        self.alarm_active = False
        self.last_score: Optional[float] = None
        self._peak_dst_count = 0
        self.suspected_victim: Optional[str] = None
        self._window_process = Process(
            manager.sim, window, self._analyze_window,
            name=f"{manager.switch.name}:ddos-window",
        ).start()

    @classmethod
    def build_specs(cls, *, window: float = 5e-3, entropy_threshold: float = -0.2,
                    min_packets: int = 50, capacity: int = 8192,
                    replicate: bool = True, use_sketch: bool = False) -> List[RegisterSpec]:
        # ``replicate=False`` is the local-only baseline of experiment
        # N2: a batch size no workload reaches means broadcast never
        # fires, so each switch analyzes only its own traffic share.
        batch = 1 if replicate else 10**9
        if use_sketch:
            # the hardware-faithful representation: shared state is a
            # fixed count-min cell matrix (keys = (row, col)), so its
            # size is independent of how many IPs the traffic contains
            capacity = SKETCH_DEPTH * SKETCH_WIDTH
            key_bytes = 3  # row (1) + column (2)
        else:
            key_bytes = 4  # an IP address
        return [
            RegisterSpec(
                name="ddos_src",
                consistency=Consistency.EWO,
                ewo_mode=EwoMode.COUNTER,
                capacity=capacity,
                key_bytes=key_bytes,
                value_bytes=4,
                ewo_batch_size=batch,
            ),
            RegisterSpec(
                name="ddos_dst",
                consistency=Consistency.EWO,
                ewo_mode=EwoMode.COUNTER,
                capacity=capacity,
                key_bytes=key_bytes,
                value_bytes=4,
                ewo_batch_size=batch,
            ),
        ]

    # ------------------------------------------------------------------
    def process(self, ctx: PacketContext) -> Decision:
        self.stats.processed += 1
        packet = ctx.packet
        if packet.ipv4 is None:
            return self.forward()
        if self.use_sketch:
            return self._process_sketch(packet)
        # Sketch update + read on every packet (Table 1's access pattern):
        # the per-packet frequency estimates feed the running peak, which
        # the window analysis uses to identify the victim when alarming.
        self.src_counts.increment(packet.ipv4.src)
        self.dst_counts.increment(packet.ipv4.dst)
        self.src_counts.read(packet.ipv4.src, 0)
        dst_count = self.dst_counts.read(packet.ipv4.dst, 0)
        if dst_count > self._peak_dst_count:
            self._peak_dst_count = dst_count
            self.suspected_victim = packet.ipv4.dst
        return self.forward()

    def _process_sketch(self, packet) -> Decision:
        """Count-min mode: update one cell per row for src and dst, read
        the dst estimate (min over rows) — per-packet update+read over a
        fixed-size structure, exactly the in-switch layout of section 7."""
        src, dst = packet.ipv4.src, packet.ipv4.dst
        self._window_src_ips.add(src)
        self._window_dst_ips.add(dst)
        memo = self._cells
        text = repr(src)
        src_cells = memo.get(text) or memo.fill(text, src)
        text = repr(dst)
        dst_cells = memo.get(text) or memo.fill(text, dst)
        estimate = None
        for src_cell, dst_cell in zip(src_cells, dst_cells):
            self.src_counts.increment(src_cell)
            self.dst_counts.increment(dst_cell)
            count = self.dst_counts.read(dst_cell, 0)
            if estimate is None or count < estimate:
                estimate = count
        if estimate is not None and estimate > self._peak_dst_count:
            self._peak_dst_count = estimate
            self.suspected_victim = dst
        return self.forward()

    def _sketch_estimate(self, cells: Dict[Any, int], ip: str) -> int:
        """``ip``'s count-min estimate over ``cells``: its smallest cell."""
        text = repr(ip)
        ip_cells = self._cells.get(text) or self._cells.fill(text, ip)
        return min(map(cells.get, ip_cells, _ABSENT))

    # ------------------------------------------------------------------
    # Windowed entropy analysis (control-plane periodic task)
    # ------------------------------------------------------------------
    def _window_counts(self) -> Dict[str, Dict[Any, int]]:
        """This window's increments: current merged counts minus baseline."""
        manager = self.manager
        src_now = manager.ewo.local_state(self.src_counts.spec.group_id)
        dst_now = manager.ewo.local_state(self.dst_counts.spec.group_id)
        if self.use_sketch:
            return self._window_counts_sketch(src_now, dst_now)
        src = {
            key: count - self._src_base.get(key, 0)
            for key, count in src_now.items()
            if count - self._src_base.get(key, 0) > 0
        }
        dst = {
            key: count - self._dst_base.get(key, 0)
            for key, count in dst_now.items()
            if count - self._dst_base.get(key, 0) > 0
        }
        self._src_base = src_now
        self._dst_base = dst_now
        return {"src": src, "dst": dst}

    def _window_counts_sketch(self, src_cells, dst_cells) -> Dict[str, Dict[Any, int]]:
        """Sketch mode: per-window cell deltas, queried for the locally
        observed candidate IPs.  The candidate set is per-switch memory
        (an observation cache), but the *counts* come from the globally
        merged sketch — the division of labor the sharing buys."""
        src_delta = {
            cell: count - self._src_base.get(cell, 0) for cell, count in src_cells.items()
        }
        dst_delta = {
            cell: count - self._dst_base.get(cell, 0) for cell, count in dst_cells.items()
        }
        src = {
            ip: estimate
            for ip in self._window_src_ips
            if (estimate := self._sketch_estimate(src_delta, ip)) > 0
        }
        dst = {
            ip: estimate
            for ip in self._window_dst_ips
            if (estimate := self._sketch_estimate(dst_delta, ip)) > 0
        }
        self._src_base = src_cells
        self._dst_base = dst_cells
        self._window_src_ips = set()
        self._window_dst_ips = set()
        return {"src": src, "dst": dst}

    def _analyze_window(self) -> None:
        if self.manager.switch.failed:
            self._window_process.stop()
            return
        counts = self._window_counts()
        total = sum(counts["dst"].values())
        if total < self.min_packets:
            self.alarm_active = False
            self.last_score = None
            return
        src_entropy = normalized_entropy(counts["src"])
        dst_entropy = normalized_entropy(counts["dst"])
        # Attack signature: destination entropy collapses below source
        # entropy.  score < threshold (negative) => alarm.
        score = dst_entropy - src_entropy
        self.last_score = score
        if score < self.entropy_threshold:
            if not self.alarm_active:
                self.alarms.append(self.manager.sim.now)
            self.alarm_active = True
        else:
            self.alarm_active = False

    def stop(self) -> None:
        self._window_process.stop()
