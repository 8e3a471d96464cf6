"""Operation-history recording.

To *prove* that SRO registers are linearizable (and to *measure* how
far ERO/EWO registers deviate), every register operation can be recorded
as an interval: invocation time, completion time, the key, and the value
written or returned.  The recorder is deployment-global, so one history
interleaves operations from all switches — which is exactly what a
consistency checker needs.

Recording conventions:

* **SRO/ERO writes** span [initiation at the writer switch, commit ack
  at the writer's control plane] — the window during which the write is
  concurrent with other operations.
* **Reads** are recorded at their response time as zero-width intervals.
  This is conservative: a point interval imposes *stronger* real-time
  constraints than the true (wider) interval, so a history that passes
  the checker with point reads is certainly linearizable with the true
  intervals.
* **EWO writes** complete locally, so they are also zero-width.  EWO
  histories are expected to fail linearizability — the experiments
  measure the violation count, not a pass/fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Operation", "HistoryRecorder"]


@dataclass
class Operation:
    """One recorded register operation."""

    op_id: int
    kind: str  # "read" | "write"
    group: int
    key: Any
    value: Any
    node: str
    invoked_at: float
    completed_at: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    def __repr__(self) -> str:
        end = f"{self.completed_at * 1e6:.1f}us" if self.complete else "?"
        return (
            f"<{self.kind} g{self.group} {self.key!r}={self.value!r} "
            f"@{self.node} [{self.invoked_at * 1e6:.1f}us,{end}]>"
        )


class HistoryRecorder:
    """Collects operations, grouped by (register group, key)."""

    def __init__(self) -> None:
        self._operations: List[Operation] = []
        self._open: Dict[Any, Operation] = {}
        #: Operation ids, numbered from 1 by each recorder: a history
        #: never depends on what else ran in the process.
        self._op_seq = itertools.count(1)

    # ------------------------------------------------------------------
    def record_instant(
        self, kind: str, group: int, key: Any, value: Any, node: str, time: float
    ) -> Operation:
        """Record a zero-width operation (reads, EWO writes)."""
        op = Operation(
            op_id=next(self._op_seq),
            kind=kind,
            group=group,
            key=key,
            value=value,
            node=node,
            invoked_at=time,
            completed_at=time,
        )
        self._operations.append(op)
        return op

    def begin(
        self, token: Any, kind: str, group: int, key: Any, value: Any, node: str, time: float
    ) -> Operation:
        """Open an interval operation, matched later by ``token``."""
        op = Operation(
            op_id=next(self._op_seq),
            kind=kind,
            group=group,
            key=key,
            value=value,
            node=node,
            invoked_at=time,
        )
        self._operations.append(op)
        self._open[token] = op
        return op

    def complete(self, token: Any, time: float) -> Optional[Operation]:
        op = self._open.pop(token, None)
        if op is not None:
            op.completed_at = time
        return op

    # ------------------------------------------------------------------
    def operations(self) -> List[Operation]:
        return list(self._operations)

    def for_key(self, group: int, key: Any) -> List[Operation]:
        return [
            op for op in self._operations if op.group == group and op.key == key
        ]

    def keys(self) -> List[Tuple[int, Any]]:
        seen = []
        seen_set = set()
        for op in self._operations:
            marker = (op.group, repr(op.key))
            if marker not in seen_set:
                seen_set.add(marker)
                seen.append((op.group, op.key))
        return seen

    def __len__(self) -> int:
        return len(self._operations)
