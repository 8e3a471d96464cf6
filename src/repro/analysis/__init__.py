"""Consistency checking and measurement: histories, linearizability, metrics."""

from repro.analysis.history import HistoryRecorder, Operation
from repro.analysis.linearizability import (
    LinearizabilityReport,
    check_history,
    check_key_linearizable,
)
from repro.analysis.metrics import (
    convergence_time,
    count_stale_reads,
    replica_divergence,
)

__all__ = [
    "HistoryRecorder",
    "Operation",
    "LinearizabilityReport",
    "check_history",
    "check_key_linearizable",
    "convergence_time",
    "count_stale_reads",
    "replica_divergence",
]
