"""Measurement probes shared by the experiments: staleness and
convergence of eventually consistent state.  (Latency distributions
and their percentiles are :class:`repro.obs.metrics.Histogram`'s job —
one definition of p99 per repository.)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

__all__ = [
    "convergence_time",
    "count_stale_reads",
    "replica_divergence",
]


def count_stale_reads(recorder, group: Optional[int] = None, key: Any = None) -> int:
    """Stale reads in a recorded history: a completed read returning a
    value older than one already returned by an earlier-completed read
    of the same (group, key).

    This is the ERO/EWO inconsistency metric (experiment P2): it counts
    user-visible time-travel, which linearizable protocols must never
    exhibit.  Values must be mutually comparable per key (the recorders
    in this repo write monotone integers in the experiments that use
    this).
    """
    floors: Dict[Any, Any] = {}
    stale = 0
    ops = sorted(
        (op for op in recorder.operations() if op.complete and op.kind == "read"),
        key=lambda op: op.completed_at,
    )
    for op in ops:
        if group is not None and op.group != group:
            continue
        if key is not None and op.key != key:
            continue
        if op.value is None:
            continue
        marker = (op.group, repr(op.key))
        floor = floors.get(marker)
        if floor is not None and op.value < floor:
            stale += 1
        else:
            floors[marker] = op.value
    return stale


def replica_divergence(states: Sequence[Dict[Any, Any]]) -> int:
    """How many keys disagree across a set of replica state dicts."""
    all_keys = set()
    for state in states:
        all_keys.update(state.keys())
    divergent = 0
    for key in all_keys:
        values = {repr(state.get(key)) for state in states}
        if len(values) > 1:
            divergent += 1
    return divergent


def convergence_time(
    sim,
    probe: Callable[[], bool],
    interval: float,
    timeout: float,
) -> Optional[float]:
    """Run the simulator until ``probe()`` is True; return elapsed time.

    Polls every ``interval`` simulated seconds; returns None if the
    probe never fires within ``timeout``.  Used by the EWO convergence
    experiments ("how long after the last write until all replicas
    agree").
    """
    start = sim.now
    deadline = start + timeout
    while sim.now < deadline:
        next_stop = min(sim.now + interval, deadline)
        sim.run(until=next_stop)
        if probe():
            return sim.now - start
    return None
