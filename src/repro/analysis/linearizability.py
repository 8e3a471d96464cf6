"""A Wing–Gong linearizability checker for register histories.

Checks, per (group, key), whether the recorded operation history admits
a legal sequential ordering of a read/write register that respects
real-time precedence.  The search is the classic Wing & Gong / Lowe
algorithm: repeatedly pick a *minimal* pending operation (one not
preceded by another incomplete-or-unlinearized operation), try to apply
it to the sequential register specification, and backtrack on failure.

The register specification:

* a ``write(v)`` always succeeds and sets the value;
* a ``read -> v`` is legal only when the current value equals ``v``.

Incomplete writes (crashed writers) are handled the standard way: they
may linearize at any point after invocation, or never (the checker may
skip them entirely).

Complexity is exponential in the worst case but fine for per-key
histories of the sizes our experiments record (hundreds of ops per key);
``max_steps`` bounds runaway searches and raises rather than returning a
wrong verdict.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.analysis.history import HistoryRecorder, Operation

__all__ = [
    "check_key_linearizable",
    "check_history",
    "explain_violation",
    "LinearizabilityReport",
]


class _SearchBudgetExceeded(RuntimeError):
    """The backtracking search exceeded ``max_steps``."""


def check_key_linearizable(
    operations: Sequence[Operation],
    initial: Any = None,
    max_steps: int = 2_000_000,
) -> bool:
    """Is this single-key history linearizable w.r.t. a register?

    ``operations`` may mix complete and incomplete ops; order of the
    input list is irrelevant (timestamps rule).

    The search branches only over *writes*.  Reads are handled with two
    sound register-specific rules that keep read-heavy histories (the
    common case here) tractable:

    * a minimal read that returns the current value can be committed
      greedily — removing it first can never invalidate a linearization
      that existed, because a read adds only precedence constraints and
      making it earliest relaxes them;
    * a minimal read that does NOT match the current value forces a
      write to linearize first; if every remaining write is real-time
      preceded by that read, the state is a dead end.
    """
    complete = [op for op in operations if op.complete]
    pending_writes = [op for op in operations if not op.complete and op.kind == "write"]
    # Incomplete reads constrain nothing: they may simply never have
    # taken effect, and no other operation's legality depends on them.
    ops = complete + pending_writes
    optional = frozenset(op.op_id for op in pending_writes)
    if not ops:
        return True

    by_id = {op.op_id: op for op in ops}
    steps = 0
    seen_states: set = set()

    def precedes(a: Operation, b: Operation) -> bool:
        """Real-time order: a finished before b began.  Incomplete ops
        have open-ended intervals (concurrent with all later ops)."""
        return a.complete and a.completed_at < b.invoked_at

    def is_minimal(op: Operation, remaining: frozenset) -> bool:
        for other_id in remaining:
            other = by_id[other_id]
            if other is not op and precedes(other, op):
                return False
        return True

    def search(remaining: frozenset, value_marker: Any) -> bool:
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise _SearchBudgetExceeded(
                f"linearizability search exceeded {max_steps} steps"
            )
        # Greedily consume minimal reads that match the current value.
        changed = True
        while changed:
            changed = False
            for op_id in list(remaining):
                op = by_id[op_id]
                if op.kind == "read" and op.value == value_marker and is_minimal(op, remaining):
                    remaining = remaining - {op_id}
                    changed = True
        if not remaining:
            return True
        state_key = (remaining, repr(value_marker))
        if state_key in seen_states:
            return False
        seen_states.add(state_key)
        remaining_ops = [by_id[i] for i in remaining]
        writes = [op for op in remaining_ops if op.kind == "write"]
        # Dead end: a minimal mismatching read that precedes every write
        # can never be satisfied.
        for op in remaining_ops:
            if op.kind == "read" and is_minimal(op, remaining):
                if all(precedes(op, w) for w in writes):
                    return False
        # Branch over minimal writes (and over skipping optional ones).
        for op in writes:
            if not is_minimal(op, remaining):
                continue
            rest = remaining - {op.op_id}
            if search(rest, op.value):
                return True
            if op.op_id in optional and search(rest, value_marker):
                return True
        return False

    return search(frozenset(by_id), initial)


class LinearizabilityReport:
    """Results of checking a whole history, key by key."""

    def __init__(self) -> None:
        self.checked_keys = 0
        self.linearizable_keys = 0
        self.violations: List[Tuple[int, Any]] = []
        #: Per-violation human-readable explanations (operation history
        #: plus causal timeline when a flight recorder was supplied),
        #: parallel to :attr:`violations`.
        self.explanations: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def explain(self) -> str:
        """Every violation's full story, ready for an assertion message."""
        if self.ok:
            return "linearizable: no violations"
        return "\n\n".join(self.explanations)

    def __repr__(self) -> str:
        return (
            f"<LinearizabilityReport {self.linearizable_keys}/{self.checked_keys} keys ok, "
            f"{len(self.violations)} violations>"
        )


def explain_violation(
    operations: Sequence[Operation],
    group: int,
    key: Any,
    flight_recorder: Any = None,
) -> str:
    """Render one non-linearizable key's evidence: every operation's
    invocation/response interval in invocation order, followed by the
    causally ordered flight-recorder timeline when one is available.

    This is what replaces a bare ``assert report.ok`` failure: instead
    of "key k7 is not linearizable", the reader sees which read returned
    which stale value between which writes, and — with the recorder on —
    which switch held the pending bit and where the chain hop died.
    """
    lines = [f"non-linearizable history for group={group} key={key!r}:"]
    for op in sorted(operations, key=lambda o: (o.invoked_at, o.op_id)):
        end = f"{op.completed_at * 1e6:10.2f}us" if op.complete else "   (never)"
        lines.append(
            f"  [{op.invoked_at * 1e6:10.2f}us -> {end}] "
            f"{op.kind:<5s} @{op.node:<6s} {op.key!r} = {op.value!r}"
            f"{'' if op.complete else '  [incomplete]'}"
        )
    if flight_recorder is not None:
        lines.append(flight_recorder.render_timeline(group=group, key=key))
    return "\n".join(lines)


def check_history(
    recorder: HistoryRecorder,
    initial: Any = None,
    group: Optional[int] = None,
    max_steps: int = 2_000_000,
    flight_recorder: Any = None,
) -> LinearizabilityReport:
    """Check every (group, key) sub-history independently.

    Per-register linearizability is exactly what the paper promises for
    SRO ("SRO provides per-register linearizability", section 6.1) —
    there is no cross-key ordering guarantee to check.

    Pass the deployment's ``flight_recorder`` to get each violation's
    causal timeline bundled into :attr:`LinearizabilityReport.explanations`.
    """
    report = LinearizabilityReport()
    for key_group, key in recorder.keys():
        if group is not None and key_group != group:
            continue
        operations = recorder.for_key(key_group, key)
        report.checked_keys += 1
        if check_key_linearizable(operations, initial=initial, max_steps=max_steps):
            report.linearizable_keys += 1
        else:
            report.violations.append((key_group, key))
            report.explanations.append(
                explain_violation(
                    operations, key_group, key, flight_recorder=flight_recorder
                )
            )
    return report
