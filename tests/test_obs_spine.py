"""The observability spine's vocabulary is closed: every ``emit`` call
site in ``src/repro`` names a kind of ``repro.obs.events.EVENTS`` with a
string literal and passes exactly that row's keywords, and every row is
emitted somewhere."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.obs import EVENTS, FlightRecorder, MetricsRegistry, ObsSpine
from repro.sim.engine import Simulator

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _emit_sites() -> List[Tuple[str, ast.Call]]:
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
            ):
                sites.append((f"{path.relative_to(SRC)}:{node.lineno}", node))
    return sites


class TestClosedVocabulary:
    def test_every_call_site_matches_its_table_row(self):
        problems = []
        emitted: Dict[str, str] = {}
        for where, call in _emit_sites():
            kind = call.args[0] if call.args else None
            if not (isinstance(kind, ast.Constant) and isinstance(kind.value, str)):
                problems.append(f"{where}: emit kind is not a string literal")
                continue
            event = EVENTS.get(kind.value)
            if event is None:
                problems.append(f"{where}: kind {kind.value!r} is not in EVENTS")
                continue
            emitted[kind.value] = where
            if not 2 <= len(call.args) <= 3:
                problems.append(f"{where}: emit takes (kind, node[, ctx]) positionally")
            keywords = tuple(keyword.arg for keyword in call.keywords)
            if keywords != event.fields:
                problems.append(
                    f"{where}: {kind.value} passes {keywords}, its row takes {event.fields}"
                )
        for kind in EVENTS:
            if kind not in emitted:
                problems.append(f"EVENTS row {kind!r} is emitted nowhere")
        assert not problems, "\n".join(problems)

    def test_unknown_kind_is_an_error_at_run_time(self):
        spine = ObsSpine(Simulator(), metrics=MetricsRegistry())
        with pytest.raises(KeyError):
            spine.emit("no.such.step", "s0")


class TestDispatch:
    def test_a_kind_costs_only_the_attached_sinks(self):
        spine = ObsSpine(Simulator())
        assert not spine.on
        assert all(spine._plan(kind, "s0") == ((), ()) for kind in EVENTS)
        spine.attach(flight_recorder=FlightRecorder())
        assert spine.on
        # sro.write.commit feeds a span, two instruments and two SLO
        # feeds; with only a recorder attached it is one handler.
        calls, handlers = spine._plan("sro.write.commit", "s0")
        assert calls == () and len(handlers) == 1
        assert spine._plan("sro.read.local", "s0") == ((), ())
        spine.attach(metrics=MetricsRegistry())
        calls, handlers = spine._plan("sro.write.commit", "s0")
        assert len(calls) == 2 and len(handlers) == 1

    def test_announced_instruments_exist_before_the_first_sample(self):
        registry = MetricsRegistry()
        spine = ObsSpine(Simulator(), metrics=registry)
        spine.announce("switch", "s9")
        spine.announce("invariants")
        assert registry.get("counter", "sro.reads_local", "s9").value == 0
        assert registry.get("gauge", "sro.pending_bits", "s9") is not None
        assert registry.get("counter", "invariant.single_leader.checks", "invariants")
        assert registry.get("counter", "scrub.rounds", "scrub") is None

    def test_child_spans_allocate_from_the_emitting_nodes_clock(self):
        recorder = FlightRecorder()
        spine = ObsSpine(Simulator(), flight_recorder=recorder)
        clock = spine.clock("s0")
        parent = clock.root()
        spine.emit("sro.pending.set", "s0", parent, group=1, key="k", seq=2, slot=0, raised=1)
        (span,) = recorder.spans
        assert span.parent_id == parent.span_id and span.node == "s0"
        assert span.attrs == {"seq": 2, "slot": 0}
        # an untraced step records nothing and allocates nothing
        spans_before = clock._spans
        spine.emit("sro.pending.set", "s0", None, group=1, key="k", seq=3, slot=0, raised=0)
        assert len(recorder.spans) == 1 and clock._spans == spans_before
