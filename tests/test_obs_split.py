"""Tests for the sink-split table (tools/obs_split.py), rendered from
canned rows — no subprocess."""

import hashlib
import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("obs_split", REPO_ROOT / "tools" / "obs_split.py")
obs_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(obs_split)


def _row(label, sinks, calls, run_s, rss, spans=0, digest=None):
    return {"label": label, "sinks": sinks, "calls_per_op": calls, "run_s": run_s,
            "peak_rss_mb": rss, "spans": spans, "span_digest": digest}


#: Shaped like a real seed-11 split, with round numbers.
ROWS = [
    _row("none", (), 534.48, 0.500, 30.0, spans=42000),
    _row("MetricsRegistry", ("metrics",), 594.18, 0.530, 30.0, spans=42000),
    _row("FlightRecorder", ("flight_recorder",), 627.18, 0.600, 45.0, spans=42000,
         digest="ab" * 32),
    _row("AccessProfiler", ("access_profiler",), 640.48, 0.580, 30.2, spans=42000),
    _row("SLOMonitor", ("slo_monitor",), 569.38, 0.520, 30.0, spans=42000),
    _row("all four", obs_split.SINKS, 724.88, 0.800, 45.4, spans=42000, digest="ab" * 32),
]


def _cells(table, label):
    (line,) = [line for line in table.splitlines() if line.startswith(f"| {label} |")]
    return [cell.strip() for cell in line.strip("|").split("|")]


class TestRender:
    def test_header_names_seed_and_the_medians(self):
        table = obs_split.render(23, ROWS)
        first = table.splitlines()[0]
        assert first.startswith("nf_mix_obs, seed 23, scale 1.0")
        assert f"medians of {obs_split.TIMED_RUNS} processes" in first
        header = _cells(table, "sink")
        assert header == ["sink", "calls/op", "added", "run_s", "added s", "share of all four",
                          "peak_rss_mb", "added MB", "spans", "B/span", "span sha256"]
        assert len(table.splitlines()) == 4 + len(ROWS)

    def test_the_no_sink_row_adds_nothing(self):
        assert _cells(obs_split.render(11, ROWS), "none") == [
            "none", "534.48", "", "0.500", "", "", "30.0", "", "", "", ""
        ]

    def test_additions_and_shares_are_over_the_no_sink_run(self):
        table = obs_split.render(11, ROWS)
        # (0.580 - 0.500) / 0.800 of the watched run
        assert _cells(table, "AccessProfiler") == [
            "AccessProfiler", "640.48", "+106.0", "0.580", "+0.080", "10%", "30.2", "+0.2", "", "",
            "",
        ]
        assert _cells(table, "all four")[2:6] == ["+190.4", "0.800", "+0.300", "38%"]

    def test_bytes_per_span_only_with_a_flight_recorder(self):
        table = obs_split.render(11, ROWS)
        # 15 MB over 42 000 spans
        assert _cells(table, "FlightRecorder")[-3:-1] == ["42000", "374"]
        assert _cells(table, "all four")[-3:-1] == ["42000", "384"]
        assert _cells(table, "MetricsRegistry")[-3:-1] == ["", ""]

    def test_span_digest_only_with_a_flight_recorder(self):
        table = obs_split.render(11, ROWS)
        assert _cells(table, "FlightRecorder")[-1] == "ab" * 32
        assert _cells(table, "all four")[-1] == "ab" * 32
        for label in ("none", "MetricsRegistry", "AccessProfiler", "SLOMonitor"):
            assert _cells(table, label)[-1] == ""


def _span(span_id, time, **attrs):
    return SimpleNamespace(
        trace_id="T:s0:1", span_id=span_id, parent_id="s0:1", lamport=2, name="sro.chain.apply",
        node="s1", time=time, group=1, key="k", attrs=attrs,
    )


class TestSpanDigest:
    def test_one_line_per_span_of_every_field(self):
        spans = [_span("s1:1", 1e-3, seq=3), _span("s1:2", 2e-3, seq=4)]
        lines = b"".join(
            repr(("T:s0:1", s.span_id, "s0:1", 2, "sro.chain.apply", "s1", s.time.hex(), 1,
                  "'k'", repr(s.attrs))).encode() + b"\n"
            for s in spans
        )
        assert obs_split.span_digest(spans) == hashlib.sha256(lines).hexdigest()

    def test_order_time_bits_and_attrs_move_it(self):
        a, b = _span("s1:1", 1e-3, seq=3), _span("s1:2", 2e-3, seq=4)
        digest = obs_split.span_digest([a, b])
        assert obs_split.span_digest([b, a]) != digest
        nudged = _span("s1:1", math.nextafter(a.time, 1.0), seq=3)  # one bit of the time
        assert obs_split.span_digest([nudged, b]) != digest
        assert obs_split.span_digest([_span("s1:1", 1e-3, seq=5), b]) != digest
        assert obs_split.span_digest([]) == hashlib.sha256(b"").hexdigest()
