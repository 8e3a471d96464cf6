"""Tests for the sink-split table (tools/obs_split.py), rendered from
canned rows — no subprocess."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("obs_split", REPO_ROOT / "tools" / "obs_split.py")
obs_split = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(obs_split)


def _row(label, sinks, calls, run_s, rss, spans=0):
    return {"label": label, "sinks": sinks, "calls_per_op": calls, "run_s": run_s,
            "peak_rss_mb": rss, "spans": spans}


#: Shaped like a real seed-11 split, with round numbers.
ROWS = [
    _row("none", (), 534.48, 0.500, 30.0, spans=42000),
    _row("MetricsRegistry", ("metrics",), 594.18, 0.530, 30.0, spans=42000),
    _row("FlightRecorder", ("flight_recorder",), 627.18, 0.600, 45.0, spans=42000),
    _row("AccessProfiler", ("access_profiler",), 640.48, 0.580, 30.2, spans=42000),
    _row("SLOMonitor", ("slo_monitor",), 569.38, 0.520, 30.0, spans=42000),
    _row("all four", obs_split.SINKS, 724.88, 0.800, 45.4, spans=42000),
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
                          "peak_rss_mb", "added MB", "spans", "B/span"]
        assert len(table.splitlines()) == 4 + len(ROWS)

    def test_the_no_sink_row_adds_nothing(self):
        assert _cells(obs_split.render(11, ROWS), "none") == [
            "none", "534.48", "", "0.500", "", "", "30.0", "", "", ""
        ]

    def test_additions_and_shares_are_over_the_no_sink_run(self):
        table = obs_split.render(11, ROWS)
        # (0.580 - 0.500) / 0.800 of the watched run
        assert _cells(table, "AccessProfiler") == [
            "AccessProfiler", "640.48", "+106.0", "0.580", "+0.080", "10%", "30.2", "+0.2", "", ""
        ]
        assert _cells(table, "all four")[2:6] == ["+190.4", "0.800", "+0.300", "38%"]

    def test_bytes_per_span_only_with_a_flight_recorder(self):
        table = obs_split.render(11, ROWS)
        # 15 MB over 42 000 spans
        assert _cells(table, "FlightRecorder")[-2:] == ["42000", "374"]
        assert _cells(table, "all four")[-2:] == ["42000", "384"]
        assert _cells(table, "MetricsRegistry")[-2:] == ["", ""]
