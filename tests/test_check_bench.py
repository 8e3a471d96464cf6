"""Tests for the bench-sidecar regression gate (tools/check_bench.py)."""

import importlib.util
import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "check_bench", REPO_ROOT / "tools" / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def _diff(base, fresh):
    return list(check_bench.diff(base, fresh, "", check_bench.DEFAULT_TOLERANCES))


class TestDiff:
    def test_identical_documents_match(self):
        doc = {"experiment": "P5", "results": [{"committed_rate": 100.0}]}
        assert _diff(doc, json.loads(json.dumps(doc))) == []

    def test_exact_fields_catch_any_drift(self):
        assert _diff({"commits": 347}, {"commits": 346})
        assert _diff({"protocol": "SRO"}, {"protocol": "EWO"})

    def test_timing_fields_get_a_band(self):
        base = {"mean_write_latency": 1.000e-3}
        assert _diff(base, {"mean_write_latency": 1.005e-3}) == []   # 0.5% ok
        assert _diff(base, {"mean_write_latency": 1.100e-3})         # 10% not

    def test_wall_clock_is_ignored(self):
        assert _diff({"wall_clock_s": 1.0}, {"wall_clock_s": 9.0}) == []

    def test_structural_changes_are_reported(self):
        assert _diff({"results": [1, 2]}, {"results": [1]})
        assert _diff({"a": 1}, {})
        assert _diff({}, {"a": 1})
        assert _diff({"a": 1}, {"a": "1"})

    def test_metric_lists_match_by_identity_not_position(self):
        base = [
            {"kind": "counter", "name": "x", "node": "s0", "value": 1},
            {"kind": "counter", "name": "y", "node": "s0", "value": 2},
        ]
        assert _diff(base, list(reversed(base))) == []
        missing = _diff(base, base[:1])
        assert any("missing" in m.detail for m in missing)

    def test_tolerance_lookup_order(self):
        tol = check_bench.tolerance_for
        assert tol("results[0].wall_clock_s", check_bench.DEFAULT_TOLERANCES) is math.inf
        assert tol("results[0].leaderless_window", check_bench.DEFAULT_TOLERANCES) == 1e-2
        assert tol("results[0].commits", check_bench.DEFAULT_TOLERANCES) == 0.0

    def test_percentile_band_class(self):
        """Percentile leaves get the interpolation band; attribution
        fractions stay exact even when their path mentions latency."""
        tol = check_bench.tolerance_for
        tolerances = check_bench.DEFAULT_TOLERANCES
        assert tol("metrics.histograms[0].p999", tolerances) == 1e-2
        assert tol("results[0].latency_us.p99", tolerances) == 1e-2
        assert tol("results[0].causes[2].fraction", tolerances) == 0.0
        assert tol("results[0].latency_fraction", tolerances) == 0.0
        assert tol("results[0].tail.causes[0].share", tolerances) == 0.0
        assert tol("results[0].fraction_sum_error_max", tolerances) == 0.0

    def test_fraction_drift_is_a_mismatch(self):
        base = {"results": [{"causes": [{"fraction": 0.5}], "p99": 1.0}]}
        fresh = {"results": [{"causes": [{"fraction": 0.5000001}], "p99": 1.005}]}
        mismatches = _diff(base, fresh)
        assert len(mismatches) == 1
        assert "fraction" in mismatches[0].path


class TestMain:
    def _write(self, directory, payload):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "BENCH_X1.json").write_text(json.dumps(payload))

    def test_passes_on_matching_sidecars(self, tmp_path, capsys):
        self._write(tmp_path / "base", {"experiment": "X1", "commits": 3})
        self._write(tmp_path / "fresh", {"experiment": "X1", "commits": 3})
        rc = check_bench.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
        )
        assert rc == 0
        assert "ok   X1" in capsys.readouterr().out

    def test_fails_on_regression(self, tmp_path, capsys):
        self._write(tmp_path / "base", {"experiment": "X1", "commits": 3})
        self._write(tmp_path / "fresh", {"experiment": "X1", "commits": 2})
        rc = check_bench.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
        )
        assert rc == 1
        assert "FAIL X1" in capsys.readouterr().out

    def test_fails_on_missing_fresh_sidecar(self, tmp_path):
        self._write(tmp_path / "base", {"experiment": "X1"})
        (tmp_path / "fresh").mkdir()
        rc = check_bench.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
        )
        assert rc == 1

    def test_fails_when_no_baselines(self, tmp_path):
        (tmp_path / "base").mkdir()
        (tmp_path / "fresh").mkdir()
        rc = check_bench.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
        )
        assert rc == 1

    def test_id_filter(self, tmp_path, capsys):
        self._write(tmp_path / "base", {"experiment": "X1", "commits": 3})
        self._write(tmp_path / "fresh", {"experiment": "X1", "commits": 2})
        (tmp_path / "base" / "BENCH_Y2.json").write_text(json.dumps({"n": 1}))
        (tmp_path / "fresh" / "BENCH_Y2.json").write_text(json.dumps({"n": 1}))
        rc = check_bench.main(
            [
                "--baseline", str(tmp_path / "base"),
                "--fresh", str(tmp_path / "fresh"),
                "y2",
            ]
        )
        assert rc == 0
        assert "X1" not in capsys.readouterr().out


class TestDefaultSidecarDirectory:
    def test_a_run_leaves_the_committed_baselines_alone(self, tmp_path, monkeypatch):
        """With ``$SWISHMEM_BENCH_DIR`` unset a sidecar lands in
        ``<repo>/fresh_bench``: a benchmark run (CI's soak) must not
        replace a gated baseline in ``<repo>/bench_results``."""
        spec = importlib.util.spec_from_file_location(
            "bench_common", REPO_ROOT / "benchmarks" / "common.py"
        )
        common = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(common)
        monkeypatch.delenv("SWISHMEM_BENCH_DIR", raising=False)
        monkeypatch.setattr(common, "_REPO_ROOT", str(tmp_path))
        baselines = tmp_path / "bench_results"
        baselines.mkdir()
        (baselines / "BENCH_X1.json").write_text('{"committed": true}\n')
        path = Path(common.emit_json("X1", "a run", {"n": 1}))
        assert path == tmp_path / "fresh_bench" / "BENCH_X1.json"
        assert json.loads(path.read_text())["results"] == {"n": 1}
        assert sorted(p.name for p in baselines.iterdir()) == ["BENCH_X1.json"]
        assert (baselines / "BENCH_X1.json").read_text() == '{"committed": true}\n'
