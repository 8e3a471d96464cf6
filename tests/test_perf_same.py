"""Tests for the output-identity pre-flight (tools/perf_same.py), over
canned ``perf/worker.py`` results — no subprocess."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perf_same", REPO_ROOT / "tools" / "perf_same.py"
)
perf_same = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_same)

#: The parts of one worker result the tool reads, as the worker prints them.
RESULT = {
    "workload": "fwd_bare",
    "seed": 11,
    "mode": "plain",
    "attempted": 38400,
    "delivered": 38400,
    "digest": "24273a6c3509ed04ef3fad3ccd4b5c150341dd0d1a403dc83fa6f10770b5bdfb",
    "end_to_end": {"pkt_latency_p50_us": 20.0173, "wire_bytes_per_op": 220.004,
                   "delivered_share": 1.0},
    "layers": {"engine.events_per_op": 5.136380208333334, "link.pkts_per_op": 4.1082},
    "host": {"ops_per_host_s": 48838.0, "peak_rss_mb": 61.3},
}


def _changed(**parts):
    result = copy.deepcopy(RESULT)
    for part, value in parts.items():
        if isinstance(value, dict):
            result[part].update(value)
        else:
            result[part] = value
    return result


class TestDifferences:
    def test_identical_results_have_none(self):
        assert perf_same.differences(RESULT, copy.deepcopy(RESULT)) == []

    def test_host_time_is_not_compared(self):
        faster = _changed(host={"ops_per_host_s": 68050.0, "peak_rss_mb": 62.4})
        assert perf_same.differences(RESULT, faster) == []

    def test_each_part_is_compared_leaf_by_leaf(self):
        found = perf_same.differences(RESULT, _changed(
            digest="0" * 64,
            end_to_end={"pkt_latency_p50_us": 20.0174},
            layers={"engine.events_per_op": 5.0},
            delivered=38399,
        ))
        assert [line.split(":")[0] for line in found] == [
            "digest", "end_to_end.pkt_latency_p50_us", "layers.engine.events_per_op",
            "delivered",
        ]
        assert "20.0173 -> 20.0174" in found[1]

    def test_a_leaf_on_one_side_only_is_a_difference(self):
        extra = _changed(layers={"sro.writes_committed": 0})
        assert perf_same.differences(RESULT, extra) == [
            "layers.sro.writes_committed: None -> 0"
        ]

    def test_a_float_one_ulp_off_is_a_difference(self):
        nudged = _changed(end_to_end={"wire_bytes_per_op": 220.00400000000002})
        assert len(perf_same.differences(RESULT, nudged)) == 1


class TestCallsRow:
    def test_calls_and_events_per_op_side_by_side(self):
        parent = _changed(py_calls=5781454)
        change = _changed(py_calls=3844607)
        row = perf_same.calls_row(parent, change)
        assert row["parent_calls_per_op"] == pytest.approx(150.5587, abs=1e-4)
        assert row["change_calls_per_op"] == pytest.approx(100.1200, abs=1e-4)
        assert row["calls_ratio"] == pytest.approx(0.6650, abs=1e-4)
        assert row["parent_events_per_op"] == row["change_events_per_op"] == 5.136380208333334


#: BENCHMARK.json's ``better`` for the sim-clock end-to-end metrics.
BETTER = {"pkt_latency_p50_us": "lower", "wire_bytes_per_op": "lower",
          "delivered_share": "higher"}


class TestMovedProblems:
    def test_better_or_equal_on_every_metric_is_no_problem(self):
        fewer_bytes = _changed(digest="1" * 64,
                               end_to_end={"wire_bytes_per_op": 180.5},
                               layers={"link.pkts_per_op": 2.0})
        assert perf_same.moved_problems(RESULT, fewer_bytes, BETTER) == []

    @pytest.mark.parametrize("metric,value", [
        ("pkt_latency_p50_us", 20.0174),  # lower is better
        ("wire_bytes_per_op", 220.00400000000002),
        ("delivered_share", 0.999),  # higher is better
    ])
    def test_any_end_to_end_metric_worse_at_all_is_a_problem(self, metric, value):
        found = perf_same.moved_problems(RESULT, _changed(end_to_end={metric: value}), BETTER)
        assert len(found) == 1 and found[0].startswith(f"end_to_end.{metric} worse:")

    def test_a_metric_benchmark_json_does_not_judge_is_ignored(self):
        assert perf_same.moved_problems(
            RESULT, _changed(end_to_end={"wire_bytes_per_op": 999.0}), {}
        ) == []

    def test_failed_operations_on_either_side_are_a_problem(self):
        short = _changed(delivered=38390)
        assert perf_same.moved_problems(short, RESULT, BETTER) == [
            "parent failed 10 operation(s)"
        ]
        assert perf_same.moved_problems(RESULT, short, BETTER)[0] == (
            "change failed 10 operation(s)"
        )

    def test_the_table_lists_every_changed_leaf(self):
        moved = _changed(digest="1" * 64, layers={"link.pkts_per_op": 2.0})
        rows = perf_same.moved_table(RESULT, moved)
        assert [row.split()[0] for row in rows[1:]] == ["digest", "layers.link.pkts_per_op"]
        assert rows[1].split()[1:] == ["24273a6c3509", "111111111111"]
        assert rows[2].split()[1:] == ["4.1082", "2.0"]


class TestMainWithMoved:
    """``main()`` over canned worker results: ``run_worker`` and each
    checkout's ``problems()`` are stubbed, BENCHMARK.json is real."""

    @pytest.fixture
    def run(self, monkeypatch, tmp_path, capsys):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({
            "workloads": [{"name": "fwd_bare"}, {"name": "ewo_sketch"}],
            "end_to_end": [{"name": n, "better": b} for n, b in BETTER.items()],
        }))
        incorrect = {}
        monkeypatch.setattr(perf_same, "load_problems",
                            lambda checkout, tag: lambda result: incorrect.get(tag, []))

        def run(change, argv, problems=None):
            incorrect.update(problems or {})

            def worker(checkout, workload, seed, mode):
                side = "parent" if checkout == str(tmp_path) else "change"
                result = change.get(workload, RESULT) if side == "change" else RESULT
                return dict(copy.deepcopy(result), workload=workload, py_calls=38400)

            monkeypatch.setattr(perf_same, "run_worker", worker)
            code = perf_same.main([str(tmp_path), str(tmp_path / "change"), "--seeds", "11",
                                   *argv])
            return code, capsys.readouterr().out

        return run

    MOVED = _changed(digest="1" * 64, end_to_end={"wire_bytes_per_op": 180.5},
                     layers={"link.pkts_per_op": 2.0})

    def test_a_moved_workload_that_is_no_worse_passes_with_its_table(self, run):
        code, out = run({"ewo_sketch": self.MOVED}, ["--moved", "ewo_sketch"])
        assert code == 0
        assert "ewo_sketch    digest 111111111111  failed 0/0  moved" in out
        assert "end_to_end.wire_bytes_per_op" in out and "layers.link.pkts_per_op" in out
        assert "identical outputs but for ewo_sketch (moved, none worse)" in out

    def test_without_the_flag_the_same_change_fails(self, run):
        code, out = run({"ewo_sketch": self.MOVED}, [])
        assert code == 1 and "3 problem(s)" in out

    def test_every_other_workload_must_still_match(self, run):
        code, out = run({"ewo_sketch": self.MOVED, "fwd_bare": self.MOVED},
                        ["--moved", "ewo_sketch"])
        assert code == 1 and "fwd_bare      digest 111111111111  failed 0/0  3 problem(s)" in out

    def test_a_moved_workload_still_fails_when_worse_or_incorrect(self, run):
        worse = _changed(end_to_end={"pkt_latency_p50_us": 21.0})
        assert run({"ewo_sketch": worse}, ["--moved", "ewo_sketch"])[0] == 1
        code, out = run({"ewo_sketch": self.MOVED}, ["--moved", "ewo_sketch"],
                        problems={"change": ["marker packet never settled"]})
        assert code == 1 and "change incorrect: marker packet never settled" in out

    def test_moved_must_name_a_workload_that_runs(self, run):
        with pytest.raises(SystemExit) as exit_:
            run({}, ["--workload", "fwd_bare", "--moved", "ewo_sketch"])
        assert exit_.value.code == 2
