"""Tests for the count gate (tools/check_counts.py), over canned counts —
no worker subprocess."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "check_counts", REPO_ROOT / "tools" / "check_counts.py"
)
check_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_counts)

BASELINE = {
    "python": "3.11.7",
    "seed": 11,
    "workloads": {
        "fwd_bare": {"calls_per_op": 91.7628, "events_per_op": 5.136380208333334},
        "nf_mix": {"calls_per_op": 541.1373, "events_per_op": 12.610576923076923},
        "nf_mix_obs": {"calls_per_op": 883.2194, "events_per_op": 12.610576923076923},
    },
}


def _fresh(**changed):
    """The baseline's counts, with ``workload={metric: value}`` changed."""
    counts = {w: dict(c) for w, c in BASELINE["workloads"].items()}
    for workload, metrics in changed.items():
        counts[workload].update(metrics)
    return counts


def _verdicts(lines):
    """(workload, metric) -> verdict of a report."""
    rows = {}
    for line in lines[1:]:
        workload, metric, _, _, verdict = line.split(None, 4)
        rows[(workload, metric)] = verdict
    return rows


class TestJudge:
    def test_equal_counts_pass(self):
        lines, passed = check_counts.judge(BASELINE, _fresh(), "")
        assert passed
        assert set(_verdicts(lines).values()) == {"same"}

    def test_a_lower_count_passes_and_asks_for_a_re_baseline(self):
        lines, passed = check_counts.judge(
            BASELINE, _fresh(fwd_bare={"calls_per_op": 90.0}), "")
        assert passed
        assert _verdicts(lines)[("fwd_bare", "calls_per_op")] == "lower: re-baseline"

    @pytest.mark.parametrize("metric", check_counts.METRICS)
    def test_a_higher_count_fails(self, metric):
        higher = BASELINE["workloads"]["nf_mix"][metric] + 1e-9
        lines, passed = check_counts.judge(
            BASELINE, _fresh(nf_mix={metric: higher}), "a change: something else")
        assert not passed
        assert _verdicts(lines)[("nf_mix", metric)].startswith("HIGHER: fails")

    def test_a_higher_count_named_in_the_last_changes_line_passes(self):
        fresh = _fresh(nf_mix={"calls_per_op": 600.0})
        lines, passed = check_counts.judge(
            BASELINE, fresh, "a change: a new hook costs `nf_mix` 59 calls/op")
        assert passed
        assert _verdicts(lines)[("nf_mix", "calls_per_op")] == (
            "higher: named in the last CHANGES.md line")

    def test_a_longer_name_does_not_name_a_workload(self):
        fresh = _fresh(nf_mix={"calls_per_op": 600.0})
        assert not check_counts.judge(BASELINE, fresh, "a change: nf_mix_obs moved")[1]
        assert not check_counts.judge(BASELINE, fresh, "a change: xnf_mix moved")[1]
        assert check_counts.judge(BASELINE, fresh, "a change: nf_mix, then nf_mix_obs")[1]

    def test_the_last_non_blank_line_is_read(self):
        assert check_counts.last_line("first: a\nsecond: fwd_bare\n\n") == "second: fwd_bare"
        assert check_counts.last_line("") == ""


class TestMain:
    """``main()`` with the baseline, CHANGES.md and the measurement canned."""

    @pytest.fixture
    def run(self, monkeypatch, tmp_path, capsys):
        baseline = tmp_path / "PERF_COUNTS.json"
        changes = tmp_path / "CHANGES.md"
        monkeypatch.setattr(check_counts, "BASELINE", str(baseline))
        monkeypatch.setattr(check_counts, "CHANGES", str(changes))
        monkeypatch.delenv("SWISHMEM_BENCH_DIR", raising=False)

        def run(fresh, python="3.11.7", last_line="a change: the kernel"):
            baseline.write_text(json.dumps(dict(BASELINE, python=python)))
            changes.write_text(f"an earlier change\n{last_line}\n")
            measured = []

            def measure(workloads, seed):
                measured.append((workloads, seed))
                return fresh

            monkeypatch.setattr(check_counts, "measure", measure)
            monkeypatch.setattr(check_counts.platform, "python_version", lambda: "3.11.7")
            code = check_counts.main([])
            return code, capsys.readouterr().out, measured

        return run

    def test_equal_counts_exit_0(self, run):
        code, out, measured = run(_fresh())
        assert code == 0 and "counts ok" in out
        assert measured == [(["fwd_bare", "nf_mix", "nf_mix_obs"], 11)]

    def test_a_higher_count_exits_1(self, run):
        code, out, _ = run(_fresh(fwd_bare={"events_per_op": 5.2}))
        assert code == 1 and "counts FAILED" in out

    def test_a_higher_count_named_last_exits_0(self, run):
        code, _, _ = run(_fresh(fwd_bare={"events_per_op": 5.2}),
                         last_line="a change: `fwd_bare` moves by design")
        assert code == 0

    def test_another_interpreter_skips_without_measuring(self, run):
        code, out, measured = run(_fresh(fwd_bare={"calls_per_op": 1e9}), python="3.12.4")
        assert code == 0 and measured == []
        assert "skipped" in out and "3.12.4" in out and "3.11.7" in out

    def test_fresh_counts_are_written_to_the_bench_dir(self, run, monkeypatch, tmp_path):
        fresh_dir = tmp_path / "fresh"
        monkeypatch.setenv("SWISHMEM_BENCH_DIR", str(fresh_dir))
        fresh = _fresh(nf_mix={"calls_per_op": 500.0})
        assert run(fresh)[0] == 0
        written = json.loads((fresh_dir / "PERF_COUNTS.json").read_text())
        assert written == dict(BASELINE, workloads=fresh)

    def test_arguments_are_refused(self):
        assert check_counts.main(["--write"]) == 2


def _ci_jobs(text):
    """job name -> (python-version values, run commands) of a workflow
    laid out as ``.github/workflows/ci.yml`` is: jobs two spaces in under
    ``jobs:``, one-line ``python-version:`` and ``run:`` values."""
    jobs, job, in_jobs = {}, None, False
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if not line.startswith(" "):
            in_jobs, job = line.rstrip() == "jobs:", None
            continue
        if in_jobs and re.fullmatch(r"  [\w-]+:\s*", line):
            job = jobs.setdefault(line.strip()[:-1], ([], []))
            continue
        if job is None:
            continue
        field = re.fullmatch(r"\s*-?\s*(python-version|run):\s*(.+?)\s*", line)
        if field:
            name, value = field.groups()
            job[0 if name == "python-version" else 1].append(value.strip("\"'"))
    return jobs


def test_ci_runs_the_count_gate_on_the_baselines_interpreter():
    """CI's other jobs run an interpreter the count gate skips on, so one
    job must run ``check_counts.py`` on exactly the baseline's Python."""
    committed = json.loads((REPO_ROOT / "bench_results" / "PERF_COUNTS.json").read_text())
    jobs = _ci_jobs((REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text())
    assert jobs, "no jobs parsed from ci.yml"
    gating = [
        name for name, (pythons, runs) in jobs.items()
        if pythons == [committed["python"]]
        and any("tools/check_counts.py" in run for run in runs)
    ]
    assert gating, (
        f"no CI job runs tools/check_counts.py on Python {committed['python']}: "
        f"{ {name: pythons for name, (pythons, _) in jobs.items()} }"
    )


def test_the_ci_job_reader():
    text = (
        "name: CI\non:\n  push:\njobs:\n  a:\n    steps:\n"
        "      - uses: actions/setup-python@v5\n        with:\n"
        "          # a comment\n          python-version: \"3.11.7\"\n"
        "      - name: gate\n        run: python tools/check_counts.py\n"
        "  b:\n    strategy:\n      matrix:\n        python-version: [\"3.9\", \"3.12\"]\n"
        "    steps:\n      - run: make gate\n"
    )
    assert _ci_jobs(text) == {
        "a": (["3.11.7"], ["python tools/check_counts.py"]),
        "b": (['["3.9", "3.12"]'], ["make gate"]),
    }


def test_the_committed_baseline_covers_every_workload():
    committed = json.loads((REPO_ROOT / "bench_results" / "PERF_COUNTS.json").read_text())
    workloads = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(committed["workloads"]) == sorted(w["name"] for w in workloads)
    assert committed["seed"] == 11
    for counts in committed["workloads"].values():
        assert sorted(counts) == sorted(check_counts.METRICS)
