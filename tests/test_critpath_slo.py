"""Tests for critical-path latency attribution and live SLO monitoring.

Three properties carry the feature:

* **honesty** — per committed write, the attributed seconds telescope
  exactly to the end-to-end latency, so cause fractions sum to 1.0;
* **determinism** — the same seed produces byte-identical attribution
  reports and dashboard panels (no dict-order or RNG leakage);
* **digest neutrality** — attaching the SLO monitor (like the flight
  recorder before it) never perturbs the simulation.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import FaultInjector
from repro.core.registers import Consistency, RegisterSpec
from repro.obs.critpath import (
    CAUSES,
    CriticalPathAnalyzer,
    DEFAULT_PIPELINE_LATENCY,
)
from repro.obs.dashboard import render_critpath, render_slo
from repro.obs.flightrec import FlightRecorder
from repro.obs.slo import (
    SLOMonitor,
    parse_objective,
)
from repro.core.manager import SwiShmemDeployment
from repro.net.topology import Topology, build_full_mesh
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PIPELINE_LATENCY, PisaSwitch


def _run_writes(
    recorder,
    n_writes: int = 20,
    loss_burst=None,
    leader_kill=None,
    slo_monitor=None,
    duration: float = 60e-3,
):
    """Drive a small SRO write workload, optionally through faults.

    Builds its own simulator (not the shared ``make_deployment``
    fixture) so one test can replay the same seeded scenario twice from
    a cold clock.
    """
    kwargs = {"flight_recorder": recorder, "slo_monitor": slo_monitor}
    if leader_kill is not None:
        kwargs["controller_replicas"] = 3
    sim = Simulator()
    topo = Topology(sim, SeededRng(1234))
    switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 3)
    dep = SwiShmemDeployment(sim, topo, switches, **kwargs)
    spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=64))
    injector = FaultInjector(dep, seed=9)
    if loss_burst is not None:
        at, burst_duration, rate = loss_burst
        injector.loss_burst(at, duration=burst_duration, loss_rate=rate)
    if leader_kill is not None:
        # Repeated leader assassination: every replica that takes over
        # dies too, so the crashed chain hop stays unrepaired through
        # the accumulated leaderless windows.
        at, down_for = leader_kill
        injector.crash(at + 0.5e-3, "s1")
        for kill_at in (at, at + 12e-3, at + 25e-3):
            injector.crash_leader_for(kill_at, down_for=down_for)
        injector.recover(at + down_for, "s1")
    counter = [0]

    def workload():
        i = counter[0]
        counter[0] += 1
        dep.manager("s0").register_write(spec, f"k{i % 4}", i)
        if counter[0] < n_writes:
            dep.sim.schedule(500e-6, workload)

    dep.sim.schedule(1e-3, workload)
    dep.sim.run(until=duration)
    return dep, spec


class TestObjectiveGrammar:
    def test_parse_latency_objective(self):
        assert parse_objective("sro.write_commit p99 < 5ms over 100ms windows") == (
            "sro.write_commit", "p99", "<", 5e-3, 0.1
        )

    def test_parse_availability_objective(self):
        metric, stat, op, threshold, window = parse_objective(
            "sro.write availability >= 0.999 over 50ms windows"
        )
        assert (metric, stat, op) == ("sro.write", "availability", ">=")
        assert threshold == 0.999
        assert window == pytest.approx(0.05)

    def test_units_scale(self):
        assert parse_objective("m p50 <= 250us over 1s windows")[3] == 250e-6
        assert parse_objective("m max < 100ns over 1ms windows")[3] == pytest.approx(100e-9)

    @pytest.mark.parametrize(
        "bad",
        [
            "sro.write_commit p42 < 5ms over 100ms windows",  # unknown stat
            "sro.write_commit p99 ~ 5ms over 100ms windows",  # unknown op
            "sro.write_commit p99 < 5ms",  # no window clause
            "p99 < 5ms over 100ms windows",  # stat missing
            "m p99 < 5ms over 0ms windows",  # nonpositive window
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_objective(bad)


class TestSLOMonitor:
    def test_breach_and_burn_rate(self):
        monitor = SLOMonitor()
        monitor.add_objective("m p99 < 1ms over 10ms windows")
        # window 0: fast samples; window 1: slow; window 2 closes 1
        monitor.observe("m", 100e-6, 1e-3)
        monitor.observe("m", 5e-3, 12e-3)
        monitor.finalize(25e-3)
        state = monitor.as_dict()
        assert not state["ok"]
        assert state["objectives"][0]["windows_evaluated"] == 2
        assert state["objectives"][0]["windows_breached"] == 1
        assert state["objectives"][0]["burn_rate"] == 0.5
        [breach] = state["breaches"]
        assert breach["metric"] == "m"
        assert breach["window_start"] == pytest.approx(10e-3)
        assert breach["observed"] >= 1e-3

    def test_availability_objective(self):
        monitor = SLOMonitor()
        monitor.add_objective("w availability >= 0.9 over 10ms windows")
        for i in range(10):
            monitor.observe_event("w", ok=i != 0, now=1e-3 + i * 1e-4)
        for i in range(10):
            monitor.observe_event("w", ok=i >= 5, now=11e-3 + i * 1e-4)
        monitor.finalize(25e-3)
        state = monitor.as_dict()
        assert state["objectives"][0]["windows_evaluated"] == 2
        assert state["objectives"][0]["windows_breached"] == 1
        assert state["breaches"][0]["observed"] == pytest.approx(0.5)

    def test_empty_windows_neither_burn_nor_restore(self):
        monitor = SLOMonitor()
        monitor.add_objective("m p99 < 1ms over 1ms windows")
        monitor.observe("m", 10e-6, 0.5e-3)
        monitor.observe("m", 10e-6, 20.5e-3)  # 19 empty windows skipped
        monitor.finalize(30e-3)
        assert monitor.as_dict()["objectives"][0]["windows_evaluated"] == 2

    def test_worst_watermark_tracks_direction(self):
        monitor = SLOMonitor()
        objective = monitor.add_objective("m p99 < 1ms over 1ms windows")
        monitor.observe("m", 2e-3, 0.1e-3)
        monitor.observe("m", 9e-3, 1.1e-3)
        monitor.observe("m", 0.5e-3, 2.1e-3)
        monitor.finalize(5e-3)
        assert objective.worst_value >= 9e-3

    def test_breach_cap_drops_oldest(self):
        monitor = SLOMonitor()
        monitor.max_breaches = 2
        monitor.add_objective("m p99 < 1us over 1ms windows")
        for i in range(5):
            monitor.observe("m", 1.0, i * 1e-3 + 0.5e-3)
        monitor.finalize(10e-3)
        assert len(monitor.breaches) == 2
        assert monitor.breaches_dropped == 3
        assert not monitor.ok

    def test_deployment_feed_records_commits(self):
        monitor = SLOMonitor()
        monitor.add_objective("sro.write_commit p99 < 1s over 10ms windows")
        monitor.add_objective("sro.write availability >= 0.5 over 10ms windows")
        _run_writes(FlightRecorder(), slo_monitor=monitor)
        assert monitor.samples > 0
        state = monitor.as_dict()
        assert state["ok"]
        assert all(o["windows_evaluated"] > 0 for o in state["objectives"])


class TestCriticalPathAnalyzer:
    def test_pipeline_constant_matches_switch_model(self):
        assert DEFAULT_PIPELINE_LATENCY == PIPELINE_LATENCY

    def test_clean_run_attribution(self):
        recorder = FlightRecorder()
        _run_writes(recorder)
        report = CriticalPathAnalyzer(recorder).report()
        assert len(report.writes) == 20
        assert report.skipped == 0
        for write in report.writes:
            assert write.attempts == 1
            assert abs(write.fraction_sum - 1.0) <= 1e-9
            # no faults: no waiting causes at all
            assert write.by_cause["retry_backoff"] == 0.0
            assert write.by_cause["leaderless_window"] == 0.0
            assert write.by_cause["controller_fencing"] == 0.0
            assert write.by_cause["link_propagation"] > 0.0
            assert write.by_cause["switch_pipeline"] > 0.0

    def test_segments_telescope_exactly(self):
        recorder = FlightRecorder()
        _run_writes(recorder)
        report = CriticalPathAnalyzer(recorder).report()
        for write in report.writes:
            covered = sum(s.duration for s in write.segments)
            assert covered == pytest.approx(write.latency, abs=1e-15)

    def test_loss_burst_charges_retry_backoff(self):
        recorder = FlightRecorder()
        _run_writes(
            recorder, n_writes=30,
            loss_burst=(5e-3, 6e-3, 0.7), duration=80e-3,
        )
        report = CriticalPathAnalyzer(recorder).report(tail_quantile=0.9)
        retried = [w for w in report.writes if w.attempts > 1]
        assert retried, "burst induced no retries"
        assert report.top_tail_cause() == "retry_backoff"
        assert report.fraction_sum_error_max <= 1e-9

    def test_leader_kill_charges_leaderless_window(self):
        recorder = FlightRecorder()
        dep, _ = _run_writes(
            recorder, n_writes=30,
            leader_kill=(5e-3, 40e-3), duration=0.12,
        )
        leaderless = dep.controller.leaderless_intervals(dep.sim.now)
        assert leaderless
        report = CriticalPathAnalyzer(recorder, leaderless=leaderless).report(
            tail_quantile=0.9
        )
        assert report.top_tail_cause() == "leaderless_window"
        assert report.fraction_sum_error_max <= 1e-9
        # without the intervals, the same waits read as plain backoff
        blind = CriticalPathAnalyzer(recorder).report(tail_quantile=0.9)
        assert blind.top_tail_cause() == "retry_backoff"

    def test_same_seed_byte_identical_reports(self):
        def one_report():
            recorder = FlightRecorder()
            _run_writes(
                recorder, n_writes=30,
                loss_burst=(5e-3, 6e-3, 0.7), duration=80e-3,
            )
            return CriticalPathAnalyzer(recorder).report(tail_quantile=0.9)

        first, second = one_report(), one_report()
        assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
            second.as_dict(), sort_keys=True
        )
        assert render_critpath(first.as_dict()) == render_critpath(second.as_dict())

    def test_truncated_chains_are_skipped_not_misattributed(self):
        recorder = FlightRecorder(max_records=64)  # evicts early spans
        _run_writes(recorder, n_writes=30)
        report = CriticalPathAnalyzer(recorder).report()
        assert report.skipped > 0
        for write in report.writes:
            assert abs(write.fraction_sum - 1.0) <= 1e-9

    def test_merge_hops_split_link_and_pipeline(self, make_deployment):
        from repro.core.registers import EwoMode

        recorder = FlightRecorder()
        dep, _, _ = make_deployment(3, flight_recorder=recorder)
        ctr = dep.declare(RegisterSpec("c", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
        dep.sim.schedule(1e-3, lambda: dep.manager("s0").register_increment(ctr, "c", 1))
        dep.sim.run(until=10e-3)
        hops = CriticalPathAnalyzer(recorder).analyze_merges()
        remote = [h for h in hops if h.src_node != h.dst_node]
        assert remote
        for hop in remote:
            assert hop.by_cause["switch_pipeline"] == pytest.approx(
                DEFAULT_PIPELINE_LATENCY
            )
            assert hop.by_cause["link_propagation"] == pytest.approx(
                hop.latency - DEFAULT_PIPELINE_LATENCY
            )


class TestDashboardPanels:
    def _report_dict(self):
        recorder = FlightRecorder()
        _run_writes(recorder)
        return CriticalPathAnalyzer(recorder).report().as_dict()

    def test_critpath_panel_is_byte_stable(self):
        report = self._report_dict()
        text = render_critpath(report)
        assert text == render_critpath(json.loads(json.dumps(report)))
        assert "critical paths" in text
        for cause in CAUSES:
            assert cause in text

    def test_slo_panel_is_byte_stable(self):
        monitor = SLOMonitor()
        monitor.add_objective("m p99 < 1ms over 10ms windows")
        monitor.observe("m", 5e-3, 12e-3)
        monitor.finalize(25e-3)
        state = monitor.as_dict()
        text = render_slo(state)
        assert text == render_slo(json.loads(json.dumps(state)))
        assert "breach events" in text

    def test_empty_inputs_render_placeholders(self):
        assert "no committed writes" in render_critpath(
            {"writes_analyzed": 0, "writes_skipped": 0}
        )
        assert "no SLO objectives" in render_slo({"objectives": []})
