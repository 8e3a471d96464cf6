"""Tests for the observability layer: metric instruments, the registry
(snapshot / JSONL export, pulled sources), the simulator's
profiler hook, and agreement between a live metrics snapshot and the
chaos invariant suite's verdicts."""

from __future__ import annotations

import json

import pytest

from repro.chaos import FaultInjector, InvariantSuite
from repro.core.registers import Consistency, RegisterSpec
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.sim.engine import Simulator


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("pkts", "s0")
        c.inc()
        c.inc(41)
        assert c.value == 42
        assert c.as_dict() == {
            "kind": "counter", "name": "pkts", "node": "s0", "value": 42
        }

    def test_gauge_tracks_high_water(self):
        g = Gauge("depth", "s0")
        g.set(3)
        g.dec()
        assert (g.value, g.max_value) == (2, 3)
        g.inc(5)
        assert (g.value, g.max_value) == (7, 7)
        g.dec(10)  # dec never moves the high-water mark
        assert (g.value, g.max_value) == (-3, 7)

    def test_histogram_buckets_and_percentiles(self):
        h = Histogram("lat", "s0", bounds=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.8, 4.0, 9.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(16.8)
        assert (h.min, h.max) == (0.5, 9.0)
        assert h.buckets == [1, 2, 1]
        assert h.overflow == 1
        # p50 interpolates within the bucket holding the median: rank
        # 2.5 is 0.75 of the way through the two samples in (1, 2].
        assert h.p50 == pytest.approx(1.75)
        # The first bucket's lower edge is the tracked minimum.
        assert h.percentile(0.1) == pytest.approx(0.75)
        # p99/p999 land in the overflow bucket and interpolate between
        # the last bound and the observed maximum.
        assert h.p99 == pytest.approx(8.8)
        assert h.p999 == pytest.approx(8.98)
        assert h.percentile(1.0) == 9.0
        assert h.mean == pytest.approx(16.8 / 5)

    def test_histogram_empty_percentile_is_zero(self):
        h = Histogram("lat", bounds=(1.0,))
        assert h.p50 == 0.0
        assert h.as_dict()["min"] == 0.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("lat", bounds=())
        with pytest.raises(ValueError):
            Histogram("lat", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", bounds=(1.0,)).percentile(1.5)


class TestRegistry:
    def test_instruments_are_deduplicated(self):
        reg = MetricsRegistry()
        assert reg.counter("a", "s0") is reg.counter("a", "s0")
        assert reg.counter("a", "s0") is not reg.counter("a", "s1")
        # same name under a different kind is a distinct instrument
        reg.gauge("a", "s0")
        assert len(reg) == 3

    def test_get_and_value(self):
        reg = MetricsRegistry()
        reg.counter("a", "s0").inc(7)
        assert reg.value("counter", "a", "s0") == 7
        assert reg.value("counter", "missing", default=-1) == -1
        assert reg.get("gauge", "a", "s0") is None

    def test_snapshot_groups_by_kind(self):
        reg = MetricsRegistry()
        reg.counter("c", "s0").inc()
        reg.gauge("g", "s0").set(2)
        reg.histogram("h", "s0").observe(1e-6)
        snap = reg.snapshot()
        assert [r["name"] for r in snap["counters"]] == ["c"]
        assert [r["name"] for r in snap["gauges"]] == ["g"]
        assert snap["histograms"][0]["count"] == 1

    def test_jsonl_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c", "s0").inc(3)
        reg.histogram("h", "s1", bounds=(1.0, 2.0)).observe(1.5)
        path = str(tmp_path / "metrics.jsonl")
        assert reg.write_jsonl(path) == 2
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        by_name = {r["name"]: r for r in records}
        assert by_name["c"]["value"] == 3
        assert by_name["h"]["buckets"] == [0, 1]

    def test_merge_semantics(self):
        """``Histogram.add`` folds bucket-wise (how the switch-owned
        queue-wait histograms of several worlds land in one registry)."""
        merged = Histogram("h", bounds=(1.0, 2.0))
        other = Histogram("h", bounds=(1.0, 2.0))
        merged.observe(0.5)
        other.observe(1.5)
        merged.add(other)
        merged.add(Histogram("h", bounds=(1.0, 2.0)))  # empty: extremes kept
        assert merged.count == 2
        assert merged.buckets == [1, 1]
        assert (merged.min, merged.max) == (0.5, 1.5)

    def test_merge_rejects_differing_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0,)).add(Histogram("h", bounds=(1.0, 2.0)))


class TestSources:
    """``add_source``: devices count, the registry reads."""

    def test_every_read_folds_the_source_in_and_none_accumulates(self, tmp_path):
        device = {"packets": 3}
        reg = MetricsRegistry()
        reg.counter("pushed", "s0").inc(7)
        reg.add_source(lambda into: into.counter("pulled", "s0").inc(device["packets"]))
        assert len(reg) == 2
        assert reg.value("counter", "pulled", "s0") == 3
        device["packets"] = 5
        assert reg.get("counter", "pulled", "s0").value == 5
        assert [i.value for i in reg.instruments()] == [5, 7]
        assert reg.snapshot()["counters"][0]["value"] == 5
        path = str(tmp_path / "m.jsonl")
        assert reg.write_jsonl(path) == 2
        with open(path, encoding="utf-8") as handle:
            assert json.loads(handle.readline())["value"] == 5
        assert reg.value("counter", "pushed", "s0") == 7

    def test_sources_reporting_one_instrument_add_into_it(self):
        reg = MetricsRegistry()
        for world in (2, 40):
            def read(into, world=world):
                into.counter("link.packets_sent", "a->b").inc(world)
                into.gauge("depth", "s0").set(world)
                into.histogram("wait", "s0").observe(world * 1e-6)
            reg.add_source(read)
        assert reg.value("counter", "link.packets_sent", "a->b") == 42
        gauge = reg.get("gauge", "depth", "s0")
        assert (gauge.value, gauge.max_value) == (40, 40)
        assert reg.get("histogram", "wait", "s0").count == 2

    def test_registering_a_source_twice_reads_it_once(self):
        reg = MetricsRegistry()

        def read(into):
            into.counter("pulled").inc(1)

        reg.add_source(read)
        reg.add_source(read)
        assert reg.value("counter", "pulled") == 1


class TestProfiler:
    def test_sim_runs_identically_with_profiler(self):
        class Passthrough:
            def dispatch(self, event):
                event.callback(*event.args)

        def run(profiled: bool) -> list:
            sim = Simulator()
            if profiled:
                sim.profiler = Passthrough()
            order = []
            sim.schedule(2e-6, lambda: order.append("b"))
            sim.schedule(1e-6, lambda: order.append("a"))
            sim.run()
            return order

        assert run(False) == run(True) == ["a", "b"]


class TestChaosAgreement:
    """A live metrics snapshot must agree with the invariant suite's own
    bookkeeping and with the controller's failure log — the property the
    chaos-soak benchmark asserts end to end."""

    def test_snapshot_matches_invariant_verdicts(self, make_deployment):
        registry = MetricsRegistry()
        dep, _, _ = make_deployment(4, metrics=registry)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=64))
        suite = InvariantSuite(dep).start(period=1e-3)
        injector = FaultInjector(dep, seed=5)
        injector.crash(3e-3, "s2")

        counter = [0]

        def workload() -> None:
            i = counter[0]
            counter[0] += 1
            dep.manager("s0").register_write(spec, f"k{i % 8}", i)
            if dep.sim.now < 20e-3:
                dep.sim.schedule(250e-6, workload)

        dep.sim.schedule(1e-3, workload)
        dep.sim.run(until=0.04)
        report = suite.finalize()

        assert report.ok
        # check / violation counters mirror the report exactly
        for monitor, checks in report.checks.items():
            assert registry.value(
                "counter", f"invariant.{monitor}.checks", "invariants"
            ) == checks
            assert registry.value(
                "counter", f"invariant.{monitor}.violations", "invariants"
            ) == sum(v.monitor == monitor for v in report.violations)
        assert registry.value(
            "counter", "invariant.commits_observed", "invariants"
        ) == len(suite.commit_times) > 0

        # the detection-latency histogram saw exactly the real failures
        real = [e for e in dep.controller.failures if not e.false_positive]
        assert real  # the crash was detected
        hist = registry.get(
            "histogram", "controller.detection_latency_seconds", "controller"
        )
        assert hist.count == len(real)
        assert hist.sum == pytest.approx(sum(e.detection_latency for e in real))
        assert registry.value(
            "counter", "controller.failures_detected", "controller"
        ) == len(dep.controller.failures)

        # hot-path instrumentation saw traffic
        assert registry.value("counter", "state.writes", "s0") == counter[0]
        commit_hist = registry.get(
            "histogram", "sro.write_commit_latency_seconds", "s0"
        )
        assert commit_hist is not None and commit_hist.count > 0

    def test_disabled_metrics_leave_no_instruments(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=5e-3)
        assert dep.metrics is None
        assert not dep.obs.on
