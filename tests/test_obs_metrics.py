"""Tests for the observability layer: metric instruments, the registry
(snapshot / merge / JSONL export), the no-op null registry, the sim
profiler, and agreement between a live
metrics snapshot and the chaos invariant suite's verdicts."""

from __future__ import annotations

import pytest

from repro.chaos import FaultInjector, InvariantSuite
from repro.core.registers import Consistency, RegisterSpec
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    load_jsonl,
    registry_from_records,
)
from repro.obs.dashboard import render_registry
from repro.obs.profiler import SimProfiler
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
        records = load_jsonl(path)
        by_name = {r["name"]: r for r in records}
        assert by_name["c"]["value"] == 3
        assert by_name["h"]["buckets"] == [0, 1]

    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.gauge("g").set(5)
        b.gauge("g").set(3)
        a.histogram("h", bounds=(1.0, 2.0)).observe(0.5)
        b.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        a.merge(b)
        assert a.value("counter", "c") == 3
        assert a.value("gauge", "g") == 5
        merged = a.get("histogram", "h")
        assert merged.count == 2
        assert merged.buckets == [1, 1]
        assert (merged.min, merged.max) == (0.5, 1.5)

    def test_jsonl_reload_merge_snapshot_round_trip(self, tmp_path):
        """The multi-run aggregation pipeline: write_jsonl -> load_jsonl
        -> registry_from_records -> merge -> snapshot reproduces what a
        single registry holding both runs would report."""
        run1, run2 = MetricsRegistry(), MetricsRegistry()
        for run, factor in ((run1, 1), (run2, 10)):
            run.counter("pkts", "s0").inc(3 * factor)
            run.gauge("depth", "s0").set(2 * factor)
            run.histogram("lat", "s0", bounds=(1.0, 2.0)).observe(0.5 * factor)
        paths = []
        for i, run in enumerate((run1, run2)):
            path = str(tmp_path / f"run{i}.jsonl")
            run.write_jsonl(path)
            paths.append(path)

        merged = registry_from_records(load_jsonl(paths[0]))
        merged.merge(registry_from_records(load_jsonl(paths[1])))

        assert merged.value("counter", "pkts", "s0") == 33
        gauge = merged.get("gauge", "depth", "s0")
        assert (gauge.value, gauge.max_value) == (20, 20)
        hist = merged.get("histogram", "lat", "s0")
        assert hist.count == 2
        assert (hist.min, hist.max) == (0.5, 5.0)
        assert hist.buckets == [1, 0]
        assert hist.overflow == 1
        # snapshots of the reconstruction and a directly merged registry
        # are byte-identical
        direct = run1.merge(run2)
        assert merged.snapshot() == direct.snapshot()

    def test_reloaded_empty_histogram_does_not_clobber_min(self, tmp_path):
        """An empty histogram serializes min as 0.0; reloading must
        restore the live sentinel so later merges keep the real
        minimum."""
        empty = MetricsRegistry()
        empty.histogram("lat", "s0", bounds=(1.0,))
        path = str(tmp_path / "empty.jsonl")
        empty.write_jsonl(path)

        restored = registry_from_records(load_jsonl(path))
        real = MetricsRegistry()
        real.histogram("lat", "s0", bounds=(1.0,)).observe(0.25)
        restored.merge(real)
        hist = restored.get("histogram", "lat", "s0")
        assert (hist.min, hist.max) == (0.25, 0.25)
        # and merging the empty side into the real side is also safe
        real2 = MetricsRegistry()
        real2.histogram("lat", "s0", bounds=(1.0,)).observe(0.25)
        real2.merge(registry_from_records(load_jsonl(path)))
        assert real2.get("histogram", "lat", "s0").min == 0.25

    def test_registry_from_records_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            registry_from_records([{"kind": "sketch", "name": "x", "node": "s0"}])

    def test_merge_rejects_differing_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0,))
        b.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_dashboard_renders_names(self):
        reg = MetricsRegistry()
        reg.counter("switch.rx_packets", "s0").inc(9)
        reg.histogram("sro.write_commit_latency_seconds", "s0").observe(30e-6)
        text = render_registry(reg, title="t")
        assert "switch.rx_packets" in text
        assert "sro.write_commit_latency_seconds" in text


class TestNullRegistry:
    def test_factories_return_shared_singletons(self):
        assert NULL_REGISTRY.counter("anything", "s0") is NULL_COUNTER
        assert NULL_REGISTRY.gauge("anything") is NULL_GAUGE
        assert NULL_REGISTRY.histogram("anything") is NULL_HISTOGRAM
        assert not NULL_REGISTRY.enabled

    def test_null_instruments_record_nothing(self):
        NULL_COUNTER.inc(100)
        NULL_GAUGE.set(100)
        NULL_HISTOGRAM.observe(100.0)
        assert NULL_COUNTER.value == 0
        assert (NULL_GAUGE.value, NULL_GAUGE.max_value) == (0, 0)
        assert NULL_HISTOGRAM.count == 0

    def test_null_registry_stays_empty(self):
        NULL_REGISTRY.counter("x", "s0")
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.snapshot() == {
            "counters": [], "gauges": [], "histograms": []
        }


class _FakeClock:
    """Deterministic clock: each reading advances by ``tick``."""

    def __init__(self, tick: float = 0.5) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        value = self.now
        self.now += self.tick
        return value


class TestProfiler:
    def test_attributes_wall_time_to_labels(self):
        sim = Simulator()
        profiler = SimProfiler(clock=_FakeClock()).install(sim)
        assert sim.profiler is profiler

        def unlabeled() -> None:
            pass

        sim.schedule(1e-6, lambda: None, label="tick")
        sim.schedule(2e-6, lambda: None, label="tick")
        sim.schedule(3e-6, unlabeled)
        sim.run()
        assert profiler.events_profiled == 3
        # the fake clock makes every dispatch cost exactly one tick
        tick = profiler.stats("tick")
        assert tick.events == 2
        assert tick.wall_seconds == pytest.approx(1.0)
        assert tick.mean_seconds == pytest.approx(0.5)
        # unlabeled events fall back to the callback's qualified name
        assert profiler.stats(unlabeled.__qualname__).events == 1
        assert profiler.top(1)[0].label == "tick"
        assert "tick" in profiler.report()
        profiler.uninstall(sim)
        assert sim.profiler is None

    def test_sim_runs_identically_with_profiler(self):
        def run(profiled: bool) -> list:
            sim = Simulator()
            if profiled:
                SimProfiler(clock=_FakeClock()).install(sim)
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
            ) == report.count(monitor)
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
