"""Tests for the streaming access profiler and the consistency advisor:
windowed counters, top-K promotion/eviction over the count-min tail
(and the scan-skipping floor against a scan-every-time reference),
hot-path hook integration, observer neutrality (instrumented runs are
byte-identical to uninstrumented ones), replay reproducibility of the
windowed stats, the advisor's zero-hand-label classification, and the
dashboard's access-profile panel."""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.nf.firewall import FirewallNF
from repro.nf.ratelimiter import RateLimiterNF
from repro.obs import (
    AccessProfiler,
    ConsistencyAdvisor,
    render_access_profile,
)
from repro.obs import accessprof
from repro.obs.accessprof import DEFAULT_TOP_K, GroupProfile, KeyProfile, WindowedCount
from repro.sim.random import SeededRng
from repro.workload.flows import FlowGenerator
from repro.workload.zipf import ZipfSampler
from repro.testing import build_nf_world


def _spec(name: str, consistency: Consistency, group_id: int, **kwargs) -> RegisterSpec:
    spec = RegisterSpec(name, consistency, **kwargs)
    spec.group_id = group_id
    return spec


def _run_firewall(seed: int = 7, profiler: AccessProfiler = None, flows: int = 10):
    kwargs = {} if profiler is None else {"access_profiler": profiler}
    world = build_nf_world(seed=seed, **kwargs)
    world.deployment.install_nf(FirewallNF)
    generator = FlowGenerator(
        world.sim,
        world.clients,
        world.server_ips(),
        world.rng,
        flow_rate=4000,
        data_packets=4,
        inter_packet_gap=2e-3,
    )
    generator.start(duration=flows / 4000)
    world.sim.run(until=0.12)
    return world


def _export(prof: AccessProfiler) -> str:
    """Everything the profiler hands a reader — group totals, windowed
    rates and the hot-key ranking — as the advisor's JSON report."""
    return json.dumps(ConsistencyAdvisor(prof, packets=1).report(), sort_keys=True)


def _digest(world) -> str:
    """Event-history digest: kernel event count, per-host injections, and
    the firewall table's replica states."""
    spec = world.deployment.spec_by_name("fw_conntrack")
    stores = tuple(
        tuple(sorted(store.items(), key=lambda kv: repr(kv[0])))
        for store in world.deployment.sro_stores(spec)
    )
    history = (
        world.sim.events_processed,
        tuple(h.sent_count for h in world.clients + world.servers),
        stores,
    )
    return hashlib.sha256(repr(history).encode("utf-8")).hexdigest()


class TestWindowedCount:
    def test_counts_within_one_window(self):
        wc = WindowedCount(window=1e-3)
        wc.add(0.1e-3)
        wc.add(0.2e-3, amount=2)
        assert wc.total == 3
        assert wc.windowed(0.5e-3) == pytest.approx(3.0)

    def test_sliding_interpolation_across_roll(self):
        wc = WindowedCount(window=1e-3)
        for _ in range(4):
            wc.add(0.5e-3)
        wc.add(1.1e-3)  # rolls: previous=4, current=1
        # 30% into the new window: 1 + 0.7 * 4
        assert wc.windowed(1.3e-3) == pytest.approx(1 + 0.7 * 4)
        assert wc.rate(1.3e-3) == pytest.approx((1 + 0.7 * 4) / 1e-3)

    def test_stale_windows_decay_to_zero(self):
        wc = WindowedCount(window=1e-3)
        wc.add(0.5e-3, amount=9)
        # one full window later the count only lingers via interpolation
        assert wc.windowed(1.0e-3) == pytest.approx(9.0)
        # two windows later it is gone, but the lifetime total remains
        assert wc.windowed(2.5e-3) == 0.0
        assert wc.total == 9

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            WindowedCount(window=0.0)


class TestTopKPromotion:
    def test_first_k_keys_are_exact(self):
        prof = AccessProfiler(top_k=2)
        group = prof.describe_group(_spec("g", Consistency.EWO, 1))
        prof.on_write(1, "a", "s0", 1e-3)
        prof.on_write(1, "b", "s0", 2e-3)
        assert set(group.keys) == {"a", "b"}
        assert group.promotions == 2 and group.evictions == 0

    def test_tail_key_promotes_past_weakest(self):
        prof = AccessProfiler(top_k=2)
        group = prof.describe_group(_spec("g", Consistency.EWO, 1))
        prof.on_write(1, "a", "s0", 1e-3)
        for _ in range(3):
            prof.on_write(1, "b", "s0", 2e-3)
        # "c" lands in the sketch tail until its estimate beats the
        # weakest exact resident ("a", 1 access)
        prof.on_write(1, "c", "s0", 3e-3)
        assert "c" not in group.keys
        prof.on_write(1, "c", "s0", 4e-3)
        assert "c" in group.keys and "a" not in group.keys
        assert group.evictions == 1
        # the promoted record carries its tail life forward: the one
        # access before the promoting one, which is counted in writes
        promoted = group.keys["c"]
        assert promoted.prior == 1 and promoted.writes == 1
        assert promoted.accesses == 2
        # group-level totals were never lossy
        assert group.writes == 6

    def test_promoting_access_is_counted_once(self):
        prof = AccessProfiler(top_k=1)
        group = prof.describe_group(_spec("g", Consistency.EWO, 1))
        prof.on_read(1, "a", "s0", 1e-3)
        prof.on_read(1, "b", "s0", 2e-3)
        prof.on_read(1, "b", "s0", 3e-3)
        promoted = group.keys["b"]
        assert (promoted.prior, promoted.reads, promoted.accesses) == (1, 1, 2)
        assert promoted.as_dict(3e-3)["tail_estimate"] == 1

    def test_hot_key_ranking_is_deterministic(self):
        prof = AccessProfiler(top_k=4)
        prof.describe_group(_spec("g", Consistency.EWO, 1))
        for count, key in ((5, "x"), (3, "y"), (1, "z")):
            for _ in range(count):
                prof.on_write(1, key, "s0", 1e-3)
        ranked = prof.hot_keys(limit=3)
        assert [k["key"] for k in ranked] == ["'x'", "'y'", "'z'"]

    def test_default_top_k_is_bounded(self):
        prof = AccessProfiler()
        group = prof.describe_group(_spec("g", Consistency.EWO, 1))
        for i in range(4 * DEFAULT_TOP_K):
            prof.on_write(1, f"k{i}", "s0", 1e-3)
        assert len(group.keys) <= DEFAULT_TOP_K
        assert group.writes == 4 * DEFAULT_TOP_K


class _ScanEveryTime(GroupProfile):
    """The top-K table before the floor: every tail access finds the
    weakest resident by scanning.  The reference the real one must match
    state for state."""

    def key_profile(self, key):
        profile = self.keys.get(key)
        if profile is not None:
            return profile
        if len(self.keys) < self.top_k:
            profile = self.keys[key] = KeyProfile(key, self.read_activity.window)
            self.promotions += 1
            return profile
        estimate = self.sketch.add(key)
        weakest = min(self.keys.values(), key=lambda p: (p.accesses, repr(p.key)))
        if estimate <= weakest.accesses:
            return None
        self.sketch.add(weakest.key, weakest.reads + weakest.writes)
        del self.keys[weakest.key]
        self.evictions += 1
        self.promotions += 1
        profile = self.keys[key] = KeyProfile(
            key, self.read_activity.window, prior=estimate - 1
        )
        return profile


def _table(group: GroupProfile):
    """What the top-K machinery decides, dict insertion order included."""
    return (
        [(p.key, p.prior, p.reads, p.writes) for p in group.keys.values()],
        group.promotions,
        group.evictions,
        group.sketch._rows,
    )


def _profiled_group(top_k: int, sketch_width: int = 512):
    prof = AccessProfiler(top_k=top_k, sketch_width=sketch_width)
    return prof, prof.describe_group(_spec("g", Consistency.EWO, 1))


def _count_scans(monkeypatch):
    """Shadow the profiler module's ``min`` (the table scan is its one
    use) with a wrapper that counts calls."""
    scans = []

    def counting_min(*args, **kwargs):
        scans.append(1)
        return min(*args, **kwargs)

    monkeypatch.setattr(accessprof, "min", counting_min, raising=False)
    return scans


class TestResidencyFloor:
    @given(
        alphabet=st.integers(2, 40),
        top_k=st.integers(1, 8),
        sketch_width=st.integers(4, 64),
        stream=st.lists(
            st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.booleans()),
            max_size=300,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_scan_every_time_table(self, alphabet, top_k, sketch_width, stream):
        real, group = _profiled_group(top_k, sketch_width)
        ref = AccessProfiler(top_k=top_k, sketch_width=sketch_width)
        reference = ref.groups[1] = _ScanEveryTime(
            1, "g", "ewo", None, ref.window, top_k, ref.sketch_depth, sketch_width
        )
        for step, (u, is_write) in enumerate(stream):
            key = f"k{int(u ** 3 * alphabet)}"  # cubed: low ranks are hot
            for prof in (real, ref):
                if is_write:
                    prof.on_write(1, key, "s0", step * 1e-5)
                else:
                    prof.on_read(1, key, "s0", step * 1e-5)
            assert _table(group) == _table(reference)
            assert group.floor <= min(p.accesses for p in group.keys.values())

    def test_scans_are_bounded_by_evictions_plus_floor(self, monkeypatch):
        scans = _count_scans(monkeypatch)
        prof, group = _profiled_group(DEFAULT_TOP_K)
        keys = ZipfSampler(500, 1.2, rng=SeededRng(22).stream("keys"))
        tail_accesses = 0
        for step in range(20_000):
            key = keys.sample()
            if len(group.keys) == group.top_k and key not in group.keys:
                tail_accesses += 1  # the parent scanned on each of these
            prof.on_read(1, key, "s0", step * 1e-6)
        assert group.evictions > 0 and tail_accesses > 2_000
        assert 0 < len(scans) <= group.evictions + group.floor
        assert 10 * len(scans) < tail_accesses

    def test_equal_keys_round_robin_scans_once_a_round(self, monkeypatch):
        # The worst case for the shortcut: the tail keeps level with the
        # table, so every round lifts some estimate over the floor.
        scans = _count_scans(monkeypatch)
        prof, group = _profiled_group(top_k=8)
        rounds = 50
        for step in range(rounds):
            for key in range(2 * group.top_k):
                prof.on_write(1, key, "s0", step * 1e-4)
        assert len(scans) == rounds
        assert group.evictions == 0 and group.floor == rounds


class TestHookIntegration:
    def test_firewall_world_is_profiled(self):
        prof = AccessProfiler()
        world = _run_firewall(profiler=prof)
        group = prof.group("fw_conntrack")
        assert group.nf == "firewall"
        assert group.declared == "sro"
        assert group.reads > group.writes > 0
        # connection writes originate in the packet path, on >= 2 switches
        assert group.writes_dataplane == group.writes
        assert group.ops == {"overwrite": group.writes}
        assert group.sharing_nodes >= 2
        # chain replication applied updates at non-initiating members
        assert group.applies > 0
        assert group.keys  # per-flow records were tracked

    def test_control_plane_writes_are_attributed(self, make_deployment):
        prof = AccessProfiler()
        dep, _, _ = make_deployment(3, access_profiler=prof)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO, capacity=16))
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=5e-3)
        group = prof.group("reg")
        assert group.writes_control == group.writes == 1
        assert group.writes_dataplane == 0

    def test_ewo_merges_are_counted(self, make_deployment):
        prof = AccessProfiler()
        dep, _, _ = make_deployment(3, access_profiler=prof)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        dep.manager("s0").register_increment(spec, "k", 1)
        dep.manager("s1").register_increment(spec, "k", 1)
        dep.sim.run(until=10e-3)
        group = prof.group("ctr")
        assert group.ops.get("increment") == 2
        assert group.commutative_write_fraction == 1.0
        assert group.merges_applied > 0


class TestObserverNeutrality:
    def test_instrumented_run_is_byte_identical(self):
        baseline = _digest(_run_firewall())
        prof = AccessProfiler()
        instrumented = _digest(_run_firewall(profiler=prof))
        assert prof.events > 0
        assert instrumented == baseline

    def test_windowed_stats_reproduce_across_replays(self):
        def snapshot():
            prof = AccessProfiler()
            world = _run_firewall(profiler=prof)
            return _digest(world), _export(prof)

        first_digest, first_snap = snapshot()
        second_digest, second_snap = snapshot()
        assert first_digest == second_digest
        assert first_snap == second_snap

    def test_different_seed_changes_the_profile(self):
        prof_a, prof_b = AccessProfiler(), AccessProfiler()
        _run_firewall(seed=7, profiler=prof_a)
        _run_firewall(seed=8, profiler=prof_b)
        assert _export(prof_a) != _export(prof_b)


class TestNullProfiler:
    def test_deployment_defaults_to_null(self, make_deployment):
        dep, _, _ = make_deployment(3)
        assert dep.access_profiler is None
        assert not dep.obs.on


class TestAdvisor:
    """Synthetic profiles exercise each branch of the decision ladder."""

    def _profiler(self):
        prof = AccessProfiler()
        prof.describe_group(_spec("meter", Consistency.EWO, 1, ewo_mode=EwoMode.COUNTER))
        prof.describe_group(_spec("flows", Consistency.SRO, 2))
        prof.describe_group(_spec("rules", Consistency.ERO, 3))
        prof.describe_group(_spec("idle", Consistency.SRO, 4))
        return prof

    def test_decision_ladder(self):
        prof = self._profiler()
        packets = 100
        for i in range(packets):
            now = i * 1e-5
            # meter: commutative write on every packet
            prof.on_write(1, "src", "s0", now, op="increment")
            # flows: read every packet, data-plane write per ~10 packets
            prof.on_read(2, f"f{i % 4}", "s0", now)
            if i % 10 == 0:
                prof.on_write(2, f"f{i % 4}", "s1", now)
            # rules: read every packet, one control-plane write total
            prof.on_read(3, "sig", "s0", now)
        prof.on_write(3, "sig", "s0", 1e-3, origin="control")

        advisor = ConsistencyAdvisor(prof, packets=packets)
        advice = {a.name: a for a in advisor.advise()}
        assert advice["meter"].pattern == "write-per-packet"
        assert advice["meter"].recommended == "ewo"
        assert advice["flows"].pattern == "read-heavy"
        assert advice["flows"].recommended == "sro"
        assert advice["flows"].write_freq == "New connection"
        assert advice["rules"].pattern == "single-writer"
        assert advice["rules"].recommended == "ero"
        assert advice["rules"].write_freq == "Low"
        assert advice["idle"].pattern == "idle"
        assert advice["idle"].confidence == "low"
        assert advice["idle"].recommended == "sro"  # keeps the declaration
        # everything agreed with its declaration: no mismatches
        assert advisor.mismatches() == []

    def test_mergeable_low_rate_writes_go_to_ewo(self):
        prof = AccessProfiler()
        prof.describe_group(_spec("sets", Consistency.EWO, 1, ewo_mode=EwoMode.ORSET))
        for i in range(3):
            prof.on_write(1, "members", "s0", i * 1e-3, op="set_add")
        advice = ConsistencyAdvisor(prof, packets=1000).advice_for("sets")
        assert advice.pattern == "mergeable"
        assert advice.recommended == "ewo" and not advice.mismatch

    def test_misdeclared_group_is_flagged_high_confidence(self):
        prof = AccessProfiler()
        prof.describe_group(_spec("meter", Consistency.SRO, 1))
        for i in range(50):
            prof.on_write(1, "src", "s0", i * 1e-5)
        advisor = ConsistencyAdvisor(prof, packets=50)
        (mismatch,) = advisor.mismatches()
        assert mismatch.name == "meter"
        assert mismatch.declared == "sro" and mismatch.recommended == "ewo"
        assert mismatch.confidence == "high"

    def test_low_confidence_is_excluded_from_mismatch_report(self):
        prof = AccessProfiler()
        prof.describe_group(_spec("ghost", Consistency.EWO, 1))
        prof.on_read(1, "k", "s0", 1e-3)  # read-only: advice is a guess
        advisor = ConsistencyAdvisor(prof, packets=100)
        advice = advisor.advice_for("ghost")
        assert advice.mismatch and advice.confidence == "low"
        assert advisor.mismatches() == []

    def test_rejects_negative_packets(self):
        with pytest.raises(ValueError):
            ConsistencyAdvisor(AccessProfiler(), packets=-1)

    def test_report_and_dashboard_render(self):
        prof = AccessProfiler()
        world = build_nf_world(
            seed=11, responder_servers=False, access_profiler=prof
        )
        world.deployment.install_nf(
            RateLimiterNF, limit_bps=1e9, window=20e-3
        )
        generator = FlowGenerator(
            world.sim, world.clients, world.server_ips(), world.rng,
            flow_rate=4000, data_packets=4, inter_packet_gap=100e-6,
        )
        generator.start(duration=10 / 4000)
        world.sim.run(until=0.12)
        packets = sum(h.sent_count for h in world.clients + world.servers)
        report = ConsistencyAdvisor(prof, packets=packets).report(hot_keys=4)
        assert report["packets"] == packets
        assert len(report["hot_keys"]) <= 4

        text = render_access_profile(report)
        assert "rl_usage" in text and "EWO" in text
