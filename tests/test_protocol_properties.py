"""Property-based protocol tests: random op schedules through the full
simulator must preserve each protocol's core invariant.

These are the heaviest properties in the suite, so example counts are
kept modest; each example builds a fresh 3-switch deployment and runs a
randomized schedule to quiescence.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.linearizability import check_history
from repro.analysis.metrics import replica_divergence
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.topology import Topology, build_full_mesh
from repro.protocols.ewo import MERGE_TYPES
from repro.protocols.messages import EwoMirror
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch


def fresh_deployment(seed: int, loss_rate: float = 0.0, record_history: bool = False):
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed))
    switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 3, loss_rate=loss_rate)
    return sim, SwiShmemDeployment(
        sim, topo, switches, sync_period=1e-3, record_history=record_history
    )


# one operation: (switch 0-2, key 0-3, op-specific payload)
counter_ops = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(1, 5)),
    min_size=1,
    max_size=25,
)
lww_ops = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 99)),
    min_size=1,
    max_size=25,
)


class TestEwoConvergenceProperties:
    @given(ops=counter_ops, seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_counter_replicas_converge_to_exact_sum(self, ops, seed):
        sim, dep = fresh_deployment(seed)
        spec = dep.declare(
            RegisterSpec("c", Consistency.EWO, ewo_mode=EwoMode.COUNTER, capacity=16)
        )
        totals = {}
        for i, (switch, key, amount) in enumerate(ops):
            sim.schedule(
                i * 17e-6,
                lambda s=switch, k=key, a=amount: dep.manager(f"s{s}").register_increment(
                    spec, f"k{k}", a
                ),
            )
            totals[f"k{key}"] = totals.get(f"k{key}", 0) + amount
        sim.run(until=len(ops) * 17e-6 + 10e-3)
        states = dep.ewo_states(spec)
        assert replica_divergence(states) == 0
        assert states[0] == totals

    @given(ops=counter_ops, seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_counter_converges_despite_heavy_loss(self, ops, seed):
        sim, dep = fresh_deployment(seed, loss_rate=0.35)
        spec = dep.declare(
            RegisterSpec("c", Consistency.EWO, ewo_mode=EwoMode.COUNTER, capacity=16)
        )
        totals = {}
        for i, (switch, key, amount) in enumerate(ops):
            sim.schedule(
                i * 17e-6,
                lambda s=switch, k=key, a=amount: dep.manager(f"s{s}").register_increment(
                    spec, f"k{k}", a
                ),
            )
            totals[f"k{key}"] = totals.get(f"k{key}", 0) + amount
        sim.run(until=len(ops) * 17e-6 + 0.3)  # many sync rounds
        states = dep.ewo_states(spec)
        assert replica_divergence(states) == 0
        assert states[0] == totals

    @given(ops=lww_ops, seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_lww_replicas_converge_to_single_winner(self, ops, seed):
        sim, dep = fresh_deployment(seed)
        spec = dep.declare(
            RegisterSpec("l", Consistency.EWO, ewo_mode=EwoMode.LWW, capacity=16)
        )
        written = {}
        for i, (switch, key, value) in enumerate(ops):
            sim.schedule(
                i * 17e-6,
                lambda s=switch, k=key, v=value: dep.manager(f"s{s}").register_write(
                    spec, f"k{k}", v
                ),
            )
            written.setdefault(f"k{key}", set()).add(value)
        sim.run(until=len(ops) * 17e-6 + 10e-3)
        states = dep.ewo_states(spec)
        assert replica_divergence(states) == 0
        for key, value in states[0].items():
            assert value in written[key]  # winner was actually written


# one pass: the writes one packet makes — (key 0-3, small int)
pass_writes = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)), min_size=1, max_size=8)
# ... and to one of three groups — (group 0-2, key 0-3, small int)
multi_group_pass_writes = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 5)),
    min_size=1,
    max_size=8,
)


def write(manager, spec, key, n):
    """One pass write in ``spec``'s mode: a counter adds n + 1, an LWW
    register takes n."""
    if spec.ewo_mode is EwoMode.COUNTER:
        manager.register_increment(spec, key, n + 1)
    else:
        manager.register_write(spec, key, n)


class TestCoalescingProperty:
    """Why one egress mirror per pass cannot change what converges: a
    CRDT merge is applied entry by entry, so how a pass's entries are
    cut into update packets, or its groups packed into one mirror, is
    invisible to the replica."""

    @given(
        mode=st.sampled_from(sorted(MERGE_TYPES, key=lambda m: m.value)),
        passes=st.lists(pass_writes, min_size=1, max_size=4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_update_per_pass_merges_like_one_update_per_entry(self, mode, passes, seed):
        sim, dep = fresh_deployment(seed)
        spec = dep.declare(
            RegisterSpec(
                "g", Consistency.EWO, ewo_mode=mode, capacity=16, ewo_batch_size=10**9
            )
        )
        writer = dep.manager("s0")
        pending = writer.ewo.groups[spec.group_id]
        per_pass, per_entry = (dep.manager(n).ewo for n in ("s1", "s2"))

        def update(entries):
            return EwoMirror("s0", [(spec.group_id, entries)])

        for writes in passes:
            for key, n in writes:
                write(writer, spec, key, n)
            entries, pending._pending_entries = pending._pending_entries, []
            per_pass.handle_update(update(entries))
            for entry in entries:
                per_entry.handle_update(update([entry]))
        coalesced = per_pass.groups[spec.group_id]
        assert coalesced.canonical_items() == per_entry.groups[spec.group_id].canonical_items()
        assert per_pass.local_state(spec.group_id) == {
            key: value
            for key, value in writer.ewo.local_state(spec.group_id).items()
            if key in coalesced.cells
        }

    @given(
        mode=st.sampled_from(sorted(MERGE_TYPES, key=lambda m: m.value)),
        passes=st.lists(multi_group_pass_writes, min_size=1, max_size=4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_mirror_per_pass_merges_like_one_update_per_group(self, mode, passes, seed):
        """The pass's writes to three groups, as one k-section mirror
        (sections in first-write order) on s1 and as k one-section
        mirrors, one update per group, on s2."""
        sim, dep = fresh_deployment(seed)
        specs = [
            dep.declare(RegisterSpec(
                f"g{i}", Consistency.EWO, ewo_mode=mode, capacity=16, ewo_batch_size=10**9
            ))
            for i in range(3)
        ]
        writer = dep.manager("s0")
        mirrored, per_group = (dep.manager(n).ewo for n in ("s1", "s2"))
        for writes in passes:
            for group, key, n in writes:
                write(writer, specs[group], key, n)
            sections = []
            for group in dict.fromkeys(group for group, *_ in writes):
                state = writer.ewo.groups[specs[group].group_id]
                entries, state._pending_entries = state._pending_entries, []
                sections.append((state.spec.group_id, entries))
            mirrored.handle_update(EwoMirror("s0", sections))
            for group_id, entries in sections:
                per_group.handle_update(EwoMirror("s0", [(group_id, entries)]))
        for spec in specs:
            merged = mirrored.groups[spec.group_id]
            assert merged.canonical_items() == per_group.groups[spec.group_id].canonical_items()
            assert mirrored.stats_for(spec.group_id).as_dict() == (
                per_group.stats_for(spec.group_id).as_dict()
            )
            assert mirrored.local_state(spec.group_id) == {
                key: value
                for key, value in writer.ewo.local_state(spec.group_id).items()
                if key in merged.cells
            }


class TestSroProperties:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 99)),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_writes_agree_and_linearize(self, ops, seed):
        sim, dep = fresh_deployment(seed, record_history=True)
        spec = dep.declare(RegisterSpec("r", Consistency.SRO, capacity=16))
        for i, (switch, key, value) in enumerate(ops):
            sim.schedule(
                i * 37e-6,
                lambda s=switch, k=key, v=value: dep.manager(f"s{s}").register_write(
                    spec, f"k{k}", v
                ),
            )
        sim.run(until=len(ops) * 37e-6 + 50e-3)
        stores = dep.sro_stores(spec)
        assert all(store == stores[0] for store in stores)
        committed = sum(
            dep.manager(n).sro.stats_for(spec.group_id).writes_committed
            for n in dep.switch_names
        )
        assert committed == len(ops)
        report = check_history(dep.history)
        assert report.ok, report.violations

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_writes_commit_under_random_loss_seed(self, seed):
        sim, dep = fresh_deployment(seed, loss_rate=0.25)
        spec = dep.declare(RegisterSpec("r", Consistency.SRO, capacity=16))
        for i in range(8):
            sim.schedule(
                i * 100e-6,
                lambda i=i: dep.manager(f"s{i % 3}").register_write(spec, f"k{i}", i),
            )
        sim.run(until=2.0)
        stores = dep.sro_stores(spec)
        assert all(len(store) == 8 for store in stores)
        assert all(store == stores[0] for store in stores)
