"""EWO by the section: a received section merges in one loop and counts
once, and a sync round reuses its key order.

``_ParentMerge`` restores, as a test-local subclass, the receive path the
section loop replaced — one ``_merge_entry`` frame per entry through the
cell's ``apply``, the stats counted entry by entry.  It is swapped in
through ``__class__``; the same random messages (all three modes, stale,
duplicate, out-of-range-slot, non-int-slot, ``True``/``False``-slot,
slotless and older-``Timestamp`` entries, origins inside and outside
the group, mirrors with sections for groups the switch does not have)
are fed to both engines, and the cells, ``canonical_items()``, stats,
hybrid clock and merge outcomes must come out equal — which holds the
cell types' section merges to ``apply``'s ``isinstance`` and range
check.

``TestKeyOrder`` holds the cached sync order to ``sorted(cells,
key=repr)`` through every way a key gets a cell, a wipe, and the fault
injector's key pick.
"""

from __future__ import annotations

from typing import Any, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.faults import FaultInjector
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.crdt.clock import Timestamp
from repro.net.topology import Topology, build_full_mesh
from repro.protocols.ewo import EwoEngine
from repro.protocols.messages import EwoEntry, EwoMirror
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch

MODES = (EwoMode.LWW, EwoMode.COUNTER)
#: A group id no switch has: its sections are ignored.
UNKNOWN_GROUP = 999


# ----------------------------------------------------------------------
# The reference: the receive path as it was, entry by entry
# ----------------------------------------------------------------------
class _ParentMerge(EwoEngine):
    """Every section through its own ``_merge_section`` frame, every
    entry through its own ``_merge_entry`` frame and counted in the
    stats as it is merged.  A slotless entry (``version`` None) is at
    the origin's slot; an origin outside the group has none."""

    def handle_update(self, message, sync=False):
        for group_id, entries in message.sections:
            self._merge_section(message, group_id, entries, sync)

    def _merge_section(self, message, group_id, entries, is_sync):
        state = self.groups.get(group_id)
        if state is None:
            return
        origin_slot = state.slots.get(message.origin)
        if is_sync:
            state.stats.sync_packets_received += 1
        applied = stale = 0
        obs = self.obs
        outcomes = []
        for entry in entries:
            state.stats.updates_received += 1
            merged = self._merge_entry(state, entry, origin_slot)
            if merged:
                state.stats.merges_applied += 1
                applied += 1
            else:
                state.stats.merges_stale += 1
                stale += 1
            if obs.on:
                outcomes.append((entry.key, merged))
        if obs.on:
            obs.emit(
                "ewo.merge",
                self.switch.name,
                message.trace,
                group=group_id,
                origin=message.origin,
                sync=is_sync,
                applied=applied,
                stale=stale,
                outcomes=outcomes,
            )

    def _merge_entry(self, state, entry, origin_slot):
        stamp = entry.version
        if stamp is None:
            stamp = origin_slot
        elif isinstance(stamp, Timestamp):
            state.clock.witness(stamp)
        cell = state.cells.get(entry.key)
        if cell is None:
            cell = state.new_cell()
        try:
            merged = cell.apply(stamp, entry.value)
        except ValueError:
            return False
        state.cells[entry.key] = cell
        return merged


class _Watch:
    """An always-on observability spine that keeps what it is told."""

    on = True

    def __init__(self) -> None:
        self.events: List[Any] = []

    def emit(self, kind, node, ctx=None, /, **fields):
        self.events.append((kind, node, ctx, fields))


def _world(seed: int = 5):
    """Three switches, one group per mode (ids in ``MODES`` order), no
    gossip of their own."""
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed))
    switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 3)
    deployment = SwiShmemDeployment(sim, topo, switches, sync_period=10.0)
    specs = [
        deployment.declare(
            RegisterSpec(f"g-{mode.value}", Consistency.EWO, ewo_mode=mode, ewo_batch_size=100)
        )
        for mode in MODES
    ]
    return deployment, specs


def _snapshot(engine: EwoEngine):
    """Everything a merge may touch, per group."""
    return {
        gid: {
            "cells": [
                (key, type(cell).__name__, repr(cell), cell.canonical(), cell.read())
                for key, cell in state.cells.items()
            ],
            "items": state.canonical_items(),
            "stats": state.stats.as_dict(),
            "clock": (state.clock._last_time, state.clock._logical),
        }
        for gid, state in engine.groups.items()
    }


# ----------------------------------------------------------------------
# Random messages
# ----------------------------------------------------------------------
keys = st.sampled_from(["a", "b", "c", 7, ("t", 1)])
stamps = st.builds(
    Timestamp,
    st.sampled_from([-1.0, 0.0, 1e-6, 2e-6]),  # -1.0: older than any clock
    st.integers(0, 2),
    st.integers(0, 2),
)
ENTRIES = {
    EwoMode.LWW: st.builds(EwoEntry, keys, stamps, st.sampled_from(["x", "y", 3, None])),
    EwoMode.COUNTER: st.builds(
        EwoEntry,
        keys,
        # -1, 3 and 4 are out of range for three replicas; "1", 1.0 and
        # a stamp are not int slots: each is malformed and names nothing.
        # True and False are int slots (1 and 0).  None is the origin's
        # slot, malformed when the origin is not a member.
        st.one_of(
            st.integers(-1, 4),
            st.sampled_from(["1", 1.0, True, False, None]),
            st.none(),
            stamps,
        ),
        st.integers(0, 20),
    ),
}
#: Members (s1, s2) and a switch outside the group.
origins = st.sampled_from(["s1", "s2", "x9"])


@st.composite
def sections(draw):
    """``(group index or None for an unknown group, entries)``."""
    index = draw(st.sampled_from([0, 1, None]))
    mode = MODES[index] if index is not None else EwoMode.COUNTER
    return index, draw(st.lists(ENTRIES[mode], max_size=8))


messages = st.one_of(
    st.tuples(st.sampled_from(["update", "sync"]), origins, sections()),
    st.tuples(st.just("mirror"), origins, st.lists(sections(), min_size=1, max_size=3)),
)


def _message(kind, origin, body, specs):
    def gid(index):
        return specs[index].group_id if index is not None else UNKNOWN_GROUP

    if kind == "mirror":
        return EwoMirror(origin, [(gid(index), entries) for index, entries in body])
    index, entries = body
    return EwoMirror(origin, [(gid(index), entries)])


class TestSectionMergeMatchesParent:
    @settings(max_examples=80, deadline=None)
    @given(
        script=st.lists(messages, min_size=1, max_size=8),
        redeliver=st.integers(0, 4),
        watched=st.booleans(),
    )
    def test_random_messages_merge_as_the_parent_merged_them(self, script, redeliver, watched):
        # A replayed prefix: whole messages delivered twice.
        script = script + script[:redeliver]
        engines, watches = [], []
        for reference in (False, True):
            deployment, specs = _world()
            engine = deployment.manager("s0").ewo
            if reference:
                engine.__class__ = _ParentMerge
            if watched:
                engine.obs = _Watch()
            for kind, origin, body in script:
                engine.handle_update(_message(kind, origin, body, specs), kind == "sync")
            engines.append(engine)
            watches.append(engine.obs.events if watched else None)
        change, parent = engines
        assert _snapshot(change) == _snapshot(parent)
        assert watches[0] == watches[1]
        for state in change.groups.values():
            assert state.sorted_keys() == tuple(sorted(state.cells, key=repr))

    def test_a_section_counts_once_with_the_parents_totals(self):
        """Two stale, one applied, two malformed: received 5, applied 1,
        stale 4, and the outcomes name every entry in order."""
        deployment, specs = _world()
        engine = deployment.manager("s0").ewo
        engine.obs = _Watch()
        gid = specs[1].group_id
        entries = [
            EwoEntry("a", 1, 4),
            EwoEntry("a", 1, 4),  # duplicate: stale
            EwoEntry("z", 2, 0),  # stale, but names "z"
            EwoEntry("bad", 3, 9),  # out of range: stale, names nothing
            EwoEntry("bad", "1", 9),  # not an int: stale, names nothing
        ]
        engine.handle_update(EwoMirror("s1", [(gid, entries)]), True)
        stats = engine.stats_for(gid).as_dict()
        assert (stats["updates_received"], stats["merges_applied"], stats["merges_stale"],
                stats["sync_packets_received"]) == (5, 1, 4, 1)
        assert list(engine.groups[gid].cells) == ["a", "z"]
        (kind, node, _, fields), = engine.obs.events
        assert (kind, node, fields["sync"], fields["applied"], fields["stale"]) == (
            "ewo.merge", "s0", True, 1, 4)
        assert fields["outcomes"] == [
            ("a", True), ("a", False), ("z", False), ("bad", False), ("bad", False)]

    def test_an_unwatched_section_builds_no_outcomes(self, monkeypatch):
        deployment, specs = _world()
        engine = deployment.manager("s0").ewo
        assert not engine.obs.on
        monkeypatch.setattr(engine.obs, "emit", lambda *a, **k: pytest.fail("emitted"))
        gid = specs[0].group_id
        engine.handle_update(
            EwoMirror("s1", [(gid, [EwoEntry("a", Timestamp(1e-6, 0, 1), "x")])]))
        assert engine.local_state(gid) == {"a": "x"}
        # Witnessed first: the next local stamp is after the merged one.
        assert engine.groups[gid].clock.now() > Timestamp(1e-6, 0, 1)


# ----------------------------------------------------------------------
# The counter digest
# ----------------------------------------------------------------------
def _entries_digest(state):
    """The digest as sync rounds first computed it: each key with
    entries, in ``sorted_keys()`` order, with its cell's entries."""
    return tuple(
        (key, tuple(entries))
        for key in state.sorted_keys()
        if (entries := state.cells[key].entries())
    )


#: A replica's counter state: key -> its three slots (zeros included).
counter_states = st.dictionaries(
    st.sampled_from(["a", "b", 7, ("t", 1)]),
    st.lists(st.integers(0, 2), min_size=3, max_size=3),
    max_size=4,
)


class TestCounterDigest:
    @settings(max_examples=200, deadline=None)
    @given(left=counter_states, right=counter_states)
    def test_equal_exactly_when_the_entries_digests_are(self, left, right):
        deployment, specs = _world()
        gid = specs[1].group_id
        states = [deployment.manager(name).ewo.groups[gid] for name in ("s0", "s1")]
        for state, vectors in zip(states, (left, right)):
            for key, vector in vectors.items():
                state.cell_for(key)._vector[:] = vector
        new = [state.digest() for state in states]
        old = [_entries_digest(state) for state in states]
        assert (new[0] == new[1]) == (old[0] == old[1])
        for state, digest in zip(states, new):
            assert [key for key, _ in digest] == [key for key, _ in _entries_digest(state)]

    def test_a_counter_digest_is_the_frozen_vectors_of_keys_with_a_count(self):
        deployment, specs = _world()
        gid = specs[1].group_id
        state = deployment.manager("s0").ewo.groups[gid]
        for key, vector in (("b", [0, 2, 0]), ("a", [0, 0, 0]), ("c", [1, 0, 5])):
            state.cell_for(key)._vector[:] = vector
        assert state.digest() == (("b", (0, 2, 0)), ("c", (1, 0, 5)))
        # recomputed at every call: damage beneath the API shows at once
        state.cells["b"]._vector[1] = 1
        assert state.digest() == (("b", (0, 1, 0)), ("c", (1, 0, 5)))


# ----------------------------------------------------------------------
# The sync answer
# ----------------------------------------------------------------------
def _parent_sync_entries(state):
    """A sync answer as the engine built it key by key."""
    return [
        EwoEntry(key=key, version=version, value=value)
        for key in state.sorted_keys()
        for version, value in state.cells[key].entries()
    ]


#: A replica's LWW state: key -> (value, stamp), or None for a cell
#: that was created (by a stale merge) but never written.
lww_states = st.dictionaries(
    st.sampled_from(["a", "b", 7, ("t", 1)]),
    st.one_of(st.none(), st.tuples(st.sampled_from(["x", 3, None]), stamps)),
    max_size=4,
)


class TestSyncAnswer:
    @settings(max_examples=100, deadline=None)
    @given(vectors=counter_states, registers=lww_states)
    def test_the_answer_is_the_parents_entries_in_the_parents_order(self, vectors, registers):
        deployment, specs = _world()
        engine = deployment.manager("s0").ewo
        lww, counter = (engine.groups[spec.group_id] for spec in specs)
        for key, vector in vectors.items():
            counter.cell_for(key)._vector[:] = vector
        for key, written in registers.items():
            cell = lww.cell_for(key)
            if written is not None:
                cell._value, cell._version = written
        for state in (lww, counter):
            answer = engine._full_state_entries(state)
            assert answer == _parent_sync_entries(state)
            assert all(type(entry) is EwoEntry for entry in answer)


# ----------------------------------------------------------------------
# The key order
# ----------------------------------------------------------------------
def _sync_keys(engine: EwoEngine, gid: int) -> List[Any]:
    seen: List[Any] = []
    for entry in engine._full_state_entries(engine.groups[gid]):
        if not seen or seen[-1] != entry.key:
            seen.append(entry.key)
    return seen


def _in_repr_order(state) -> List[Any]:
    return sorted((key for key, cell in state.cells.items() if cell.entries()), key=repr)


class TestKeyOrder:
    def test_a_local_write_enters_the_next_sync_in_repr_order(self):
        deployment, specs = _world()
        manager = deployment.manager("s0")
        gid = specs[1].group_id
        for key in ("m", "c", "x"):
            assert _sync_keys(manager.ewo, gid) == _in_repr_order(manager.ewo.groups[gid])
            manager.register_increment(specs[1], key, 1)
        assert _sync_keys(manager.ewo, gid) == ["c", "m", "x"]

    def test_a_stale_merge_enters_the_order(self):
        deployment, specs = _world()
        engine = deployment.manager("s0").ewo
        spec = specs[1]
        deployment.manager("s0").register_increment(spec, "m", 1)
        assert engine.groups[spec.group_id].sorted_keys() == ("m",)
        # Stale (0 is not above 0) yet it names "c": the cell exists,
        # and the cached order must not keep it out.
        engine.handle_update(EwoMirror("s1", [(spec.group_id, [EwoEntry("c", 1, 0)])]))
        assert engine.stats_for(spec.group_id).merges_stale == 1
        assert engine.groups[spec.group_id].sorted_keys() == ("c", "m")

    def test_a_malformed_entry_never_enters_the_order(self):
        deployment, specs = _world()
        engine = deployment.manager("s0").ewo
        gid = specs[1].group_id
        before = engine.groups[gid].sorted_keys()
        engine.handle_update(EwoMirror("s1", [(gid, [
            EwoEntry("bad", 7, 9), EwoEntry("bad", "1", 9), EwoEntry("a", 2, 3)])]))
        state = engine.groups[gid]
        assert before == ()
        assert state.sorted_keys() == ("a",)
        assert "bad" not in state.cells
        assert _sync_keys(engine, gid) == ["a"]

    def test_a_seed_enters_the_order(self):
        deployment, specs = _world()
        engine = deployment.manager("s0").ewo
        spec = specs[0]
        deployment.manager("s0").register_write(spec, "q", 1)
        assert _sync_keys(engine, spec.group_id) == ["q"]
        engine.seed_group(spec.group_id, [("z", 1), ("a", 2)], Timestamp(0.0, 0, 2))
        assert _sync_keys(engine, spec.group_id) == ["a", "q", "z"]

    def test_after_a_wipe_the_order_regrows(self):
        deployment, specs = _world()
        manager = deployment.manager("s0")
        spec = specs[1]
        state = manager.ewo.groups[spec.group_id]
        for key in ("b", "a"):
            manager.register_increment(spec, key, 1)
        assert _sync_keys(manager.ewo, spec.group_id) == ["a", "b"]
        state.wipe()
        assert state.sorted_keys() == () and _sync_keys(manager.ewo, spec.group_id) == []
        manager.register_increment(spec, "c", 1)
        assert _sync_keys(manager.ewo, spec.group_id) == ["c"]
        manager.ewo.handle_update(EwoMirror("s1", [(spec.group_id, [EwoEntry("a", 1, 5)])]))
        assert _sync_keys(manager.ewo, spec.group_id) == ["a", "c"]

    def test_a_round_with_no_new_key_sorts_nothing(self, monkeypatch):
        deployment, specs = _world()
        manager = deployment.manager("s0")
        spec = specs[1]
        for key in ("b", "a"):
            manager.register_increment(spec, key, 1)
        order = manager.ewo.groups[spec.group_id].sorted_keys()
        manager.register_increment(spec, "a", 1)  # an existing key
        manager.ewo.handle_update(EwoMirror("s1", [(spec.group_id, [EwoEntry("b", 1, 2)])]))
        assert manager.ewo.groups[spec.group_id].sorted_keys() is order

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("index", [0, 1], ids=["lww", "counter"])
    def test_the_corrupted_key_is_the_one_the_parent_picked(self, seed, index):
        """``corrupt_register`` with no key draws from the cached order
        exactly what it drew from a fresh sort."""
        deployment, specs = _world()
        spec = specs[index]
        gid = spec.group_id
        engine = deployment.manager("s0").ewo
        state = engine.groups[gid]
        if index == 0:
            entries = [EwoEntry(k, Timestamp(1e-6, i, 1), i) for i, k in
                       enumerate(["k3", "a", 10, "k1", ("t", 2), "b"])]
            # A never-written LWW cell: not a corruption candidate.
            state.cell_for("never")
        else:
            entries = [EwoEntry(k, 1, 5) for k in ["k3", "a", 10, "k1", ("t", 2), "b"]]
        engine.handle_update(EwoMirror("s1", [(gid, entries[:3])]))
        state.sorted_keys()  # cache an order that the next merge outgrows
        engine.handle_update(EwoMirror("s1", [(gid, entries[3:])]))
        if index == 0:
            live = sorted((k for k, c in state.cells.items() if c.written), key=repr)
        else:
            live = sorted(state.cells, key=repr)
        expected = SeededRng(seed).stream("corrupt").choice(live)
        FaultInjector(deployment, seed=seed).corrupt_register(0.0, "s0", gid)
        deployment.sim.run(until=1e-6)
        (event,) = deployment.divergence_log
        assert event.key == expected
