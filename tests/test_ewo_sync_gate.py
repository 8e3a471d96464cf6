"""EWO sync asks before it ships: a periodic round is a digest probe,
and the probed member answers with its full state only when its digest
differs.

Each test names the mutation of ``repro.protocols.ewo`` it catches.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.faults import FaultInjector
from repro.core.manager import SwiShmemDeployment
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.crdt.clock import Timestamp
from repro.net.topology import Topology, build_full_mesh
from repro.protocols.messages import EwoEntry, EwoMirror
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch

PERIOD = 1e-3


def _world(n: int = 3, sync_period: float = 10.0, batch: int = 100, seed: int = 5):
    """``n`` switches, one counter and one LWW group.  By default no
    round runs on its own and writes stay queued (the batch threshold
    holds them back), so only the rounds a test drives move state."""
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed))
    switches = build_full_mesh(topo, lambda name: PisaSwitch(name, sim), n)
    deployment = SwiShmemDeployment(sim, topo, switches, sync_period=sync_period)
    counter = deployment.declare(
        RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER, ewo_batch_size=batch)
    )
    lww = deployment.declare(
        RegisterSpec("lww", Consistency.EWO, ewo_mode=EwoMode.LWW, ewo_batch_size=batch)
    )
    return deployment, counter, lww


def _shipped(engine, group_id: int) -> Tuple[Tuple[Any, Any, Any], ...]:
    """What a full sync round from ``engine`` ships for the group."""
    state = engine.groups[group_id]
    return tuple((e.key, e.version, e.value) for e in engine._full_state_entries(state))


def _stats(deployment, group_id: int, field: str) -> int:
    return sum(
        getattr(deployment.manager(name).ewo.stats_for(group_id), field)
        for name in deployment.switch_names
    )


def _probe(deployment, prober: str, target: str, group_id: int) -> None:
    """One regular round from ``prober``, its random pick pinned to
    ``target``, run until the answer (if any) has landed."""
    engine = deployment.manager(prober).ewo
    engine._sync_rng.choice = lambda others: target
    assert engine.sync_tick(group_id) == 1
    deployment.sim.run(until=deployment.sim.now + PERIOD)


# ----------------------------------------------------------------------
# The digest is a function of exactly what a round ships
# ----------------------------------------------------------------------
KEYS = st.sampled_from(["a", "b", ("t", 1)])

COUNTER_OPS = st.one_of(
    st.tuples(st.just("inc"), KEYS, st.integers(0, 2)),
    st.tuples(st.just("merge"), KEYS, st.integers(0, 2), st.integers(0, 3)),
    st.just(("wipe",)),
)

LWW_OPS = st.one_of(
    st.tuples(st.just("write"), KEYS, st.integers(0, 1)),
    st.tuples(
        st.just("merge"), KEYS,
        st.builds(
            Timestamp, st.sampled_from([1e-3, 2e-3]), st.integers(0, 1), st.integers(1, 2)
        ),
        st.integers(0, 1),
    ),
    st.tuples(st.just("seed"), KEYS, st.integers(0, 1), st.sampled_from([1e-3, 3e-3])),
    st.just(("wipe",)),
)


def _replay(mode: EwoMode, ops: List[tuple]):
    """A fresh world with ``ops`` applied to s0's group of ``mode``:
    returns (digest, shipped state)."""
    deployment, counter, lww = _world()
    spec = counter if mode is EwoMode.COUNTER else lww
    gid = spec.group_id
    engine = deployment.manager("s0").ewo
    state = engine.groups[gid]
    for op in ops:
        kind = op[0]
        if kind == "wipe":
            state.wipe()
        elif kind == "inc":
            engine.increment(spec, op[1], op[2])
        elif kind == "write":
            engine.write(spec, op[1], op[2])
        elif kind == "seed":
            engine.seed_group(gid, [(op[1], op[2])], Timestamp(op[3], 0, 7))
        else:
            engine.handle_update(EwoMirror("s1", [(gid, [EwoEntry(op[1], op[2], op[3])])]))
    return state.digest(), _shipped(engine, gid)


def _noisy(ops: List[tuple], draw) -> List[tuple]:
    """``ops`` with zero increments and zero-value merges (cells with no
    entries) spliced in, maybe after a wiped prefix: a different history
    that a counter ships identically."""
    noise = st.one_of(
        st.tuples(st.just("inc"), KEYS, st.just(0)),
        st.tuples(st.just("merge"), KEYS, st.integers(0, 2), st.just(0)),
    )
    out = draw(st.lists(COUNTER_OPS, max_size=3)) + [("wipe",)]
    for op in ops:
        out.extend(draw(st.lists(noise, max_size=2)))
        out.append(op)
    return out + draw(st.lists(noise, max_size=2))


class TestDigestIsTheShippedState:
    """Catches: a digest over all cells rather than keys with entries
    (a zero increment then differs), over keys or reads alone (two
    states with equal sums agree), or over the wrong key order."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_counter_digests_equal_iff_shipped_states_equal(self, data):
        a = data.draw(st.lists(COUNTER_OPS, max_size=6))
        b = data.draw(st.one_of(st.lists(COUNTER_OPS, max_size=6), st.builds(list, st.just(a))))
        if data.draw(st.booleans()):
            b = _noisy(b, data.draw)
        digest_a, shipped_a = _replay(EwoMode.COUNTER, a)
        digest_b, shipped_b = _replay(EwoMode.COUNTER, b)
        assert (digest_a == digest_b) == (shipped_a == shipped_b)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lww_digests_equal_iff_shipped_states_equal(self, data):
        a = data.draw(st.lists(LWW_OPS, max_size=6))
        b = data.draw(st.one_of(st.lists(LWW_OPS, max_size=6), st.just(list(a))))
        digest_a, shipped_a = _replay(EwoMode.LWW, a)
        digest_b, shipped_b = _replay(EwoMode.LWW, b)
        assert (digest_a == digest_b) == (shipped_a == shipped_b)

    def test_a_cell_without_entries_does_not_count(self):
        """The explicit case: a zero increment names a key and ships
        nothing."""
        assert _replay(EwoMode.COUNTER, [("inc", "a", 0)]) == _replay(EwoMode.COUNTER, [])

    def test_equal_sums_are_not_equal_states(self):
        one = _replay(EwoMode.COUNTER, [("merge", "a", 1, 2)])
        other = _replay(EwoMode.COUNTER, [("merge", "a", 2, 2)])
        assert one[0] != other[0]


# ----------------------------------------------------------------------
# A round
# ----------------------------------------------------------------------
class TestRound:
    def test_prober_behind_is_repaired_by_one_answer(self):
        """Catches: an answer sent to the wrong member, or none on a
        mismatch (the comparison inverted)."""
        deployment, counter, lww = _world()
        m0, m1 = deployment.manager("s0"), deployment.manager("s1")
        for i in range(5):
            m1.register_increment(counter, f"k{i}", i + 1)
            m1.register_write(lww, f"k{i}", i)
        for spec in (counter, lww):
            gid = spec.group_id
            _probe(deployment, "s0", "s1", gid)
            assert _shipped(m0.ewo, gid) == _shipped(m1.ewo, gid)
            assert m0.ewo.stats_for(gid).sync_packets_received == 1
            assert m1.ewo.stats_for(gid).sync_packets_sent == 1

    def test_target_behind_is_repaired_by_its_own_next_round(self):
        """A round pulls: a prober ahead of its target ships it nothing,
        and the target (wiped: it has no state at all) catches up when
        it probes.  Catches: an empty member that skips its round."""
        deployment, counter, _ = _world()
        gid = counter.group_id
        m0, m1 = deployment.manager("s0"), deployment.manager("s1")
        m0.register_increment(counter, "k", 3)
        m1.register_increment(counter, "j", 1)
        _probe(deployment, "s0", "s1", gid)  # s0 pulls s1's state
        m1.ewo.groups[gid].wipe()
        _probe(deployment, "s0", "s1", gid)  # s1 is behind, and answers
        assert m1.ewo.local_state(gid) == {}
        assert m0.ewo.local_state(gid) == {"k": 3, "j": 1}
        _probe(deployment, "s1", "s0", gid)
        assert m1.ewo.local_state(gid) == {"k": 3, "j": 1}

    def test_converged_world_sends_no_full_state(self):
        """Catches: an unconditional answer (today's push, or one sent
        when the digests agree)."""
        deployment, counter, lww = _world(sync_period=PERIOD, batch=1)
        for i in range(6):
            manager = deployment.manager(f"s{i % 3}")
            manager.register_increment(counter, f"k{i % 4}", 1)
            manager.register_write(lww, f"k{i % 2}", i)
        deployment.sim.run(until=5 * PERIOD)
        for spec in (counter, lww):
            states = deployment.ewo_states(spec)
            assert all(state == states[0] for state in states)
        before = {
            spec.group_id: (
                _stats(deployment, spec.group_id, "sync_packets_sent"),
                _stats(deployment, spec.group_id, "sync_probes_sent"),
            )
            for spec in (counter, lww)
        }
        deployment.sim.run(until=25 * PERIOD)
        for gid, (packets, probes) in before.items():
            assert _stats(deployment, gid, "sync_packets_sent") == packets
            assert _stats(deployment, gid, "sync_probes_sent") >= probes + 3 * 19
            assert _stats(deployment, gid, "sync_rounds_agreed") >= 3 * 19


class TestCorruptionHealsBySync:
    def test_flipped_counter_is_healed_without_a_scrubber(self):
        """A bit flip lands beneath the CRDT API, so only a digest read
        from the cells sees it.  Catches: a memoised digest (kept from
        the last write or merge) — the flipped replica keeps announcing
        the state it no longer holds, every round agrees, and the flip
        stays."""
        deployment, counter, _ = _world(sync_period=PERIOD, batch=1)
        gid = counter.group_id
        for i in range(9):
            deployment.manager(f"s{i % 3}").register_increment(counter, "c", 5)
        deployment.sim.run(until=5 * PERIOD)
        assert [state["c"] for state in deployment.ewo_states(counter)] == [45, 45, 45]
        injector = FaultInjector(deployment, seed=3)
        injector.corrupt_register(deployment.sim.now + 1e-6, "s1", gid, "c")
        deployment.sim.run(until=deployment.sim.now + 2e-6)
        assert deployment.manager("s1").ewo.local_state(gid)["c"] < 45
        assert [e.kind for e in deployment.divergence_log] == ["corrupt"]
        deployment.sim.run(until=deployment.sim.now + 10 * PERIOD)
        assert [state["c"] for state in deployment.ewo_states(counter)] == [45, 45, 45]
        assert _stats(deployment, gid, "sync_packets_sent") > 0
