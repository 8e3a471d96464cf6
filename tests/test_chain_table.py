"""SRO's chain side as one case table (``repro.protocols.sro``).

* Every row is taken by the tier-1 worlds, and no classification lands
  on a row outside its key.
* The member classifier picks exactly one row for every input: an apply
  row only ever sees ``seq > applied``, a member catching up never
  stashes, and a fenced update leaves the state as it was.
* The table alone — no simulator — finds the wedge that dropping an
  update past a gap causes on a 3-member chain, and none with the stash.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import tests.test_chaos as chaos_tests
import tests.test_core_manager as manager_tests
import tests.test_nf_sequencer as sequencer_tests
import tests.test_protocol_failover as failover_tests
import tests.test_protocol_sro as sro_tests
from repro.core.chain import ChainDescriptor
from repro.core.registers import Consistency, RegisterSpec
from repro.obs import FlightRecorder
from repro.protocols import sro
from repro.protocols.messages import TAIL, ChainUpdate, WriteRequest, WriteToken
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.memory import MemoryBudget
from tests.conftest import deployment_factory

MEMBER_ROWS = (
    sro.FENCED, sro.DUPLICATE, sro.IN_ORDER, sro.CATCH_UP, sro.STASHED, sro.STASH_FULL, sro.STASH,
)
HEAD_ROWS = (sro.STALE_HEAD, sro.DEDUP_HIT, sro.SEQUENCE)
READ_ROWS = ("read_tail", "read_forward", "read_local")
STASH_ROWS = (sro.STASHED, sro.STASH_FULL, sro.STASH)
MEMBERS = ("s0", "s1", "s2")


def _in_key(row: sro.Row, state: sro.SroGroupState, update: ChainUpdate, applied: int) -> bool:
    """The key a member row is declared under, written out apart from
    ``chain_row``: epoch relation, seq relation, then catch-up and the
    stash past a gap."""
    current, seq = update.epoch >= state.chain.version, update.seq
    gap = current and seq > applied + 1
    stashed = (update.slot, seq) in state.reorder
    full = len(state.reorder) >= state.reorder_capacity
    return {
        "fenced": not current,
        "duplicate": current and seq <= applied,
        "in_order": current and seq == applied + 1,
        "catch_up": gap and state.catching_up,
        "stashed": gap and not state.catching_up and stashed,
        "stash_full": gap and not state.catching_up and not stashed and full,
        "stash": gap and not state.catching_up and not stashed and not full,
    }[row.name]


# ----------------------------------------------------------------------
# Every row is taken by the tier-1 worlds
# ----------------------------------------------------------------------
def _stale_head_world(make_deployment) -> None:
    """No tier-1 world takes the stale-head row: a write request reaches
    a switch whose own descriptor no longer makes it head, while the
    writer's still does (a reconfiguration racing the request)."""
    recorder = FlightRecorder()
    dep, _, _ = make_deployment(3, flight_recorder=recorder)
    spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
    chain = dep.chains[spec.group_id]
    rotated = chain.members[1:] + chain.members[:1]
    dep.manager("s0").sro.set_chain(
        spec.group_id, ChainDescriptor(chain.chain_id, rotated, version=chain.version + 1)
    )
    dep.manager("s2").register_write(spec, "k", 1)
    dep.sim.run(until=1e-3)
    drop = [span for span in recorder.spans if span.name == "sro.head.stale_drop"]
    assert drop and drop[0].node == "s0" and drop[0].attrs == {"current_head": "s1"}


#: Existing tier-1 worlds, each run as its test runs it.
WORLDS = (
    (sro_tests.TestReorderStash, "test_burst_to_one_key_commits_every_write"),
    (sro_tests.TestReorderStash, "test_stash_is_bounded"),
    (chaos_tests.TestHeartbeatChaos, "test_stale_epoch_chain_update_is_fenced"),
    (failover_tests.TestSroRecovery, "test_wipe_empties_everything_a_restart_loses"),
    (sequencer_tests.TestFetchAdd, "test_retry_does_not_double_add"),
    (manager_tests.TestNfIntegration, "test_read_forward_reprocesses_at_tail"),
)


class TestEveryRowIsTaken:
    def test_tier1_worlds_take_every_row_and_only_within_its_key(self, monkeypatch):
        taken: Counter = Counter()
        outside: List[Tuple[str, int, int]] = []
        chain_row, head_row, read = sro.chain_row, sro.head_row, sro.SroEngine.read

        def counting_chain_row(state, update, applied):
            row = chain_row(state, update, applied)
            taken[row.name] += 1
            if not _in_key(row, state, update, applied):
                outside.append((row.name, update.seq, applied))
            return row

        def counting_head_row(state, request, node):
            row = head_row(state, request, node)
            taken[row.name] += 1
            return row

        def counting_read(engine, spec, key, default, packet):
            stats = engine.groups[spec.group_id].stats
            before = (stats.tail_reads, stats.forwarded_reads, stats.local_reads)
            try:
                return read(engine, spec, key, default, packet)
            finally:
                after = (stats.tail_reads, stats.forwarded_reads, stats.local_reads)
                for name, was, now in zip(READ_ROWS, before, after):
                    taken[name] += now - was

        monkeypatch.setattr(sro, "chain_row", counting_chain_row)
        monkeypatch.setattr(sro, "head_row", counting_head_row)
        monkeypatch.setattr(sro.SroEngine, "read", counting_read)
        for cls, name in WORLDS:
            test = getattr(cls(), name)
            if "make_deployment" in test.__code__.co_varnames:
                test(deployment_factory(Simulator(), SeededRng(seed=1234)))
            else:
                test()
        assert taken["stale_head"] == 0
        _stale_head_world(deployment_factory(Simulator(), SeededRng(seed=1234)))
        names = [row.name for row in MEMBER_ROWS + HEAD_ROWS] + list(READ_ROWS)
        assert [name for name in names if not taken[name]] == [], dict(taken)
        assert outside == []


# ----------------------------------------------------------------------
# The classifier, property by property
# ----------------------------------------------------------------------
VERSION = 2
CAPACITY = 3


def _state(applied: int, catching_up: bool, stash: Tuple[int, ...]) -> sro.SroGroupState:
    """A lone member's state: one slot that has applied ``applied``, the
    stash holding ``stash``'s seqs, installed at chain version 2."""
    spec = RegisterSpec("r", Consistency.SRO, capacity=8, pending_slots=1)
    chain = ChainDescriptor(
        1, MEMBERS, version=VERSION, catching_up=("s1",) if catching_up else ()
    )
    state = sro.SroGroupState(spec, MemoryBudget(1 << 20), chain)
    state.catching_up = catching_up
    state.reorder_capacity = CAPACITY
    if applied:
        state.store["k"] = applied
        state.pending.force_applied(0, applied)
    for seq in stash:
        state.reorder[(0, seq)] = _update(seq)
    return state


def _update(seq: int, epoch: int = VERSION) -> ChainUpdate:
    return ChainUpdate(
        group=0, key="k", value=seq, seq=seq, slot=0, token=WriteToken("w", seq),
        chain=MEMBERS, epoch=epoch,
    )


def _registers(state: sro.SroGroupState) -> Tuple[Any, ...]:
    """Everything a row may change but the stats."""
    pending = state.pending
    return (
        dict(state.store), pending.applied_seq(0), pending.is_pending(0),
        pending._pending_seq[:], pending._next_seq[:], list(state.reorder), dict(state.dedup),
    )


member_inputs = st.tuples(
    st.integers(0, 6),  # applied
    st.integers(0, 10),  # seq
    st.sampled_from((-1, 0, 1)),  # epoch against the installed version
    st.booleans(),  # catching up
    st.lists(st.integers(1, 12), max_size=CAPACITY, unique=True),  # stash
    st.sampled_from(("s2", TAIL, None)),  # role
)


class TestClassifier:
    @given(member_inputs)
    @settings(max_examples=400, deadline=None)
    def test_one_row_apply_only_past_applied_no_stash_while_catching_up(self, inputs):
        applied, seq, epoch, catching_up, stash, role = inputs
        state = _state(applied, catching_up, tuple(stash))
        update = _update(seq, VERSION + epoch)
        row = sro.chain_row(state, update, applied)
        assert [r.name for r in MEMBER_ROWS if _in_key(r, state, update, applied)] == [row.name]
        before = _registers(state)
        row.run(state, update, applied, role, None)
        after = _registers(state)
        if after[:2] != before[:2]:  # the store or the applied seq moved
            assert seq > applied and row in (sro.IN_ORDER, sro.CATCH_UP)
        if catching_up:
            assert row not in STASH_ROWS and after[5] == before[5]

    @given(member_inputs, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_a_fenced_update_changes_nothing(self, inputs, pending):
        applied, seq, _, catching_up, stash, role = inputs
        state = _state(applied, catching_up, tuple(stash))
        if pending:
            state.pending.set_pending(0, applied)
        state.remember_token(WriteToken("w", 0), applied, 0, applied, 0.0)
        update = _update(seq, VERSION - 1)
        before = _registers(state)
        row = sro.chain_row(state, update, applied)
        row.run(state, update, applied, role, None)
        assert row is sro.FENCED
        assert _registers(state) == before
        assert state.stats.fenced_updates == 1


# ----------------------------------------------------------------------
# The table alone finds the reorder wedge
# ----------------------------------------------------------------------
WRITES = 3
#: The gap row before the stash: an update past a gap is dropped and
#: left to its writer's retry (here there is none).
DROP_ON_GAP = sro.Row("drop_on_gap", sro.STOP, lambda *_: None, lambda *_: None)

#: (per member: (applied, stashed seqs)), (per link: in-flight seqs)
World = Tuple[Tuple[Tuple[int, Tuple[int, ...]], ...], Tuple[Tuple[int, ...], ...]]


def _deliver(state: sro.SroGroupState, update: ChainUpdate, role: Any, classify) -> List[int]:
    """One member's dispatcher over the table: run the update's row and,
    unless it stops, pass the update on and drain the stash.  Returns
    the seqs passed on."""
    passed = []
    while update is not None:
        applied = state.pending.applied_seq(update.slot)
        row = classify(state, update, applied)
        row.run(state, update, applied, role, None)
        if row.then == sro.STOP:
            break
        passed.append(update.seq)
        drain = row.then == sro.DRAIN and state.reorder
        update = state.next_stashed(update.slot) if drain else None
    return passed


def _head_world(classify) -> World:
    """The head sequences ``WRITES`` writes through the head rows and
    passes each on through its member rows."""
    head = _state(0, False, ())
    passed: List[int] = []
    for n in range(WRITES):
        request = WriteRequest(group=0, key="k", value=n, token=WriteToken("w", n))
        row = sro.head_row(head, request, MEMBERS[0])
        seq, slot, value, _ = row.run(head, request, 0.0)
        update = ChainUpdate(
            group=0, key="k", value=value, seq=seq, slot=slot, token=request.token,
            chain=MEMBERS, epoch=VERSION,
        )
        passed += _deliver(head, update, MEMBERS[1], classify)
    applied = head.pending.applied_seq(0)
    return ((applied, ()), (0, ()), (0, ())), (tuple(sorted(passed)), ())


def _wedges(classify) -> List[World]:
    """Every delivery order of the in-flight updates on each link of the
    chain, with no loss and no retries; returns the final worlds in
    which a member is behind for good."""
    roles = (MEMBERS[1], MEMBERS[2], TAIL)
    seen: Set[World] = set()
    wedged: List[World] = []

    def explore(world: World) -> None:
        if world in seen:
            return
        seen.add(world)
        members, links = world
        if not any(links):
            if any(applied < WRITES for applied, _ in members):
                wedged.append(world)
            return
        for link, in_flight in enumerate(links):
            for seq in sorted(set(in_flight)):
                target = link + 1
                applied, stash = members[target]
                state = _state(applied, False, stash)
                passed = _deliver(state, _update(seq), roles[target], classify)
                rest = list(in_flight)
                rest.remove(seq)
                new_links = list(links)
                new_links[link] = tuple(rest)
                if target + 1 < len(MEMBERS):
                    new_links[target] = tuple(sorted(new_links[target] + tuple(passed)))
                new_members = list(members)
                new_members[target] = (
                    state.pending.applied_seq(0), tuple(sorted(s for _, s in state.reorder)),
                )
                explore((tuple(new_members), tuple(new_links)))

    explore(_head_world(classify))
    return wedged


def _drop_on_gap(state, update, applied):
    row = sro.chain_row(state, update, applied)
    return DROP_ON_GAP if row in STASH_ROWS else row


class TestTableAloneSearch:
    def test_drop_on_gap_wedges_a_member(self):
        wedged = _wedges(_drop_on_gap)
        assert wedged
        (head, middle, tail), _ = wedged[0]
        assert head[0] == WRITES and min(middle[0], tail[0]) < WRITES

    def test_the_stash_never_wedges(self):
        assert _wedges(sro.chain_row) == []
