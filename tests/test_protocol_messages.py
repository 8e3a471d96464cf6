"""Tests for protocol wire formats: sizes, tokens, chain-hop helpers."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crdt.clock import Timestamp
from repro.net.headers import SwiShmemHeader, SwiShmemOp, WireRecord
from repro.net.packet import Packet
from repro.obs.causal import TraceContext
from repro.protocols import messages
from repro.protocols.messages import (
    TAIL,
    ChainUpdate,
    EwoEntry,
    EwoMirror,
    EwoSyncProbe,
    Heartbeat,
    ScrubRepair,
    SnapshotAck,
    SnapshotWrite,
    WriteAck,
    WriteRequest,
    WriteToken,
    entries_bytes,
)


def _entry_bytes(entry, key_bytes, value_bytes):
    """One entry's wire size, written per entry: the definition
    ``entries_bytes``'s arithmetic must agree with."""
    version = entry.version
    if version is None:  # a counter update's: the writer's slot, named once
        version_bytes = 0
    elif type(version) is Timestamp:
        version_bytes = Timestamp.wire_size
    else:  # a sync's counter slot
        version_bytes = 4
    return key_bytes + value_bytes + version_bytes


class _LaterStamp(Timestamp):
    """Not a ``Timestamp`` by exact type: sized as a 4-byte slot."""


_VERSIONS = st.one_of(
    st.none(),
    st.integers(0, 5),
    st.booleans(),
    st.builds(Timestamp, st.floats(0, 1), st.integers(0, 3), st.integers(0, 3)),
    st.builds(_LaterStamp, st.just(0.5), st.just(0), st.just(1)),
    st.sampled_from(["1", 1.0, (0, 1)]),
)


def payload_samples():
    """One populated instance of every message class that rides in a
    packet as ``swishmem_payload`` (shared with the clone-contract tests
    in ``test_net_packets_links``)."""
    token = WriteToken("s0", 7)
    ctx = TraceContext("T:s0:1", "s0:4", "s0:3", 9)
    entries = [
        EwoEntry("flow", None, 41),
        EwoEntry(("10.0.0.1", 80), Timestamp(1e-3, 4, 1), "blocked"),
        EwoEntry("sig", 1, 7),
    ]
    return [
        WriteRequest(1, "k", ("10.0.0.9", 4242), token, attempt=2, rmw_delta=1, trace=ctx),
        ChainUpdate(1, ("r", 9), 5, 12, 3, token, ("s0", "s1", "s2"), epoch=4, trace=ctx),
        WriteAck(1, "k", 12, 3, token, value=5, trace=ctx),
        EwoSyncProbe(2, "s1", (("flow", ((2, 41),)),), trace=ctx),
        EwoMirror("s1", [(2, entries[:1]), (3, entries[1:])], [(13, 4), (8, 8)], trace=ctx),
        SnapshotWrite(1, "k", "v", 12, 3, "s0", transfer_id=6, trace=ctx),
        SnapshotAck(1, "k", 12, "s0", transfer_id=6, trace=ctx),
        Heartbeat("s2", 17, 2.5e-3, trace=ctx),
        ScrubRepair(1, "k", "v", 12, 3, "s0", epoch=4, round_id=8, trace=ctx),
    ]


def _wire_record_classes():
    found, todo = set(), list(WireRecord.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__ == messages.__name__:
            found.add(cls)
    return found


class TestFixedRecords:
    def test_each_slot_is_declared_once_and_each_copy_is_its_own_code(self):
        """Every header and message is slotted by ``fixed_record``: a
        subclass adds no slot its base has, a per-class constant
        (``wire_size`` of a header or a probe) is no slot, and
        each class's generated ``copy()`` has a code filename of its
        own, so a profile counts each class's copies apart."""
        classes, todo = set(), list(WireRecord.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            classes.add(cls)
        for cls in classes:
            declared = [name for base in cls.__mro__ for name in getattr(base, "__slots__", ())]
            assert len(declared) == len(set(declared)), cls.__name__
            assert set(declared) <= {f.name for f in dataclasses.fields(cls)}, cls.__name__
        assert "wire_size" not in SwiShmemHeader.__slots__ + EwoSyncProbe.__slots__
        filenames = {cls.copy.__code__.co_filename for cls in classes}
        assert len(filenames) == len(classes)


class TestWriteToken:
    def test_equality_and_hash(self):
        a = WriteToken("s0", 5)
        b = WriteToken("s0", 5)
        assert a == b and hash(a) == hash(b)
        assert a != WriteToken("s1", 5)

    def test_str(self):
        assert str(WriteToken("s0", 5)) == "s0#5"


class TestWireSizes:
    def test_write_request_scales_with_widths(self):
        small = WriteRequest(1, "k", "v", WriteToken("s0", 1), key_bytes=4, value_bytes=4)
        large = WriteRequest(1, "k", "v", WriteToken("s0", 1), key_bytes=16, value_bytes=64)
        assert large.wire_size - small.wire_size == (16 - 4) + (64 - 4)

    def test_chain_update_includes_chain_list(self):
        token = WriteToken("s0", 1)
        short = ChainUpdate(1, "k", "v", 1, 0, token, chain=("a", "b"))
        long = ChainUpdate(1, "k", "v", 1, 0, token, chain=("a", "b", "c", "d"))
        assert long.wire_size - short.wire_size == 8  # 4 bytes per member

    def test_ack_smaller_than_update(self):
        token = WriteToken("s0", 1)
        update = ChainUpdate(1, "k", "v", 1, 0, token, chain=("a", "b"))
        ack = WriteAck(1, "k", 1, 0, token)
        assert ack.wire_size < update.wire_size

    def test_ewo_update_sums_entries(self):
        """A counter update's entry is its key and value: the slot is
        the writer's, named once in the framing."""
        one = EwoMirror("s0", [(1, [EwoEntry("k", None, 1)])])
        three = EwoMirror("s0", [(1, [EwoEntry(f"k{i}", None, 1) for i in range(3)])])
        assert entries_bytes([EwoEntry("k", None, 1)], 8, 8) == 8 + 8
        assert one.wire_size == 13 + 8 + 8
        assert three.wire_size - one.wire_size == 2 * (8 + 8)

    def test_entry_version_encodings(self):
        """Counter update entry: key + value.  Sync answer entry: a
        4-byte slot on top, since a sync ships every replica's slots.
        LWW entry: the 10-byte Timestamp on top."""
        update_entry = EwoEntry("k", None, 10)
        slot_entry = EwoEntry("k", 2, 10)
        stamp_entry = EwoEntry("k", Timestamp(1.0, 0, 1), 10)
        assert entries_bytes([update_entry], 13, 4) == 13 + 4
        assert entries_bytes([slot_entry], 13, 4) == 13 + 4 + 4
        assert entries_bytes([stamp_entry], 13, 4) == 13 + 4 + Timestamp.wire_size == 13 + 4 + 10
        mirror = EwoMirror("s0", [(1, [update_entry]), (2, [update_entry])], [(13, 4), (8, 8)])
        assert mirror.wire_size == 13 + 4 + (13 + 4) + (8 + 8)
        assert EwoMirror("s0", [(1, [slot_entry])], [(13, 4)]).wire_size == 13 + 13 + 4 + 4

    def test_sync_probe_is_framing_plus_a_digest(self):
        """8 bytes of digest, whatever the size of the state it hashes."""
        probe = EwoSyncProbe(1, "s0", (("k", ((0, 1),)),) * 100)
        assert probe.wire_size == EwoMirror("s0", [(1, [])]).wire_size + 8 == 13 + 8

    def test_snapshot_messages(self):
        write = SnapshotWrite(1, "k", "v", 3, 0, "s0")
        ack = SnapshotAck(1, "k", 3, "s1")
        assert write.wire_size > ack.wire_size

    def test_packet_accounts_payload(self):
        message = WriteRequest(1, "k", "v", WriteToken("s0", 1))
        packet = Packet(
            swishmem=SwiShmemHeader(op=SwiShmemOp.WRITE_REQUEST, register_group=1),
            swishmem_payload=message,
        )
        bare = Packet(swishmem=SwiShmemHeader(op=SwiShmemOp.WRITE_REQUEST, register_group=1))
        assert packet.wire_size == bare.wire_size + message.wire_size

    def test_every_payload_class_has_a_wire_size(self):
        """A message that forgot its size would ride the wire for free
        and skew every bytes-per-op number, so ``Packet.wire_size`` reads
        it unconditionally and every payload class must report one."""
        samples = payload_samples()
        # the sample table is complete: a new packet-borne message must
        # be a WireRecord (clone() calls its copy()) and be listed here
        assert {type(m) for m in samples} == _wire_record_classes()
        header = SwiShmemHeader()
        for message in samples:
            size = message.wire_size
            assert type(size) is int and size > 0, type(message).__name__
            packet = Packet(swishmem=header, swishmem_payload=message)
            assert packet.wire_size == header.wire_size + size

    def test_payload_without_a_size_is_an_error(self):
        packet = Packet(swishmem=SwiShmemHeader(), swishmem_payload=object())
        with pytest.raises(AttributeError):
            packet.wire_size

    @staticmethod
    def _entries():
        """The sample mirror's entries: a slotless counter entry, an
        LWW stamp and a sync answer's counter slot."""
        mirror = next(m for m in payload_samples() if type(m) is EwoMirror)
        return tuple(entry for _, section in mirror.sections for entry in section)

    def test_ewo_wire_size_is_computed_once_and_carried_by_copies(self, monkeypatch):
        update = EwoMirror("s1", [(2, self._entries())], [(13, 4)])
        per_entry = [_entry_bytes(e, 13, 4) for e in update.sections[0][1]]
        assert per_entry == [13 + 4, 13 + 4 + Timestamp.wire_size, 13 + 4 + 4]
        assert update.wire_size == 13 + sum(per_entry)
        # a stored value, not a per-read sum: with the per-entry sizing
        # gone, the size still reads, on the message and on its copy
        assert "wire_size" in EwoMirror.__slots__
        monkeypatch.setattr(messages, "entries_bytes", None)
        assert update.wire_size == update.copy().wire_size == 13 + sum(per_entry)

    def test_a_one_section_mirror_costs_exactly_an_update(self):
        """One framing and the section's entries: no section bytes."""
        entries = self._entries()
        for widths in ((8, 8), (13, 4)):
            mirror = EwoMirror("s1", [(2, entries)], [widths])
            assert mirror.wire_size == 13 + entries_bytes(entries, *widths)
        assert EwoMirror("s1", [(2, entries)]).wire_size == 13 + entries_bytes(entries, 8, 8)

    def test_a_mirror_is_one_framing_plus_four_bytes_per_extra_section(self):
        entries = self._entries()
        widths = [(13, 4), (8, 8), (4, 1)]
        sections = [(g, entries[: g + 1]) for g in range(3)]
        mirror = EwoMirror("s1", sections, widths)
        entry_bytes = sum(
            _entry_bytes(e, *w) for (_, section), w in zip(sections, widths) for e in section
        )
        assert mirror.wire_size == 13 + 4 * (3 - 1) + entry_bytes
        # against k separate updates: k - 1 framings saved, 4 bytes each spent
        updates = [EwoMirror("s1", [(g, section)], [w]) for (g, section), w in zip(sections, widths)]
        assert sum(u.wire_size for u in updates) - mirror.wire_size == (13 - 4) * (3 - 1)

    def test_mirror_sections_are_immutable_and_shared_by_a_clone(self):
        source = [EwoEntry("k", 0, 1)]
        mirror = EwoMirror("s0", [(1, source), (2, [EwoEntry("j", 1, 2)])])
        source.append(EwoEntry("late", 0, 2))  # the caller's lists are not aliased
        assert mirror.sections == ((1, (EwoEntry("k", 0, 1),)), (2, (EwoEntry("j", 1, 2),)))
        packet = Packet(swishmem=SwiShmemHeader(), swishmem_payload=mirror)
        copy = packet.clone(1).swishmem_payload
        assert copy is not mirror and copy.sections is mirror.sections
        assert copy.wire_size == mirror.wire_size
        with pytest.raises(TypeError):
            mirror.sections[0][1][0] = EwoEntry("x", 0, 0)

    def test_ewo_entries_are_immutable(self):
        source = [EwoEntry("k", 0, 1)]
        update = EwoMirror("s0", [(1, source)])
        source.append(EwoEntry("late", 0, 2))  # the caller's list is not aliased
        assert update.sections == ((1, (EwoEntry("k", 0, 1),)),)
        with pytest.raises(AttributeError):
            update.sections[0][1][0].value = 9

    @settings(max_examples=150, deadline=None)
    @given(
        sections=st.lists(
            st.tuples(
                st.lists(st.builds(EwoEntry, st.just("k"), _VERSIONS, st.just(1)), max_size=6),
                st.sampled_from([(8, 8), (13, 4), (3, 4), (4, 1)]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_a_section_is_sized_as_its_entries_one_by_one(self, sections):
        """For every mix of versions — none, slot, bool, stamp, a stamp
        subclass, anything else — a one-section and a k-section mirror's
        arithmetic equals the per-entry sum."""
        per_section = [sum(_entry_bytes(e, *w) for e in entries) for entries, w in sections]
        for (entries, widths), size in zip(sections, per_section):
            assert EwoMirror("s0", [(1, entries)], [widths]).wire_size == 13 + size
        mirror = EwoMirror(
            "s0", [(g, entries) for g, (entries, _) in enumerate(sections)],
            [widths for _, widths in sections],
        )
        assert mirror.wire_size == 13 + 4 * (len(sections) - 1) + sum(per_section)


class TestChainHops:
    def test_role_at(self):
        update = ChainUpdate(
            1, "k", "v", 1, 0, WriteToken("s0", 1), chain=("a", "b", "c")
        )
        assert update.role_at("a") == "b"
        assert update.role_at("b") == "c"
        assert update.role_at("c") is TAIL
        assert update.role_at("zz") is None
        assert ChainUpdate(1, "k", "v", 1, 0, None, chain=()).role_at("a") is None
