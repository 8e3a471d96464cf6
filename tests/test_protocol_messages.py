"""Tests for protocol wire formats: sizes, tokens, chain-hop helpers."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crdt.clock import Timestamp
from repro.net.headers import SwiShmemHeader, SwiShmemOp, WireRecord
from repro.net.packet import Packet
from repro.obs.causal import TraceContext
from repro.protocols import messages
from repro.protocols.messages import (
    ChainUpdate,
    EwoEntry,
    EwoSync,
    EwoUpdate,
    Heartbeat,
    ScrubRepair,
    SnapshotAck,
    SnapshotWrite,
    WriteAck,
    WriteRequest,
    WriteToken,
)


def payload_samples():
    """One populated instance of every message class that rides in a
    packet as ``swishmem_payload`` (shared with the clone-contract tests
    in ``test_net_packets_links``)."""
    token = WriteToken("s0", 7)
    ctx = TraceContext("T:s0:1", "s0:4", "s0:3", 9)
    entries = [
        EwoEntry("flow", 2, 41),
        EwoEntry(("10.0.0.1", 80), Timestamp(1e-3, 4, 1), "blocked"),
        EwoEntry("sig", ("state", frozenset({(0, 1), (1, 1)}), frozenset({(0, 1)})), "x"),
    ]
    return [
        WriteRequest(1, "k", ("10.0.0.9", 4242), token, attempt=2, rmw_delta=1, trace=ctx),
        ChainUpdate(1, ("r", 9), 5, 12, 3, token, ("s0", "s1", "s2"), epoch=4, trace=ctx),
        WriteAck(1, "k", 12, 3, token, value=5, trace=ctx),
        EwoUpdate(2, "s1", entries, key_bytes=13, value_bytes=4, trace=ctx),
        EwoSync(2, "s1", entries[:2], trace=ctx),
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
        one = EwoUpdate(1, "s0", [EwoEntry("k", 0, 1)])
        three = EwoUpdate(1, "s0", [EwoEntry(f"k{i}", 0, 1) for i in range(3)])
        per_entry = EwoEntry("k", 0, 1).wire_bytes(8, 8)
        assert three.wire_size - one.wire_size == 2 * per_entry

    def test_entry_version_encodings(self):
        slot_entry = EwoEntry("k", 2, 10)
        stamp_entry = EwoEntry("k", Timestamp(1.0, 0, 1), 10)
        assert stamp_entry.wire_bytes(8, 8) > slot_entry.wire_bytes(8, 8)

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

    def test_ewo_wire_size_is_computed_once_and_carried_by_copies(self):
        update = next(m for m in payload_samples() if type(m) is EwoUpdate)
        per_entry = [e.wire_bytes(13, 4) for e in update.entries]
        assert per_entry == [13 + 4 + 4, 13 + 4 + Timestamp.wire_size, 13 + 4 + 1 + 3 * 10]
        assert update.wire_size == 13 + sum(per_entry)
        assert "wire_size" in vars(update)  # a stored value, not a per-read sum
        assert update.copy().wire_size == update.wire_size

    def test_ewo_entries_are_immutable(self):
        source = [EwoEntry("k", 0, 1)]
        update = EwoUpdate(1, "s0", source)
        source.append(EwoEntry("late", 0, 2))  # the caller's list is not aliased
        assert update.entries == (EwoEntry("k", 0, 1),)
        with pytest.raises(dataclasses.FrozenInstanceError):
            update.entries[0].value = 9


class TestChainHops:
    def test_next_hop_after(self):
        update = ChainUpdate(
            1, "k", "v", 1, 0, WriteToken("s0", 1), chain=("a", "b", "c")
        )
        assert update.next_hop_after("a") == "b"
        assert update.next_hop_after("b") == "c"
        assert update.next_hop_after("c") is None
        assert update.next_hop_after("zz") is None

    def test_sync_is_update_subtype(self):
        sync = EwoSync(1, "s0", [EwoEntry("k", 0, 1)])
        assert isinstance(sync, EwoUpdate)
        assert sync.wire_size > 0
