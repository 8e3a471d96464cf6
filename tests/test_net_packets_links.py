"""Tests for packets, headers, links, and loss/bandwidth accounting."""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.chaos.nemesis import Nemesis
from repro.net.headers import (
    FiveTuple,
    PROTO_TCP,
    PROTO_UDP,
    SwiShmemHeader,
    SwiShmemOp,
    TcpFlags,
)
from repro.net.link import Link, Node
from repro.nf.heavyhitter import HeavyHitterNF
from repro.nf.nat import NatNF
from repro.net.packet import Packet, make_tcp_packet, make_udp_packet
from repro.obs.causal import TraceContext
from repro.protocols.messages import ChainUpdate, WriteRequest, WriteToken
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.testing import build_nf_world
from repro.workload.flows import FlowSpec, inject_flow
from tests.test_protocol_messages import payload_samples
from tests.test_switch_pisa import make_fabric


class Sink(Node):
    """Records everything delivered to it."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.received = []

    def handle_packet(self, packet, from_node):
        self.received.append((packet, from_node))


class TestFiveTuple:
    def test_reverse_swaps_endpoints(self):
        tup = FiveTuple("1.1.1.1", "2.2.2.2", 10, 20, PROTO_TCP)
        rev = tup.reverse()
        assert rev.src_ip == "2.2.2.2" and rev.dst_ip == "1.1.1.1"
        assert rev.src_port == 20 and rev.dst_port == 10
        assert rev.reverse() == tup

    def test_hashable_and_equal(self):
        a = FiveTuple("1.1.1.1", "2.2.2.2", 10, 20)
        b = FiveTuple("1.1.1.1", "2.2.2.2", 10, 20)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_str_readable(self):
        assert "tcp" in str(FiveTuple("1.1.1.1", "2.2.2.2", 1, 2, PROTO_TCP))
        assert "udp" in str(FiveTuple("1.1.1.1", "2.2.2.2", 1, 2, PROTO_UDP))


class TestPacket:
    def test_tcp_packet_wire_size(self):
        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2, payload_size=100)
        # Ethernet 14 + IPv4 20 + TCP 20 + payload 100
        assert packet.wire_size == 154

    def test_udp_packet_wire_size(self):
        packet = make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2, payload_size=100)
        assert packet.wire_size == 14 + 20 + 8 + 100

    def test_five_tuple_extraction(self):
        tcp = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 6)
        assert tcp.five_tuple() == FiveTuple("1.1.1.1", "2.2.2.2", 5, 6, PROTO_TCP)
        udp = make_udp_packet("1.1.1.1", "2.2.2.2", 5, 6)
        assert udp.five_tuple().protocol == PROTO_UDP
        assert Packet().five_tuple() is None

    def test_clone_is_independent(self):
        ids = Simulator().packet_ids
        original = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
        original.uid = next(ids)
        copy = original.clone(next(ids))
        assert copy.uid != original.uid
        copy.ipv4.dst = "9.9.9.9"
        assert original.ipv4.dst == "2.2.2.2"

    def test_uids_unique(self):
        """Uids come from the world's sequence: unique within a world,
        and every world numbers from 1 whatever ran before it."""
        assert Packet().uid == 0  # built outside a world: not numbered yet
        for ids in (Simulator().packet_ids, Simulator().packet_ids):
            packets = [Packet(uid=next(ids)) for _ in range(100)]
            assert [p.uid for p in packets] == list(range(1, 101))

    def test_swishmem_header_adds_size(self):
        bare = Packet()
        tagged = Packet(swishmem=SwiShmemHeader())
        assert tagged.wire_size == bare.wire_size + 12

    def test_str_mentions_flow(self):
        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
        assert "1.1.1.1" in str(packet)


OTHER_CTX = TraceContext("T:s9:1", "s9:2", "s9:1", 99)

#: What ``Packet.clone()`` does with each field.  A field added to
#: ``Packet`` must be copied in ``clone()`` and classified here.
CLONE_FRESH = {"eth", "ipv4", "tcp", "udp", "swishmem", "swishmem_payload"}
CLONE_SHARED = {
    "payload_size", "payload_digest", "ingress_node", "at_tail_groups", "created_at", "trace",
}
#: The fields that hold a wire record: the headers and the message.
RECORD_FIELDS = ("eth", "ipv4", "tcp", "udp", "swishmem", "swishmem_payload")

STACKS = {
    "tcp": lambda: make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2, TcpFlags.SYN, 100, seq=7),
    "udp": lambda: make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2, payload_size=64),
    "bare": lambda: Packet(),
}


def build_packet(stack, payload, extras):
    packet = STACKS[stack]()
    if payload is not None:
        packet.swishmem = SwiShmemHeader(SwiShmemOp.CHAIN_UPDATE, 3, "s1")
        packet.swishmem_payload = payload
    if extras:
        packet.trace = TraceContext("T:s0:1", "s0:1", None, 1)
        packet.ingress_node = "h0"
        packet.at_tail_groups = frozenset({3})
        packet.payload_digest = 0xBEEF
        packet.created_at = 1.5e-3
    return packet


def assert_same(a, b, path="packet"):
    """Field-for-field equality, walking dataclasses so that fields
    excluded from ``==`` (message traces, the cached EWO size) count —
    everything but ``Packet.uid``."""
    assert type(a) is type(b), path
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if not (isinstance(a, Packet) and f.name == "uid"):
                assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


def mutate_like_the_code_does(packet):
    """Every in-flight assignment the simulator makes to a packet."""
    if packet.ipv4 is not None:
        packet.ipv4.ttl -= 1  # forward_by_ip
        packet.ipv4.src = "9.9.9.9"  # NAT rewrite
    if packet.tcp is not None:
        packet.tcp.src_port = 4242
    if packet.udp is not None:
        packet.udp.dst_port = 4242
    if packet.eth is not None:
        packet.eth.dst_mac = "aa:aa:aa:aa:aa:aa"
    if packet.swishmem is not None:
        packet.swishmem.dst_node = "s7"  # multicast_to_group, read chase
        packet.swishmem.relay = ("s8",)  # multicast_to_group, relay
        packet.swishmem.relay_bytes = 1
    message = packet.swishmem_payload
    if message is not None:
        message.trace = OTHER_CTX  # _stamp_send, chain forward, reorder stash
        if hasattr(message, "attempt"):
            message.attempt += 1  # _send_write_request retry
    packet.ingress_node = "s7"  # _pipeline_pass
    packet.at_tail_groups = packet.at_tail_groups | {7}  # read forward
    packet.trace = OTHER_CTX  # read forward
    packet.created_at = 9.0  # generate_packet


CLONE_CASES = [
    pytest.param(stack, index, extras, id=f"{stack}-{name}-{'full' if extras else 'plain'}")
    for stack in STACKS
    for index, name in [(None, "nopayload")]
    + [(i, type(m).__name__) for i, m in enumerate(payload_samples())]
    for extras in (False, True)
]


class TestCloneContract:
    """``clone()`` is a structural copy: equal to a deep copy, sharing
    no object the code assigns into, for every message x header stack."""

    @staticmethod
    def _case(stack, index, extras):
        payload = None if index is None else payload_samples()[index]
        return build_packet(stack, payload, extras)

    @pytest.mark.parametrize("stack,index,extras", CLONE_CASES)
    def test_equals_deepcopy_and_shares_no_container(self, stack, index, extras):
        ids = Simulator().packet_ids
        original = self._case(stack, index, extras)
        original.uid = next(ids)
        clone = original.clone(next(ids))
        assert_same(clone, copy.deepcopy(original))
        assert clone.uid != original.uid
        assert clone is not original
        for name in CLONE_FRESH:
            part = getattr(original, name)
            if part is not None:
                assert getattr(clone, name) is not part, name
        assert clone.wire_size == original.wire_size
        # fixed records: no per-instance dict on the packet, a header or
        # the message, nor on any of their copies
        for packet in (original, clone):
            assert not hasattr(packet, "__dict__")
            for name in RECORD_FIELDS:
                part = getattr(packet, name)
                assert part is None or not hasattr(part, "__dict__"), name
        revived = pickle.loads(pickle.dumps(original))
        assert_same(revived, original)
        assert revived.uid == original.uid

    @pytest.mark.parametrize("stack,index,extras", CLONE_CASES)
    def test_copies_mutate_independently(self, stack, index, extras):
        original = self._case(stack, index, extras)
        before = copy.deepcopy(original)
        clone = original.clone(1)
        mutate_like_the_code_does(clone)
        assert_same(original, before)
        # and the other way round
        clone = original.clone(2)
        mutate_like_the_code_does(original)
        assert_same(clone, before)

    def test_uids_are_allocated_one_per_copy_in_order(self):
        """A copy's uid is the one its world draws for it, in order: a
        host admits a packet, the multicast engine copies it twice, and
        the next packet the world makes takes the next uid."""
        sim, _, switches, hosts, _, _, registry = make_fabric()
        registry.create(7, ["s0", "s1", "s2"])
        original = make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
        hosts[0].inject(original)
        copies = []
        for switch in switches[1:]:
            switch.install_handler(lambda p, f: (copies.append(p.uid), True)[1], front=True)
        switches[0].multicast_to_group(original, 7)
        sim.run()
        assert original.uid == 1
        assert sorted(copies) == [original.uid + 1, original.uid + 2]
        assert next(sim.packet_ids) == original.uid + 3

    def test_metadata_is_declared_not_a_dict(self):
        """PISA metadata is two declared slots; there is no open
        ``meta`` dict, and an undeclared attribute raises."""
        names = {f.name for f in dataclasses.fields(Packet)}
        assert {"ingress_node", "at_tail_groups"} <= names
        assert "meta" not in names and "meta" not in Packet.__slots__
        packet = Packet()
        assert packet.ingress_node is None
        assert packet.at_tail_groups == frozenset()
        assert not hasattr(packet, "meta")
        with pytest.raises(AttributeError):
            packet.meta = {}

    def test_every_packet_field_is_copied_or_declared_shared(self):
        names = {f.name for f in dataclasses.fields(Packet)}
        assert names == CLONE_FRESH | CLONE_SHARED | {"uid"}, (
            "new Packet field: copy it in Packet.clone() and classify it in "
            "CLONE_FRESH (own copy) or CLONE_SHARED (immutable value)"
        )
        original = build_packet("tcp", payload_samples()[0], extras=True)
        original.udp = make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2).udp
        clone = original.clone(1)
        for name in CLONE_FRESH:
            assert getattr(original, name) is not None
            assert getattr(clone, name) is not getattr(original, name), name
            assert getattr(clone, name) == getattr(original, name), name
        for name in CLONE_SHARED:
            assert getattr(original, name) != Packet.__dataclass_fields__[name].default
            assert getattr(clone, name) is getattr(original, name), name


class TestLink:
    def _pair(self, sim, **kwargs):
        a, b = Sink("a"), Sink("b")
        link = Link(sim, a, b, rng=SeededRng(1), **kwargs)
        return a, b, link

    def test_delivery_after_latency_and_serialization(self):
        sim = Simulator()
        a, b, link = self._pair(sim, latency=1e-3, bandwidth_bps=8e6)
        packet = make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2, payload_size=958)
        # wire 1000 B -> 8000 bits / 8e6 bps = 1 ms serialization + 1 ms prop
        a.send(packet, "b")
        sim.run()
        assert len(b.received) == 1
        assert sim.now == pytest.approx(2e-3)

    def test_fifo_serialization_queues_back_to_back(self):
        sim = Simulator()
        a, b, link = self._pair(sim, latency=0.0, bandwidth_bps=8e6)
        for _ in range(3):
            a.send(make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2, payload_size=958), "b")
        sim.run()
        times = [sim.now]  # final time is the last delivery
        assert sim.now == pytest.approx(3e-3)
        assert len(b.received) == 3

    def test_loss_rate_zero_no_drops(self):
        sim = Simulator()
        a, b, link = self._pair(sim)
        for _ in range(200):
            a.send(make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2), "b")
        sim.run()
        assert len(b.received) == 200
        assert link.ab.stats.packets_dropped == 0

    def test_loss_rate_drops_fraction(self):
        sim = Simulator()
        a, b, link = self._pair(sim, loss_rate=0.3)
        for _ in range(2000):
            a.send(make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2), "b")
        sim.run()
        drop_fraction = link.ab.stats.packets_dropped / 2000
        assert 0.25 < drop_fraction < 0.35
        assert len(b.received) == 2000 - link.ab.stats.packets_dropped

    def test_loss_deterministic_per_seed(self):
        def run(seed):
            sim = Simulator()
            a, b = Sink("a"), Sink("b")
            Link(sim, a, b, loss_rate=0.5, rng=SeededRng(seed))
            for _ in range(100):
                a.send(make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2), "b")
            sim.run()
            return len(b.received)

        assert run(3) == run(3)

    def test_down_link_drops_everything(self):
        sim = Simulator()
        a, b, link = self._pair(sim)
        link.set_up(False)
        a.send(make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2), "b")
        sim.run()
        assert b.received == []
        assert link.ab.stats.packets_dropped == 1

    def test_failed_receiver_drops_silently(self):
        sim = Simulator()
        a, b, link = self._pair(sim)
        b.fail()
        a.send(make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2), "b")
        sim.run()
        assert b.received == []

    def test_failed_sender_sends_nothing(self):
        sim = Simulator()
        a, b, link = self._pair(sim)
        a.fail()
        assert a.send(make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2), "b") is False
        sim.run()
        assert b.received == []

    def test_bytes_accounted(self):
        sim = Simulator()
        a, b, link = self._pair(sim)
        packet = make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2, payload_size=100)
        size = packet.wire_size
        a.send(packet, "b")
        sim.run()
        assert link.ab.stats.bytes_sent == size
        assert link.ba.stats.bytes_sent == 0

    def test_nemesis_duplicate_is_a_snapshot_of_the_transmit(self):
        """Senders keep and re-stamp the message object they transmitted
        (a retry bumps ``request.attempt`` and re-stamps ``request.trace``
        on the one WriteRequest; every chain hop and the reorder stash
        re-stamp ``update.trace``).  A duplicate planned at transmit time
        must deliver what was on the wire then, not what the sender's
        object says later."""
        sim = Simulator()
        a, b, link = self._pair(sim)
        link.ab.nemesis = Nemesis(5, duplicate_prob=1.0, max_delay=50e-6)
        sent_ctx = TraceContext("T:a:1", "a:1", None, 1)
        token = WriteToken("a", 1)
        request = WriteRequest(1, "k", 5, token, attempt=0, trace=sent_ctx)
        update = ChainUpdate(1, "k", 5, 1, 0, token, ("a", "b"), trace=sent_ctx)
        for op, message in (
            (SwiShmemOp.WRITE_REQUEST, request),
            (SwiShmemOp.CHAIN_UPDATE, update),
        ):
            packet = Packet(
                swishmem=SwiShmemHeader(op, 1, "b"), swishmem_payload=message, trace=sent_ctx
            )
            a.send(packet, "b")
        on_the_wire = {type(m): copy.deepcopy(m) for m in (request, update)}
        # the sender moves on while both copies are still in flight
        request.attempt = 1
        request.trace = OTHER_CTX
        update.trace = OTHER_CTX
        sim.run()

        delivered = [packet.swishmem_payload for packet, _ in b.received]
        assert len(delivered) == 4 and link.ab.nemesis.packets_duplicated == 2
        duplicates = [m for m in delivered if m is not request and m is not update]
        assert len(duplicates) == 2
        for message in duplicates:
            assert_same(message, on_the_wire[type(message)], type(message).__name__)
        # the originals are the sender's own objects, aliased by design
        assert sum(m is request for m in delivered) == 1
        assert sum(m is update for m in delivered) == 1

    def test_bidirectional(self):
        sim = Simulator()
        a, b, link = self._pair(sim)
        a.send(make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2), "b")
        b.send(make_udp_packet("2.2.2.2", "1.1.1.1", 2, 1), "a")
        sim.run()
        assert len(a.received) == 1 and len(b.received) == 1

    def test_send_to_unknown_neighbor_returns_false(self):
        # Regression: Node.send's contract is "False if this node has
        # failed or has no such link"; it used to raise KeyError for the
        # missing-link half, contradicting its own docstring.
        sim = Simulator()
        a, b, link = self._pair(sim)
        assert a.send(Packet(), "nosuch") is False
        sim.run()
        assert b.received == []  # nothing was transmitted anywhere
        assert link.ab.stats.packets_sent == 0

    def test_send_to_known_neighbor_returns_true(self):
        sim = Simulator()
        a, b, link = self._pair(sim)
        assert a.send(make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2), "b") is True

    def test_channel_parameter_validation(self):
        sim = Simulator()
        a, b = Sink("a"), Sink("b")
        with pytest.raises(ValueError):
            Link(sim, a, b, latency=-1.0)
        a2, b2 = Sink("a2"), Sink("b2")
        with pytest.raises(ValueError):
            Link(sim, a2, b2, bandwidth_bps=0.0)
        a3, b3 = Sink("a3"), Sink("b3")
        with pytest.raises(ValueError):
            Link(sim, a3, b3, loss_rate=1.0)


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def uid_world(seed: int, flows: int):
    """The uid of every packet a switch of an NF world sees, in order:
    host packets, SRO traffic (NAT), EWO multicast copies and relayed
    copies (heavy hitters), sync probes and heartbeats."""
    world = build_nf_world(seed=seed)
    world.deployment.install_nf(NatNF)
    world.deployment.install_nf(HeavyHitterNF)
    seen = []
    for switch in world.deployment.switches:
        switch.install_handler(lambda packet, _: seen.append(packet.uid), front=True)
    servers = world.server_ips()
    for index in range(flows):
        inject_flow(
            world.sim,
            FlowSpec(
                client=world.clients[index % len(world.clients)],
                dst_ip=servers[index % len(servers)],
                src_port=40000 + index,
                data_packets=2,
                start_at=index * 50e-6,
            ),
        )
    world.sim.run(until=5e-3)
    return seen


class TestWorldScopedUids:
    def test_a_world_numbers_its_packets_alike_after_another_ran(self):
        """World X, then Y, then X again in one process: the second X's
        packet uids are those of X in a fresh process.  Every packet a
        switch sees was numbered by its world."""
        first = uid_world(seed=5, flows=12)
        assert first and 0 not in first
        uid_world(seed=6, flows=7)
        again = uid_world(seed=5, flows=12)
        script = (
            "import json\nfrom tests.test_net_packets_links import uid_world\n"
            "print(json.dumps(uid_world(seed=5, flows=12)))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        ))
        fresh = subprocess.run(
            [sys.executable, "-c", script], cwd=REPO_ROOT, env=env,
            capture_output=True, text=True, check=True,
        )
        assert again == json.loads(fresh.stdout) == first
