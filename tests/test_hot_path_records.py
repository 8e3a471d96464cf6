"""The NF pass builds no frozen dataclass.

A frozen dataclass's ``__init__`` assigns every field through
``object.__setattr__`` — most of a microsecond per record — and every
generated ``__init__`` shares the ``pstats`` label
``<string>:2:__init__``, so the calls/op count gate cannot see how many
are built.  This module counts them directly: a wrapper on the
``__init__`` of every frozen dataclass in ``repro`` while a NAT + IPS +
heavy-hitter world runs.  The NF verdicts are shared constants and the
replication records built per packet (``WriteToken``, ``EwoEntry``) are
named tuples.

The parity tests pin what the named tuples and the shared verdicts must
keep from the dataclasses they replaced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import pkgutil
from collections import Counter

import pytest

import repro
from repro.core.manager import DROP, FORWARD, Decision
from repro.crdt.clock import Timestamp
from repro.net.headers import PROTO_TCP
from repro.net.packet import make_tcp_packet
from repro.nf.base import NetworkFunction
from repro.nf.heavyhitter import HeavyHitterNF
from repro.nf.ips import IpsNF, packet_signature
from repro.nf.nat import NatNF
from repro.protocols.messages import EwoEntry, WriteToken
from repro.testing import build_nf_world
from repro.workload.flows import FlowSpec, inject_flow

#: Frozen records built per delivered packet, at most.  Before verdicts
#: were shared this world built about 12.
LIMIT_PER_PACKET = 0.05
#: Long flows, so the records a flow builds once (the five-tuple ECMP
#: routing hashes) and the controller's lease renewals stay below the
#: limit.
FLOWS = 8
DATA_PACKETS = 100
PACKET_GAP = 250e-6


def _frozen_dataclasses():
    """Every frozen dataclass defined in a ``repro`` module."""
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (
                cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
            ):
                found.append(cls)
    return found


def _counting(init, name, built):
    def counted(self, *args, **kwargs):
        built[name] += 1
        init(self, *args, **kwargs)

    return counted


def _count_constructions(monkeypatch):
    """Wrap each frozen dataclass's own ``__init__``; returns the tally."""
    built = Counter()
    for cls in _frozen_dataclasses():
        if "__init__" in cls.__dict__:
            monkeypatch.setattr(cls, "__init__", _counting(cls.__init__, cls.__qualname__, built))
    return built


@dataclasses.dataclass(frozen=True)
class _ParentToken:
    """``WriteToken`` as the frozen dataclass it was."""

    writer: str
    number: int

    def __str__(self):
        return f"{self.writer}#{self.number}"


@dataclasses.dataclass(frozen=True)
class _ParentEntry:
    """``EwoEntry`` as the frozen dataclass it was."""

    key: object
    version: object
    value: object


def _nf_world():
    world = build_nf_world(seed=11, cluster_size=3, clients=4, servers=4)
    world.deployment.install_nf(NatNF)
    world.deployment.install_nf(IpsNF)
    world.deployment.install_nf(HeavyHitterNF, threshold=10**9)
    servers = world.server_ips()
    for index in range(FLOWS):
        inject_flow(
            world.sim,
            FlowSpec(
                client=world.clients[index % len(world.clients)],
                dst_ip=servers[index % len(servers)],
                src_port=30000 + index,
                data_packets=DATA_PACKETS,
                inter_packet_gap=PACKET_GAP,
                start_at=1e-3 + index * 50e-6,
            ),
        )
    return world


class TestFrozenRecordsPerPacket:
    def test_the_census_sees_the_records_it_guards(self):
        names = {cls.__qualname__ for cls in _frozen_dataclasses()}
        assert {"Decision", "Timestamp", "ChainDescriptor"} <= names
        assert not {"WriteToken", "EwoEntry"} & names

    def test_nf_pass_builds_almost_no_frozen_record(self, monkeypatch):
        world = _nf_world()
        built = _count_constructions(monkeypatch)
        world.sim.run(until=0.03)
        hosts = list(world.clients) + list(world.servers)
        delivered = sum(len(host.received) for host in hosts)
        # every flow's SYN, data and FIN, and the server's answers
        assert delivered == FLOWS * (DATA_PACKETS + 2) * 2
        per_packet = sum(built.values()) / delivered
        assert per_packet <= LIMIT_PER_PACKET, built.most_common(5)


class TestSharedVerdicts:
    def test_constructors_return_the_shared_constants(self):
        assert Decision.forward() is FORWARD and FORWARD.kind == Decision.FORWARD_IP
        assert Decision.drop() is DROP and DROP.kind == Decision.DROP
        assert Decision(kind=Decision.DROP) == DROP

    def test_a_hand_built_drop_still_ends_the_chain(self):
        """The manager reads ``kind``, not identity."""
        seen = []

        class HandDrop(NetworkFunction):
            @classmethod
            def build_specs(cls, **kwargs):
                return []

            def process(self, ctx):
                return Decision(kind="drop")

        class Witness(HandDrop):
            def process(self, ctx):
                seen.append(ctx.packet)
                return FORWARD

        world = build_nf_world(seed=11)
        world.deployment.install_nf(HandDrop)
        world.deployment.install_nf(Witness)
        client, server = world.clients[0], world.servers[0]
        inject_flow(world.sim, FlowSpec(client=client, dst_ip=server.ip, data_packets=2))
        world.sim.run(until=0.05)
        assert client.sent_count == 4
        assert server.received == [] and seen == []
        assert sum(s.stats.dropped_packets for s in world.deployment.switches) == 4


class TestNamedTupleParity:
    def test_write_token_str_repr_hash_and_equality(self):
        token, parent = WriteToken("s1", 7), _ParentToken("s1", 7)
        assert str(token) == str(parent) == "s1#7"
        assert repr(token) == repr(parent).replace("_ParentToken", "WriteToken")
        # a frozen dataclass hashed its field tuple, and so does a tuple
        assert hash(token) == hash(parent) == hash(("s1", 7))
        assert token == WriteToken(writer="s1", number=7)
        assert token != WriteToken("s1", 8) and token != WriteToken("s2", 7)
        assert {token: 1}[WriteToken("s1", 7)] == 1

    def test_ewo_entry_repr_and_equality(self):
        stamp = Timestamp(1e-3, 0, 2)
        entry = EwoEntry(key="k", version=stamp, value=3)
        parent = _ParentEntry(key="k", version=stamp, value=3)
        assert repr(entry) == repr(parent).replace("_ParentEntry", "EwoEntry")
        assert entry == EwoEntry("k", stamp, 3)
        assert entry != EwoEntry("k", stamp, 4)
        assert (entry.key, entry.version, entry.value) == ("k", stamp, 3)
        with pytest.raises(AttributeError):
            entry.value = 4


class TestSignatureMemo:
    def test_memoised_signature_is_the_hash_of_its_content(self):
        """A repeated content gets the hash of its own text again."""
        packet = make_tcp_packet("10.0.0.1", "192.168.0.1", 1000, 80)
        for digest in (None, 5, 5, 1, None, 1):
            packet.payload_digest = digest
            seed = packet.payload_size if digest is None else digest
            material = f"{PROTO_TCP}:80:{seed}".encode("utf-8")
            expected = int.from_bytes(hashlib.blake2b(material, digest_size=4).digest(), "big")
            assert packet_signature(packet) == expected
