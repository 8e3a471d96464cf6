"""The hop, resolved once: a switch forwards through its egress table.

``_ParentHop`` restores, as a test-local subclass, the per-packet path the
egress table replaced — ``Node.deliver -> handle_packet -> next_hop ->
Node.send -> Link.transmit`` with an ECMP hash that builds the
``FiveTuple`` and SHA-1s it for every packet — and ``_ParentHost`` the
end host that sorted its links on every send and computed reply flags
branch by branch.  Both are swapped in through ``__class__``; the same
seeded worlds are driven through both, and every per-channel
``LinkStats`` field, every ``SwitchStats`` field, every host's received
sequence and the number of events processed must come out equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional

import pytest

from repro.chaos import Nemesis
from repro.net.endhost import _REPLY_FLAGS, AddressBook, EndHost
from repro.net.headers import SwiShmemHeader, SwiShmemOp, TcpFlags
from repro.net.link import Node
from repro.net.packet import Packet, make_tcp_packet, make_udp_packet
from repro.net.routing import RoutingTable, ecmp_hash
from repro.net.topology import Topology, build_leaf_spine
from repro.nf.heavyhitter import HeavyHitterNF
from repro.nf.nat import NatNF
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch
from repro.testing import build_nf_world
from repro.workload.flows import FlowGenerator


# ----------------------------------------------------------------------
# The reference: the hop as it was before the egress table
# ----------------------------------------------------------------------
def _next_hop(routing: RoutingTable, node: str, destination: str,
              packet: Optional[Packet] = None) -> Optional[str]:
    """``RoutingTable.next_hop`` as it was: the flow hash on every call."""
    hops = routing.hops_for(node, destination)
    if not hops:
        return None
    if len(hops) == 1 or packet is None:
        return hops[0]
    return hops[ecmp_hash(packet, routing.ecmp_salt) % len(hops)]


class _ParentHop(PisaSwitch):
    """Every packet walks ``Node.deliver -> handle_packet`` in, and
    ``next_hop -> Node.send -> Link.transmit`` out."""

    def deliver(self, packet, from_node):
        Node.deliver(self, packet, from_node)

    def handle_packet(self, packet, from_node):
        self.stats.rx_packets += 1
        if self.pipeline_rate_pps is None:
            self._pipeline_pass(packet, from_node)
            return
        depth = len(self._queue)
        if depth >= self.queue_capacity:
            self.stats.queue_drops += 1
            self.stats.dropped_packets += 1
            return
        self._queue.append((packet, from_node, self.sim.now))
        if depth >= self.queue_high_water:
            self.queue_high_water = depth + 1
        if not self._serving:
            self._serving = True
            self.sim.schedule(
                1.0 / self.pipeline_rate_pps, self._serve_next, label=self._serve_label
            )

    def forward_to_node(self, packet, dst_node):
        if dst_node == self.name:
            self.recirculate(packet)
            return True
        if self.routing is None:
            raise RuntimeError(f"{self.name} has no routing table")
        hop = _next_hop(self.routing, self.name, dst_node, packet)
        if hop is None:
            self.drop(packet, reason="unreachable")
            return False
        if hop not in self.links:
            raise RuntimeError(f"{self.name}: next hop {hop} is not a neighbor")
        sent = self.send(packet, hop)
        if sent:
            self.stats.tx_packets += 1
        return sent

    def forward_by_ip(self, packet):
        if packet.ipv4 is None or self.address_book is None:
            self.drop(packet, reason="no-route")
            return False
        dst_node = self.address_book.lookup(packet.ipv4.dst)
        if dst_node is None:
            self.drop(packet, reason="unknown-ip")
            return False
        packet.ipv4.ttl -= 1
        if packet.ipv4.ttl <= 0:
            self.drop(packet, reason="ttl-expired")
            return False
        return self.forward_to_node(packet, dst_node)


def _branch_reply_flags(flags, has_payload):
    """The responder's reply rules as the branch chain they were."""
    if flags & TcpFlags.RST:
        return None
    if flags & TcpFlags.SYN and not flags & TcpFlags.ACK:
        return TcpFlags.SYN | TcpFlags.ACK
    elif flags & TcpFlags.FIN:
        return TcpFlags.FIN | TcpFlags.ACK
    elif has_payload:
        return TcpFlags.ACK
    return None


class _ParentHost(EndHost):
    """Sorts its links on every send; reply flags branch by branch."""

    def inject(self, packet):
        packet.created_at = self.sim.now
        self.sent_count += 1
        neighbors = self.neighbors()
        if len(neighbors) != 1:
            raise RuntimeError(f"host {self.name} expected exactly one uplink")
        return self.send(packet, neighbors[0])

    def _respond(self, packet):
        reply_flags = _branch_reply_flags(packet.tcp.flags, packet.payload_size > 0)
        if reply_flags is None:
            return
        self.inject(make_tcp_packet(
            src_ip=self.ip,
            dst_ip=packet.ipv4.src,
            src_port=packet.tcp.dst_port,
            dst_port=packet.tcp.src_port,
            flags=reply_flags,
        ))


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------
@dataclass
class _World:
    sim: Simulator
    topo: Topology
    switches: List[PisaSwitch]
    hosts: List[EndHost]
    routing: RoutingTable
    #: When a scenario stops the world.
    until: float

    def switch(self, name: str) -> PisaSwitch:
        return self.topo.nodes[name]


def _leaf_spine(spines: int, seed: int, leaves: int = 3) -> _World:
    """``leaves`` leaves under ``spines`` spines, one client and one
    responding server per leaf, Poisson flows between them for 2 ms."""
    sim = Simulator()
    rng = SeededRng(seed)
    topo = Topology(sim, rng)
    book = AddressBook()
    addresses = itertools.count(1)

    def host(name: str) -> EndHost:
        return EndHost(name, sim, f"10.0.0.{next(addresses)}", book,
                       responder=name.endswith("_1"))

    leaf_nodes, spine_nodes, hosts = build_leaf_spine(
        topo, lambda name: PisaSwitch(name, sim), host,
        leaves=leaves, spines=spines, hosts_per_leaf=2,
    )
    routing = RoutingTable(topo)
    switches = leaf_nodes + spine_nodes
    for switch in switches:
        switch.routing = routing
        switch.address_book = book
    clients = [h for h in hosts if not h.responder]
    servers = [h for h in hosts if h.responder]
    FlowGenerator(
        sim, clients, [s.ip for s in servers], rng, flow_rate=20000.0,
        data_packets=3, inter_packet_gap=30e-6,
    ).start(2e-3)
    return _World(sim, topo, switches, hosts, routing, until=4e-3)


def _nf_world(seed: int) -> _World:
    """The NF cluster with NAT (SRO chain traffic) and a heavy-hitter
    (EWO multicast) installed, under client flows for 2 ms once the
    controller is up."""
    world = build_nf_world(seed=seed, cluster_size=3, clients=4, servers=4)
    world.deployment.install_nf(NatNF)
    world.deployment.install_nf(HeavyHitterNF, threshold=10**9)
    flows = FlowGenerator(
        world.sim, world.clients, world.server_ips(), world.rng, flow_rate=10000.0,
        data_packets=3, inter_packet_gap=40e-6,
    )
    world.sim.schedule(1e-3, flows.start, 2e-3)
    return _World(world.sim, world.topo, list(world.switches),
                  world.clients + world.servers, world.deployment.routing,
                  until=8e-3)


def _fingerprint(world: _World):
    channels = [
        (ch.src.name, ch.dst.name, ch.stats.packets_sent, ch.stats.bytes_sent,
         ch.stats.packets_dropped, ch.stats.packets_delivered, ch.stats.busy_seconds)
        for link in world.topo.links for ch in (link.ab, link.ba)
    ]
    switches = {s.name: s.stats.as_dict() for s in world.switches}
    received = {
        h.name: [
            (r.time, r.from_node, r.packet.five_tuple(),
             None if r.packet.tcp is None else int(r.packet.tcp.flags))
            for r in h.received
        ]
        for h in world.hosts
    }
    return channels, switches, received, world.sim.events_processed


def _drive(build: Callable[[int], _World], scenario: Callable[[_World], None],
           reference: bool, seed: int = 5):
    world = build(seed)
    if reference:
        for switch in world.switches:
            switch.__class__ = _ParentHop
        for host in world.hosts:
            host.__class__ = _ParentHost
    scenario(world)
    return world, _fingerprint(world)


# ----------------------------------------------------------------------
# Scenarios: each schedules its perturbation and runs the world
# ----------------------------------------------------------------------
def _plain(world):
    world.sim.run(until=world.until)


def _salt_mid_run(world):
    world.sim.schedule(1e-3, world.routing.set_salt, 4242)
    world.sim.run(until=world.until)


def _link_flap_no_recompute(world):
    link = world.topo.link_between("leaf0", "spine1")
    world.sim.schedule(0.5e-3, link.set_up, False)
    world.sim.schedule(1.5e-3, link.set_up, True)
    world.sim.run(until=world.until)


def _crash_recompute_recover(world):
    sim, routing, spine = world.sim, world.routing, world.switch("spine0")

    def crash():
        spine.fail()
        routing.recompute()

    def recover():
        spine.recover()
        routing.recompute()

    sim.schedule(0.6e-3, crash)
    sim.schedule(1.4e-3, recover)
    sim.run(until=world.until)


def _routing_replaced(world):
    # The fresh table sees leaf0-spine0 down and has the same version
    # number as the one it replaces: only the object differs.
    def replace():
        world.topo.link_between("leaf0", "spine0").set_up(False)
        fresh = RoutingTable(world.topo)
        assert fresh.version == world.routing.version
        for switch in world.switches:
            switch.routing = fresh

    world.sim.schedule(1e-3, replace)
    world.sim.run(until=world.until)


def _late_connect(world):
    def connect():
        world.topo.connect("leaf0", "leaf2")
        world.routing.recompute()

    world.sim.schedule(1e-3, connect)
    world.sim.run(until=world.until)


def _second_link_same_pair(world):
    # No recompute: the routing table is unchanged, but the switch's way
    # to spine0 is now the new link.
    world.sim.schedule(1e-3, world.topo.connect, "leaf1", "spine0")
    world.sim.run(until=world.until)


def _finite_rate(world):
    for switch in world.switches:
        switch.pipeline_rate_pps = 3e6
        switch.queue_capacity = 2
    world.sim.run(until=world.until)


def _nemesis(world):
    Nemesis(seed=9, duplicate_prob=0.1, delay_prob=0.1, max_delay=40e-6).install(world.topo)
    world.sim.run(until=world.until)


def _two_spines(seed):
    return _leaf_spine(2, seed)


def _four_spines(seed):
    return _leaf_spine(4, seed)


_SCENARIOS = {
    "ecmp-2-spines": (_two_spines, _plain),
    "ecmp-4-spines": (_four_spines, _plain),
    "salt-mid-run": (_four_spines, _salt_mid_run),
    "link-flap-no-recompute": (_two_spines, _link_flap_no_recompute),
    "crash-recompute-recover": (_two_spines, _crash_recompute_recover),
    "routing-replaced": (_two_spines, _routing_replaced),
    "late-connect": (_two_spines, _late_connect),
    "second-link-same-pair": (_two_spines, _second_link_same_pair),
    "finite-rate": (_two_spines, _finite_rate),
    "replication": (_nf_world, _plain),
    "nemesis": (_nf_world, _nemesis),
}


class TestSameAsTheParentHop:
    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    @pytest.mark.parametrize("seed", [5, 23])
    def test_same_counts_deliveries_and_events(self, scenario, seed):
        build, drive = _SCENARIOS[scenario]
        _, reference = _drive(build, drive, reference=True, seed=seed)
        world, table = _drive(build, drive, reference=False, seed=seed)
        assert table == reference
        received = table[2]
        assert sum(len(seq) for seq in received.values()) > 50
        assert all(type(s) is PisaSwitch for s in world.switches)

    def test_ecmp_spreads_over_every_spine(self):
        world, _ = _drive(_four_spines, _plain, reference=False)
        for spine in world.switches[3:]:
            assert spine.stats.rx_packets > 0, spine.name

    def test_the_perturbations_happen(self):
        _, (_, switches, _, _) = _drive(_two_spines, _finite_rate, False)
        assert sum(s["queue_drops"] for s in switches.values()) > 0
        world, _ = _drive(_two_spines, _link_flap_no_recompute, False)
        link = world.topo.link_between("leaf0", "spine1")
        assert link.ab.stats.packets_dropped > 0  # the channel still drops
        world, _ = _drive(_two_spines, _second_link_same_pair, False)
        second = world.topo.links[-1]
        assert (second.a.name, second.b.name) == ("leaf1", "spine0")
        assert second.ab.stats.packets_sent > 0
        world, _ = _drive(_two_spines, _late_connect, False)
        assert world.topo.links[-1].ab.stats.packets_sent > 0
        world, _ = _drive(_nf_world, _nemesis, False)
        nemesis = world.topo.links[0].ab.nemesis
        assert nemesis.packets_duplicated > 0 and nemesis.packets_delayed > 0

    def test_replication_packets_cross_the_fabric(self):
        world, _ = _drive(_nf_world, _plain, reference=False)
        hashed = world.routing._flow_hashes
        assert any(len(key) == 3 for key in hashed)  # (op, group, dst_node)
        assert any(len(key) == 5 for key in hashed)  # five-tuples


# ----------------------------------------------------------------------
# Unit cases
# ----------------------------------------------------------------------
def _packets():
    tcp = make_tcp_packet("10.0.0.1", "10.0.0.2", 30001, 80)
    udp = make_udp_packet("10.0.0.1", "10.0.0.2", 30001, 53)
    swishmem = Packet(swishmem=SwiShmemHeader(
        op=SwiShmemOp.CHAIN_UPDATE, register_group=3, dst_node="s2"))
    heartbeat = Packet(swishmem=SwiShmemHeader(op=SwiShmemOp.HEARTBEAT, dst_node="s0"))
    ip_only = Packet(ipv4=tcp.ipv4.copy(), swishmem=SwiShmemHeader(dst_node="s1"))
    return {"tcp": tcp, "udp": udp, "swishmem": swishmem, "heartbeat": heartbeat,
            "ip-only": ip_only, "bare": Packet()}


def _diamond_routing():
    sim = Simulator()
    topo = Topology(sim, SeededRng(1))
    for name in "abcd":
        topo.add_node(PisaSwitch(name, sim))
    for a, b in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        topo.connect(a, b)
    return topo, RoutingTable(topo)


class TestFlowHashMemo:
    @pytest.mark.parametrize("kind", sorted(_packets()))
    def test_memo_equals_ecmp_hash_before_and_after_a_salt_change(self, kind):
        _, routing = _diamond_routing()
        packet = _packets()[kind]
        assert routing.flow_hash(packet) == ecmp_hash(packet, 0)
        assert routing.flow_hash(packet) == ecmp_hash(packet, 0)  # from the memo
        routing.set_salt(777)
        assert routing.flow_hash(packet) == ecmp_hash(packet, 777)
        assert routing.flow_hash(_packets()[kind]) == ecmp_hash(packet, 777)

    def test_one_entry_per_flow_not_per_packet(self):
        _, routing = _diamond_routing()
        for _ in range(3):
            for packet in _packets().values():
                routing.flow_hash(packet)
        assert len(routing._flow_hashes) == len(_packets())
        reply = make_tcp_packet("10.0.0.2", "10.0.0.1", 80, 30001)
        routing.flow_hash(reply)
        assert len(routing._flow_hashes) == len(_packets()) + 1  # one per direction

    def test_the_salt_changes_only_through_set_salt(self):
        _, routing = _diamond_routing()
        with pytest.raises(AttributeError):
            routing.ecmp_salt = 5  # would leave the memo on the old salt
        routing.set_salt(5)
        assert routing.ecmp_salt == 5

    def test_salt_and_recompute_move_the_version(self):
        _, routing = _diamond_routing()
        version = routing.version
        routing.recompute()
        routing.set_salt(1)
        assert routing.version == version + 2


class TestReplyTable:
    @pytest.mark.parametrize("has_payload", [False, True])
    def test_equals_the_branch_chain_on_every_input(self, has_payload):
        for bits in range(32):
            flags = TcpFlags(bits)
            expected = _branch_reply_flags(flags, has_payload)
            assert _REPLY_FLAGS[flags][has_payload] == expected, (bits, has_payload)
            assert type(_REPLY_FLAGS[flags][has_payload]) is type(expected)


class TestOrderOfEffects:
    @pytest.fixture(params=[PisaSwitch, _ParentHop], ids=["table", "parent"])
    def line(self, request):
        """a - b - c, and an isolated d, all switches of one class."""
        sim = Simulator()
        topo = Topology(sim, SeededRng(1))
        for name in "abcd":
            switch = topo.add_node(PisaSwitch(name, sim))
            switch.__class__ = request.param
        topo.connect("a", "b")
        topo.connect("b", "c")
        routing = RoutingTable(topo)
        for switch in topo.nodes.values():
            switch.routing = routing
        return sim, topo

    def test_a_failed_switch_neither_counts_nor_transmits(self, line):
        sim, topo = line
        a = topo.nodes["a"]
        a.fail()
        assert a.forward_to_node(make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2), "c") is False
        assert a.stats.tx_packets == 0 and a.stats.dropped_packets == 0
        link = topo.link_between("a", "b")
        assert link.ab.stats.packets_sent == 0
        sim.run()
        assert topo.nodes["b"].stats.rx_packets == 0

    def test_unreachable_on_a_failed_switch_still_counts_a_drop(self, line):
        _, topo = line
        a = topo.nodes["a"]
        a.fail()
        assert a.forward_to_node(make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2), "d") is False
        assert a.stats.dropped_packets == 1 and a.stats.tx_packets == 0

    def test_a_hop_that_is_no_neighbor_is_an_error(self, line):
        sim, topo = line
        a = topo.nodes["a"]
        # a routing table over another fabric, in which a reaches c directly
        other = Topology(sim, SeededRng(2))
        for name in "ac":
            other.add_node(PisaSwitch(name, sim))
        other.connect("a", "c")
        a.routing = RoutingTable(other)
        with pytest.raises(RuntimeError, match="not a neighbor"):
            a.forward_to_node(make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2), "c")

    def test_a_failed_switch_ignores_deliveries(self, line):
        _, topo = line
        b = topo.nodes["b"]
        b.fail()
        b.deliver(make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2), "a")
        assert b.stats.rx_packets == 0


class TestUplink:
    def test_a_new_link_resolves_the_uplink_again(self):
        sim = Simulator()
        topo = Topology(sim, SeededRng(1))
        for name in "ab":
            topo.add_node(PisaSwitch(name, sim))
        host = topo.add_node(EndHost("h", sim, "10.0.0.1"))
        topo.connect("h", "a")
        assert host.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)) is True
        assert host.uplink_neighbor() == "a"
        topo.connect("h", "b")  # no longer single-homed
        with pytest.raises(RuntimeError, match="exactly one uplink"):
            host.inject(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2))
