"""Tests for the paper's section 2 atomicity property.

"Switches process packets atomically: if a packet generates multiple
local writes to different locations, these updates are atomic in the
sense that the next processed packet will not see an intermediate view
on the state."

The EWO protocol's correctness leans on this (atomic version+value
updates, section 7); these tests pin the property down at the switch
level and through the register API.
"""

from __future__ import annotations

import pytest

from repro.core.manager import Decision
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.endhost import AddressBook, EndHost
from repro.net.packet import make_udp_packet
from repro.nf.base import NetworkFunction


class PairWriterNF(NetworkFunction):
    """Writes the same generation number into two registers per packet,
    then checks it read a consistent pair — across *all* packets ever
    processed on this switch, the two registers must never be torn."""

    @classmethod
    def build_specs(cls, **kwargs):
        return [
            RegisterSpec("left", Consistency.EWO, ewo_mode=EwoMode.LWW, capacity=16),
            RegisterSpec("right", Consistency.EWO, ewo_mode=EwoMode.LWW, capacity=16),
        ]

    def __init__(self, manager, handles, **kwargs):
        super().__init__(manager, handles)
        self.generation = 0
        self.torn_observations = 0

    def process(self, ctx):
        left, right = self.handles["left"], self.handles["right"]
        # First: observe.  A torn pair means another packet's multi-
        # location write was visible half-applied — forbidden.
        seen_left = left.read("cell", -1)
        seen_right = right.read("cell", -1)
        if seen_left != seen_right:
            self.torn_observations += 1
        # Then: write both locations "atomically" (one pipeline pass).
        self.generation += 1
        left.write("cell", self.generation)
        right.write("cell", self.generation)
        return Decision.forward()


def build_single_switch_world(sim_seed=5):
    from repro.core.manager import SwiShmemDeployment
    from repro.net.topology import Topology, build_full_mesh
    from repro.sim.engine import Simulator
    from repro.sim.random import SeededRng
    from repro.switch.pisa import PisaSwitch

    sim = Simulator()
    topo = Topology(sim, SeededRng(sim_seed))
    book = AddressBook()
    switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 1)
    src = topo.add_node(EndHost("src", sim, "10.0.0.1", book))
    dst = topo.add_node(EndHost("dst", sim, "10.0.0.2", book))
    topo.connect("src", "s0")
    topo.connect("dst", "s0")
    deployment = SwiShmemDeployment(sim, topo, switches, address_book=book)
    return sim, deployment, src, dst


class TestAtomicPacketProcessing:
    def test_multi_register_writes_never_torn_on_one_switch(self):
        sim, deployment, src, dst = build_single_switch_world()
        instances = deployment.install_nf(PairWriterNF)
        for i in range(200):
            sim.schedule(
                i * 3e-6,  # back-to-back packets
                lambda: src.inject(make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2)),
            )
        sim.run(until=0.01)
        nf = instances[0]
        assert nf.generation == 200  # every packet processed
        assert nf.torn_observations == 0

    def test_ewo_version_value_pair_atomic(self):
        """Section 7: 'the replication protocol can update both the
        version number and the value atomically.'  A reader between two
        increments must see a consistent (slot value, sum) view."""
        sim, deployment, src, dst = build_single_switch_world()
        spec = deployment.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER, capacity=4)
        )
        manager = deployment.manager("s0")
        state = manager.ewo.groups[spec.group_id]
        for i in range(50):
            value = manager.register_increment(spec, "k", 1)
            # the returned sum equals the vector's sum at this instant —
            # no event can interleave inside the increment
            assert value == sum(state.cells["k"].vector())
        assert manager.register_read(spec, "k", 0) == 50

    def test_interleaved_packets_see_full_write_sets(self):
        """Two alternating traffic sources through one switch: every
        observation remains pair-consistent regardless of arrival order."""
        sim, deployment, src, dst = build_single_switch_world()
        book = deployment.address_book
        from repro.net.endhost import EndHost

        src2 = deployment.topo.add_node(EndHost("src2", sim, "10.0.0.3", book))
        deployment.topo.connect("src2", "s0")
        deployment.routing.recompute()
        instances = deployment.install_nf(PairWriterNF)
        for i in range(100):
            source = src if i % 2 == 0 else src2
            sim.schedule(
                i * 1e-6,
                lambda s=source: s.inject(
                    make_udp_packet(s.ip, "10.0.0.2", 1, 2)
                ),
            )
        sim.run(until=0.01)
        assert instances[0].torn_observations == 0
