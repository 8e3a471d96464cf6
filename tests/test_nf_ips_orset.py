"""Tests for the OR-Set-backed IPS signature store and link failures."""

from __future__ import annotations

import pytest

from repro.net.packet import make_udp_packet
from repro.nf.ips import IpsNF, packet_signature

from repro.testing import build_nf_world


def ips_orset_world(**kwargs):
    world = build_nf_world(responder_servers=False, **kwargs)
    instances = world.deployment.install_nf(
        IpsNF, block_threshold=3, signature_store="orset"
    )
    return world, instances


def malicious(src, dst, digest=666):
    packet = make_udp_packet(src, dst, 4000, 53, payload_size=64)
    packet.payload_digest = digest
    return packet


class TestIpsOrSetStore:
    def test_signature_blocks_traffic(self):
        world, instances = ips_orset_world()
        client, server = world.clients[0], world.servers[0]
        instances[0].add_signature(packet_signature(malicious(client.ip, server.ip)))
        world.sim.run(until=0.01)  # OR-Set delta propagates
        client.inject(malicious(client.ip, server.ip))
        world.sim.run(until=0.05)
        assert server.received == []
        assert sum(i.signature_hits for i in instances) == 1

    def test_signature_removal_unblocks(self):
        world, instances = ips_orset_world()
        client, server = world.clients[0], world.servers[0]
        sig = packet_signature(malicious(client.ip, server.ip))
        instances[0].add_signature(sig)
        world.sim.run(until=0.01)
        instances[2].remove_signature(sig)  # removed from another switch
        world.sim.run(until=0.02)
        client.inject(malicious(client.ip, server.ip))
        world.sim.run(until=0.05)
        assert len(server.received) == 1

    def test_concurrent_readd_survives_remove(self):
        """The OR-Set's distinguishing behavior, via the NF API."""
        world, instances = ips_orset_world()
        sig = 0xDEAD
        instances[0].add_signature(sig)
        world.sim.run(until=0.01)
        # concurrent: one operator removes, another re-adds
        instances[1].remove_signature(sig)
        instances[2].add_signature(sig)
        world.sim.run(until=0.05)
        spec = world.deployment.spec_by_name("ips_signatures")
        for name in world.deployment.switch_names:
            assert world.deployment.manager(name).register_set_contains(
                spec, "active", sig
            )

    def test_invalid_store_rejected(self):
        world = build_nf_world()
        with pytest.raises(ValueError):
            world.deployment.install_nf(IpsNF, signature_store="bogus")


class TestLinkFailureHandling:
    def test_controller_reroutes_around_down_link(self, make_deployment):
        dep, topo, _ = make_deployment(4)
        dep.sim.run(until=0.001)
        link = topo.link_between("s0", "s1")
        link.set_up(False)
        dep.sim.run(until=0.005)  # detector polls, recomputes routing
        assert dep.controller.active_leader().link_events >= 1
        # s0 -> s1 now goes through a third switch
        hop = dep.routing.next_hop("s0", "s1")
        assert hop in ("s2", "s3")

    def test_link_recovery_restores_direct_path(self, make_deployment):
        dep, topo, _ = make_deployment(3)
        link = topo.link_between("s0", "s1")
        link.set_up(False)
        dep.sim.run(until=0.005)
        link.set_up(True)
        dep.sim.run(until=0.01)
        assert dep.routing.next_hop("s0", "s1") == "s1"

    def test_sro_survives_chain_link_failure(self, make_deployment):
        """A down link between chain members only lengthens the path:
        updates route around it and writes still commit."""
        dep, topo, _ = make_deployment(3)
        from repro.core.registers import Consistency, RegisterSpec

        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        topo.link_between("s0", "s1").set_up(False)
        dep.sim.run(until=0.005)
        dep.manager("s0").register_write(spec, "k", "v")
        dep.sim.run(until=0.1)
        assert all(s.get("k") == "v" for s in dep.sro_stores(spec))
