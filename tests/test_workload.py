"""Tests for workload generation: Zipf, flows, attacks."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.endhost import AddressBook, EndHost
from repro.net.headers import TcpFlags
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.workload.attack import AttackScenario
from repro.workload.flows import FlowGenerator, FlowSpec, inject_flow
from repro.workload.zipf import ZipfSampler


def sample_many(sampler: ZipfSampler, count: int):
    return [sampler.sample() for _ in range(count)]


class TestZipf:
    def test_rank_zero_most_popular(self):
        sampler = ZipfSampler(100, s=1.2, rng=SeededRng(1).stream("z"))
        draws = sample_many(sampler, 5000)
        counts = {}
        for draw in draws:
            counts[draw] = counts.get(draw, 0) + 1
        assert counts.get(0, 0) > counts.get(10, 0)
        assert max(draws) < 100 and min(draws) >= 0

    def test_s_zero_is_uniform(self):
        sampler = ZipfSampler(4, s=0.0, rng=SeededRng(2).stream("z"))
        draws = sample_many(sampler, 8000)
        for rank in range(4):
            share = draws.count(rank) / len(draws)
            assert 0.2 < share < 0.3

    def test_pick_from_items(self):
        sampler = ZipfSampler(3, rng=SeededRng(3).stream("z"))
        assert sampler.pick(["a", "b", "c"]) in ("a", "b", "c")
        with pytest.raises(ValueError):
            sampler.pick(["a"])

    def test_deterministic(self):
        a = sample_many(ZipfSampler(50, s=1.0, rng=SeededRng(7).stream("z")), 100)
        b = sample_many(ZipfSampler(50, s=1.0, rng=SeededRng(7).stream("z")), 100)
        assert a == b

    def test_missing_rng_deprecated(self):
        """Omitting rng= used to silently share random.Random(0) draws
        between unrelated samplers; now it warns and derives a seed."""
        with pytest.warns(DeprecationWarning, match="SeededRng"):
            sampler = ZipfSampler(10, s=1.0)
        draws = sample_many(sampler, 10)
        assert all(0 <= d < 10 for d in draws)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(5, s=-1)


def world_with_client():
    sim = Simulator()
    topo = Topology(sim, SeededRng(5))
    book = AddressBook()
    client = topo.add_node(EndHost("client", sim, "10.0.0.1", book))
    server = topo.add_node(EndHost("server", sim, "10.0.0.2", book))
    # direct link: packets flow client -> server without switches
    topo.connect("client", "server")
    return sim, topo, client, server


class TestFlows:
    def test_inject_flow_structure(self):
        sim, topo, client, server = world_with_client()
        flow = FlowSpec(client=client, dst_ip="10.0.0.2", data_packets=3)
        done = []
        inject_flow(sim, flow, on_done=done.append)
        sim.run()
        assert len(server.received) == flow.total_packets == 5
        flags = [r.packet.tcp.flags for r in server.received]
        assert flags[0] & TcpFlags.SYN
        assert flags[-1] & TcpFlags.FIN
        assert all(f & TcpFlags.PSH for f in flags[1:-1])
        assert done == [flow]

    def test_flow_shares_five_tuple(self):
        sim, topo, client, server = world_with_client()
        inject_flow(sim, FlowSpec(client=client, dst_ip="10.0.0.2", data_packets=2))
        sim.run()
        tuples = {r.packet.five_tuple() for r in server.received}
        assert len(tuples) == 1

    def test_payload_digest_propagates(self):
        sim, topo, client, server = world_with_client()
        inject_flow(sim, FlowSpec(client=client, dst_ip="10.0.0.2", payload_digest=42))
        sim.run()
        assert all(r.packet.payload_digest == 42 for r in server.received)

    def test_generator_poisson_arrivals(self):
        sim, topo, client, server = world_with_client()
        generator = FlowGenerator(
            sim, [client], ["10.0.0.2"], SeededRng(9), flow_rate=5000, data_packets=1
        )
        generator.start(duration=0.02)
        sim.run(until=0.1)
        assert generator.flows_completed == len(generator.flows_started) > 0
        # roughly rate * duration flows
        assert 50 < len(generator.flows_started) < 160

    def test_generator_stops_at_deadline(self):
        sim, topo, client, server = world_with_client()
        generator = FlowGenerator(
            sim, [client], ["10.0.0.2"], SeededRng(9), flow_rate=1000
        )
        generator.start(duration=0.01)
        sim.run(until=1.0)
        assert all(f.start_at <= 0.011 for f in generator.flows_started)

    def test_generator_validation(self):
        sim, topo, client, server = world_with_client()
        with pytest.raises(ValueError):
            FlowGenerator(sim, [], ["x"], SeededRng(1))
        with pytest.raises(ValueError):
            FlowGenerator(sim, [client], ["x"], SeededRng(1), flow_rate=0)

    def test_unique_src_ports(self):
        specs = [FlowSpec(client=None, dst_ip="x") for _ in range(10)]
        assert len({s.src_port for s in specs}) == 10


class TestAttack:
    def _scenario(self, sim, client, **kwargs):
        defaults = dict(
            sim=sim,
            clients=[client],
            server_ips=["10.0.0.2", "10.0.0.3"],
            rng=SeededRng(4),
            background_pps=5000,
            attack_pps=50000,
            attack_start=5e-3,
            attack_duration=5e-3,
            bot_count=50,
        )
        defaults.update(kwargs)
        return AttackScenario(**defaults)

    def test_phases_counted(self):
        sim, topo, client, server = world_with_client()
        scenario = self._scenario(sim, client)
        scenario.start(duration=0.02)
        sim.run(until=0.03)
        assert scenario.background_sent > 0
        assert scenario.attack_sent > 0

    def test_attack_targets_victim(self):
        sim, topo, client, server = world_with_client()
        scenario = self._scenario(sim, client, victim_ip="10.0.0.2")
        scenario.start(duration=0.02)
        sim.run(until=0.03)
        attack_packets = [
            r.packet for r in server.received if r.packet.ipv4.src.startswith("203.0.")
        ]
        assert attack_packets
        assert all(p.ipv4.dst == "10.0.0.2" for p in attack_packets)

    def test_attack_window_respected(self):
        sim, topo, client, server = world_with_client()
        scenario = self._scenario(sim, client)
        scenario.start(duration=0.02)
        sim.run(until=0.03)
        attack_times = [
            r.time for r in server.received if r.packet.ipv4.src.startswith("203.0.")
        ]
        assert min(attack_times) >= scenario.attack_start
        # small delivery slack past the end
        assert max(attack_times) <= scenario.attack_end + 1e-3

    def test_validation(self):
        sim, topo, client, server = world_with_client()
        with pytest.raises(ValueError):
            AttackScenario(sim=sim, clients=[], server_ips=["x"], rng=SeededRng(1))
