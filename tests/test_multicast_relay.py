"""One copy per link: an EWO mirror reaches a two-hop member through the
member on its path.

In the NF cluster ingress and egress are two hops apart, through one
of the NF switches (the one ECMP picks for the copy to egress).  The
writer's multicast engine sends that switch one copy carrying egress as
a relay target, instead of two copies over the same link; the switch
sends egress its copy where a transit copy used to be forwarded.
"""

from __future__ import annotations

import pytest

from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.headers import SwiShmemHeader, SwiShmemOp
from repro.net.packet import Packet
from repro.switch.pisa import PisaSwitch
from repro.testing import build_nf_world

#: ``build_nf_cluster``'s link parameters.
LATENCY = 5e-6
BANDWIDTH = 100e9


def _serialize(size: int) -> float:
    return size * 8 / BANDWIDTH


def _channel(switch: PisaSwitch, neighbor: str):
    link = switch.links[neighbor]
    return link.ab if link.a.name == switch.name else link.ba


def _world(sync_period: float = 1.0):
    world = build_nf_world(seed=5, sync_period=sync_period)
    spec = world.deployment.declare(
        RegisterSpec("hits", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
    )
    return world, spec


def _carrier(world, spec) -> str:
    """The NF switch the ingress's copy to egress takes: the ECMP pick
    ``forward_to_node`` makes for a copy addressed to egress."""
    ingress, routing = world.ingress, world.ingress.routing
    hops = routing.hops_for(ingress.name, world.egress.name)
    probe = Packet(
        swishmem=SwiShmemHeader(SwiShmemOp.EWO_UPDATE, spec.group_id, world.egress.name)
    )
    return hops[routing.flow_hash(probe) % len(hops)]


def _merge_times(world, names):
    """Record when each named switch's EWO engine merges an update."""
    times = {}
    for name in names:
        engine = world.deployment.manager(name).ewo
        merge = engine.handle_update

        def recording(message, sync=False, merge=merge, name=name):
            times.setdefault(name, world.sim.now)
            merge(message, sync)

        engine.handle_update = recording
    return times


def _value(world, spec, name):
    return world.deployment.manager(name).register_read(spec, "k", 0)


class TestOneCopyPerLink:
    def test_one_ewo_packet_per_ingress_link(self):
        """One ingress write puts exactly one EWO packet on each
        ingress->NF channel, including the one egress's path uses."""
        world, spec = _world()
        ingress = world.ingress
        channels = {nf.name: _channel(ingress, nf.name) for nf in world.cluster}
        before = {name: ch.stats.packets_sent for name, ch in channels.items()}
        carrier = _carrier(world, spec)
        world.deployment.manager(ingress.name).register_increment(spec, "k", 1)
        sent = {name: ch.stats.packets_sent - before[name] for name, ch in channels.items()}
        assert sent == {name: 1 for name in channels}
        assert ingress.stats.multicast_copies == len(world.cluster)
        world.sim.run(until=1e-3)
        # the carrier sent egress its copy, counted as its own
        assert world.deployment.manager(carrier).switch.stats.multicast_copies == 1
        for name in [ingress.name, *channels, world.egress.name]:
            assert _value(world, spec, name) == 1, name

    def test_relay_bitstring_is_charged_on_the_carrying_copy_only(self):
        """The carrying copy is one bitstring byte (5 members) longer
        than a plain copy; the copy the carrier sends on is plain."""
        world, spec = _world()
        ingress, egress = world.ingress, world.egress
        carrier = _carrier(world, spec)
        others = [nf.name for nf in world.cluster if nf.name != carrier]
        to_carrier, to_other = _channel(ingress, carrier), _channel(ingress, others[0])
        onward = _channel(world.deployment.manager(carrier).switch, egress.name)
        marks = [c.stats.bytes_sent for c in (to_carrier, to_other, onward)]
        world.deployment.manager(ingress.name).register_increment(spec, "k", 1)
        world.sim.run(until=1e-3)
        carried, plain, relayed = (
            c.stats.bytes_sent - m for c, m in zip((to_carrier, to_other, onward), marks)
        )
        assert carried == plain + 1
        assert relayed == plain

    def test_merge_instants_match_the_closed_forms(self):
        """A write broadcast at t0 as an S-byte copy: the carrier merges
        its copy at t0 + ser(S + 1) + L — one serialization slot earlier
        than behind a transit copy, less the bitstring byte — and egress
        merges at t0 + ser(S + 1) + L + ser(S) + L, the transit copy's
        arrival plus the bitstring byte (section 7's EWO visibility
        through one egress mirror)."""
        world, spec = _world()
        ingress, egress = world.ingress, world.egress
        carrier = _carrier(world, spec)
        other = next(nf.name for nf in world.cluster if nf.name != carrier)
        times = _merge_times(world, [carrier, other, egress.name])
        mark = _channel(ingress, other).stats.bytes_sent
        t0 = world.sim.now
        world.deployment.manager(ingress.name).register_increment(spec, "k", 1)
        size = _channel(ingress, other).stats.bytes_sent - mark
        world.sim.run(until=1e-3)
        carried = t0 + _serialize(size + 1) + LATENCY
        assert times[carrier] == pytest.approx(carried, rel=0, abs=1e-15)
        assert times[egress.name] == pytest.approx(
            carried + _serialize(size) + LATENCY, rel=0, abs=1e-15
        )
        # against the two-copies-per-link schedule: the transit copy
        # went first, and the carrier's own copy queued behind it
        transit_at_egress = t0 + 2 * (_serialize(size) + LATENCY)
        carrier_behind_transit = t0 + 2 * _serialize(size) + LATENCY
        assert times[egress.name] - transit_at_egress == pytest.approx(
            _serialize(1), rel=0, abs=1e-15
        )
        assert carrier_behind_transit - times[carrier] == pytest.approx(
            _serialize(size) - _serialize(1), rel=0, abs=1e-15
        )
        # a member reached directly is not moved
        assert times[other] == pytest.approx(t0 + _serialize(size) + LATENCY, rel=0, abs=1e-15)

    def test_a_relayed_mirror_merges_at_the_writers_slot_on_the_rider(self):
        """A counter entry names no slot: the rider (egress) takes it
        from the mirror's origin, the writer, not from the member that
        sent it the copy."""
        world = build_nf_world(seed=5, sync_period=1.0)
        spec, other = (
            world.deployment.declare(RegisterSpec(
                name, Consistency.EWO, ewo_mode=EwoMode.COUNTER, ewo_batch_size=100
            ))
            for name in ("hits", "misses")
        )
        ingress, egress = world.ingress, world.egress
        carrier = _carrier(world, spec)
        writer = world.deployment.manager(ingress.name).ewo
        for group in (spec, other):
            world.deployment.manager(ingress.name).register_increment(group, "k", 4)
        received = []
        rider = world.deployment.manager(egress.name).ewo
        merge = rider.handle_update
        rider.handle_update = lambda message, sync=False: (
            received.append(message), merge(message, sync))
        relayed = world.deployment.manager(carrier).switch.stats.multicast_copies
        writer._mirror([writer.groups[spec.group_id], writer.groups[other.group_id]])
        world.sim.run(until=1e-3)
        # egress's copy came through the carrier, still naming the writer
        assert world.deployment.manager(carrier).switch.stats.multicast_copies == relayed + 1
        assert [(m.origin, len(m.sections)) for m in received] == [(ingress.name, 2)]
        members = writer.groups[spec.group_id].members
        expected = [4 if name == ingress.name else 0 for name in members]
        for group in (spec, other):
            assert rider.groups[group.group_id].cells["k"].vector() == expected
            carried = world.deployment.manager(carrier).ewo.groups[group.group_id]
            assert carried.cells["k"].vector() == expected

    def test_a_dropped_carrying_copy_is_healed_by_sync(self):
        """Losing the carrying copy loses the write at the carrier and at
        egress; each pulls it on its next sync round, within two sync
        periods."""
        period = 1e-3
        world, spec = _world(sync_period=period)
        ingress, egress = world.ingress, world.egress
        carrier = _carrier(world, spec)
        for name in (carrier, egress.name):
            # their sync rounds probe the writer
            world.deployment.manager(name).ewo._sync_rng.choice = lambda others: ingress.name
        lossy = _channel(ingress, carrier)
        world.sim.run(until=0.5 * period)
        t0 = world.sim.now
        lossy.loss_rate = 1.0
        world.deployment.manager(ingress.name).register_increment(spec, "k", 1)
        lossy.loss_rate = 0.0
        assert lossy.stats.packets_dropped == 1
        world.sim.run(until=t0 + 50e-6)
        assert _value(world, spec, carrier) == 0
        assert _value(world, spec, egress.name) == 0
        world.sim.run(until=t0 + 2 * period)
        assert _value(world, spec, carrier) == 1
        assert _value(world, spec, egress.name) == 1
