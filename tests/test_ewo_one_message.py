"""Every EWO replication packet carries one message class, ``EwoMirror``.

The five sends — a pass's lone group, a shared fan-out, a control-plane
write's flush, each partial-replication target and each sync chunk —
all put an ``EwoMirror`` of ``(group, entries)`` sections on the wire;
only the header op says whether it is a sync answer.  Sizes and section
layouts are literals: they are the bytes each send cost when a lone
group still had a message class of its own, and must not move.
"""

from __future__ import annotations

from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.protocols.messages import EwoMirror
from tests.test_protocol_ewo import PassWorld, counter_spec


def _five_sends(make_deployment):
    """s0 makes each of the five sends once (the sync answer in two
    chunks); returns the world and what each peer received from s0."""
    script = [lambda handles: handles["a"].increment("x")]
    specs = [
        counter_spec("a"),
        counter_spec("b"),
        RegisterSpec("l", Consistency.EWO, ewo_mode=EwoMode.LWW, key_bytes=13, value_bytes=4),
        counter_spec("p", partial_replication=True, ewo_batch_size=2, value_bytes=4),
        counter_spec("big", ewo_batch_size=1000),
    ]
    world = PassWorld(make_deployment, specs, lambda handles: script[0](handles), n=4,
                      directory=True)
    dep, m0, spec = world.dep, world.m0, world.dep.spec_by_name
    world.send_packet(until=1e-3)  # a pass's lone group

    def shared(handles):
        handles["b"].increment("k1")
        handles["a"].increment("k2")
        handles["b"].increment("k3")

    script[0] = shared
    world.send_packet(until=2e-3)  # a shared fan-out
    m0.register_write(spec("l"), "flow", "v")  # a control-plane write's flush
    partial = spec("p").group_id
    world.directory.place(partial, "to_s1", ["s0", "s1"])
    world.directory.place(partial, "to_both", ["s0", "s1", "s2"])
    m0.register_increment(spec("p"), "to_s1", 1)
    m0.register_increment(spec("p"), "to_both", 2)  # per partial-replication target
    dep.sim.run(until=3e-3)
    for i in range(50):
        m0.register_increment(spec("big"), f"key{i:02d}", 1)
    big = spec("big").group_id
    m0.ewo._sync_to(m0.ewo.groups[big], big, "s1")  # a sync answer: 48 + 2 entries
    dep.sim.run(until=4e-3)
    return world, {peer: [_describe(world, p) for p in world.wire[peer]] for peer in world.wire}


def _describe(world, packet):
    """(op, wire size, [(group name, entries)]) of an EWO packet, after
    checking its message is an ``EwoMirror``; "output" for the data
    packet."""
    if packet.swishmem is None:
        return "output"
    message = packet.swishmem_payload
    assert type(message) is EwoMirror, type(message).__name__
    assert packet.wire_size == packet.swishmem.wire_size + message.wire_size
    layout = [(world.m0.ewo.groups[g].spec.name, len(e)) for g, e in message.sections]
    return packet.swishmem.op.name, message.wire_size, layout


LONE = ("EWO_UPDATE", 29, [("a", 1)])
SHARED = ("EWO_UPDATE", 65, [("b", 2), ("a", 1)])
FLUSH = ("EWO_UPDATE", 40, [("l", 1)])
SYNC = [("EWO_SYNC", 973, [("big", 48)]), ("EWO_SYNC", 53, [("big", 2)])]


class TestEveryEwoSendIsOneMirror:
    def test_the_five_sends_keep_their_bytes_and_layouts(self, make_deployment):
        _, sent = _five_sends(make_deployment)
        assert sent == {
            "s1": [LONE, SHARED, FLUSH, ("EWO_UPDATE", 37, [("p", 2)])] + SYNC,
            "s2": [LONE, SHARED, FLUSH, ("EWO_UPDATE", 25, [("p", 1)])],
            "s3": [LONE, "output", SHARED, "output", FLUSH],
        }

    def test_only_the_op_marks_a_sync_answer(self, make_deployment):
        world, _ = _five_sends(make_deployment)
        s1 = world.dep.manager("s1").ewo
        stats = {state.spec.name: state.stats for state in s1.groups.values()}
        assert stats["big"].sync_packets_received == 2
        assert stats["big"].updates_received == 50
        assert sum(s.sync_packets_received for s in stats.values()) == 2
        assert s1.local_state(world.dep.spec_by_name("p").group_id) == {
            "to_s1": 1, "to_both": 2}
