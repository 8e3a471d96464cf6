"""Tests for the EWO protocol: broadcast, merge, periodic sync (section 6.2)."""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.core.directory import DirectoryService
from repro.core.manager import Decision
from repro.core.registers import Consistency, EwoMode, ReadForwarded, RegisterSpec
from repro.analysis.metrics import convergence_time, replica_divergence
from repro.chaos.faults import FaultInjector
from repro.crdt.clock import Timestamp
from repro.net.endhost import EndHost
from repro.net.packet import make_udp_packet
from repro.nf.base import NetworkFunction
from repro.protocols import ewo
from repro.protocols.ewo import MERGE_TYPES
from repro.protocols.messages import EwoEntry, EwoMirror, entries_bytes


def declare_counter(deployment, name="ctr", **kwargs):
    return deployment.declare(
        RegisterSpec(name, Consistency.EWO, ewo_mode=EwoMode.COUNTER, **kwargs)
    )


def declare_lww(deployment, name="lww", **kwargs):
    return deployment.declare(
        RegisterSpec(name, Consistency.EWO, ewo_mode=EwoMode.LWW, **kwargs)
    )


class TestCounterMode:
    def test_increment_returns_global_sum(self, deployment):
        spec = declare_counter(deployment)
        m0 = deployment.manager("s0")
        assert m0.register_increment(spec, "k", 5) == 5
        assert m0.register_increment(spec, "k", 2) == 7

    def test_broadcast_merges_on_all_replicas(self, deployment):
        spec = declare_counter(deployment)
        deployment.manager("s0").register_increment(spec, "k", 5)
        deployment.manager("s1").register_increment(spec, "k", 3)
        deployment.sim.run(until=0.01)
        assert all(state["k"] == 8 for state in deployment.ewo_states(spec))

    def test_concurrent_increments_never_lost(self, deployment):
        """The CRDT guarantee: concurrent increments all count."""
        spec = declare_counter(deployment)
        for i in range(60):
            deployment.manager(f"s{i % 3}").register_increment(spec, "k", 1)
        deployment.sim.run(until=0.05)
        assert all(state["k"] == 60 for state in deployment.ewo_states(spec))

    def test_read_local_and_cheap(self, deployment):
        spec = declare_counter(deployment)
        m0 = deployment.manager("s0")
        m0.register_increment(spec, "k", 1)
        assert m0.register_read(spec, "k", None) == 1  # immediately visible
        assert m0.register_read(spec, "missing", None) == 0

    def test_negative_increment_rejected_and_changes_nothing(self, deployment):
        """A grow-only counter cannot be decremented: a negative amount
        used to be accepted, read low on the writer, and be undone by
        the peers' max-merge one sync round later."""
        spec = declare_counter(deployment)
        handle = deployment.handle("s0", spec)
        handle.increment("k", 5)
        deployment.sim.run(until=0.01)
        before = deployment.ewo_states(spec)
        assert before == [{"k": 5}] * 3
        with pytest.raises(ValueError):
            handle.increment("k", -3)
        assert handle.read("k") == 5
        deployment.sim.run(until=0.02)  # several sync rounds later
        assert deployment.ewo_states(spec) == before


#: The four kinds of register group, by the RegisterSpec that declares one.
GROUP_KINDS = {
    "sro": dict(consistency=Consistency.SRO),
    "ero": dict(consistency=Consistency.ERO),
    "lww": dict(consistency=Consistency.EWO, ewo_mode=EwoMode.LWW),
    "counter": dict(consistency=Consistency.EWO, ewo_mode=EwoMode.COUNTER),
}

#: Every RegisterHandle operation that only some kinds support, and which.
HANDLE_OPS = {
    "write": (lambda h: h.write("k", 1), {"sro", "ero", "lww"}),
    "increment": (lambda h: h.increment("k", 1), {"counter"}),
    "fetch_add": (lambda h: h.fetch_add("k", 1), {"sro", "ero"}),
}


class TestWrongOpMatrix:
    @pytest.mark.parametrize("kind", GROUP_KINDS)
    @pytest.mark.parametrize("op", HANDLE_OPS)
    def test_op_works_or_raises_type_error(self, deployment, op, kind):
        """The wrong operation for a group's kind is always a TypeError
        — never an AttributeError or KeyError from the layout below."""
        spec = deployment.declare(RegisterSpec("g", **GROUP_KINDS[kind]))
        handle = deployment.handle("s0", spec)
        call, supported = HANDLE_OPS[op]
        if kind in supported:
            call(handle)
        else:
            with pytest.raises(TypeError, match="'g'"):
                call(handle)


class TestLwwMode:
    def test_write_visible_locally_at_once(self, deployment):
        spec = declare_lww(deployment)
        m0 = deployment.manager("s0")
        m0.register_write(spec, "k", "v")
        assert m0.register_read(spec, "k", None) == "v"

    def test_write_propagates(self, deployment):
        spec = declare_lww(deployment)
        deployment.manager("s0").register_write(spec, "k", "v")
        deployment.sim.run(until=0.01)
        assert all(state.get("k") == "v" for state in deployment.ewo_states(spec))

    def test_concurrent_writes_converge_to_one_winner(self, deployment):
        spec = declare_lww(deployment)
        deployment.manager("s0").register_write(spec, "k", "a")
        deployment.manager("s1").register_write(spec, "k", "b")
        deployment.manager("s2").register_write(spec, "k", "c")
        deployment.sim.run(until=0.02)
        states = deployment.ewo_states(spec)
        assert replica_divergence(states) == 0
        assert states[0]["k"] in ("a", "b", "c")

    def test_later_write_wins(self, deployment):
        spec = declare_lww(deployment)
        deployment.manager("s0").register_write(spec, "k", "first")
        deployment.sim.run(until=0.005)
        deployment.manager("s1").register_write(spec, "k", "second")
        deployment.sim.run(until=0.02)
        assert all(state["k"] == "second" for state in deployment.ewo_states(spec))

    def test_default_returned_before_any_write(self, deployment):
        spec = deployment.declare(
            RegisterSpec("flags", Consistency.EWO, ewo_mode=EwoMode.LWW, default=False)
        )
        assert deployment.manager("s0").register_read(spec, "k", None) is False


class TestPeriodicSync:
    def test_sync_heals_lost_updates(self, make_deployment):
        dep, _, _ = make_deployment(3, loss_rate=0.5, sync_period=1e-3)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        for i in range(40):
            dep.manager(f"s{i % 3}").register_increment(spec, "k", 1)
        elapsed = convergence_time(
            dep.sim,
            probe=lambda: all(s.get("k") == 40 for s in dep.ewo_states(spec)),
            interval=1e-3,
            timeout=2.0,
        )
        assert elapsed is not None, "replicas never converged despite sync"

    def test_sync_packets_flow(self, make_deployment):
        """Full state flows while the replicas differ (the write is held
        back by the batch threshold, so only sync can carry it); once
        they agree, a round is one probe and no full state."""
        dep, _, _ = make_deployment(3, sync_period=1e-3)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER, ewo_batch_size=100)
        )
        dep.manager("s0").register_increment(spec, "k", 1)
        dep.sim.run(until=0.02)
        stats = {name: dep.manager(name).ewo.stats_for(spec.group_id) for name in dep.switch_names}
        assert stats["s0"].sync_packets_sent > 0
        assert sum(s.sync_packets_received for s in stats.values()) > 0
        assert all(state["k"] == 1 for state in dep.ewo_states(spec))

        before = {name: (s.sync_packets_sent, s.sync_probes_sent) for name, s in stats.items()}
        dep.sim.run(until=0.04)
        for name, s in stats.items():
            sent, probes = before[name]
            assert s.sync_packets_sent == sent, name
            assert s.sync_probes_sent > probes, name
        assert sum(s.sync_rounds_agreed for s in stats.values()) > 0

    def test_sync_carries_full_state_not_just_own(self, make_deployment):
        """Gossip robustness: a switch relays state it learned from others."""
        dep, _, _ = make_deployment(3, sync_period=1e-3)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        dep.manager("s0").register_increment(spec, "k", 5)
        dep.sim.run(until=0.005)
        entries = dep.manager("s1").ewo._full_state_entries(
            dep.manager("s1").ewo.groups[spec.group_id]
        )
        # s1 never wrote, yet its sync payload includes s0's slot
        assert any(entry.value == 5 for entry in entries)

    def test_empty_state_sends_no_sync_entries(self, make_deployment):
        dep, _, _ = make_deployment(2, sync_period=1e-3)
        spec = dep.declare(
            RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER)
        )
        dep.sim.run(until=0.01)
        stats = dep.manager("s0").ewo.stats_for(spec.group_id)
        assert stats.sync_entries_sent == 0


class TestBatching:
    def test_batched_updates_flush_at_threshold(self, make_deployment):
        dep, _, _ = make_deployment(2, sync_period=10.0)
        spec = dep.declare(
            RegisterSpec(
                "ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER, ewo_batch_size=4
            )
        )
        m0 = dep.manager("s0")
        for _ in range(3):
            m0.register_increment(spec, "k", 1)
        dep.sim.run(until=0.005)
        # below threshold: nothing broadcast yet
        assert dep.manager("s1").ewo.local_state(spec.group_id).get("k") is None
        m0.register_increment(spec, "k", 1)  # 4th write triggers the flush
        dep.sim.run(until=0.01)
        assert dep.manager("s1").ewo.local_state(spec.group_id)["k"] == 4

    def test_batching_reduces_update_packets(self, make_deployment):
        dep, _, _ = make_deployment(2, sync_period=10.0)
        unbatched = dep.declare(
            RegisterSpec("u", Consistency.EWO, ewo_mode=EwoMode.COUNTER, ewo_batch_size=1)
        )
        batched = dep.declare(
            RegisterSpec("b", Consistency.EWO, ewo_mode=EwoMode.COUNTER, ewo_batch_size=8)
        )
        m0 = dep.manager("s0")
        for _ in range(16):
            m0.register_increment(unbatched, "k", 1)
            m0.register_increment(batched, "k", 1)
        dep.sim.run(until=0.01)
        sent_u = m0.ewo.stats_for(unbatched.group_id).update_packets_sent
        sent_b = m0.ewo.stats_for(batched.group_id).update_packets_sent
        assert sent_u == 16 and sent_b == 2

    def test_manual_flush(self, make_deployment):
        dep, _, _ = make_deployment(2, sync_period=10.0)
        spec = dep.declare(
            RegisterSpec("c", Consistency.EWO, ewo_mode=EwoMode.COUNTER, ewo_batch_size=100)
        )
        m0 = dep.manager("s0")
        m0.register_increment(spec, "k", 1)
        m0.ewo.flush(spec.group_id)
        dep.sim.run(until=0.005)
        assert dep.manager("s1").ewo.local_state(spec.group_id)["k"] == 1


class _ScriptedPassNF(NetworkFunction):
    """Every packet entering at s0 runs ``script(handles)`` as its pass."""

    @classmethod
    def build_specs(cls, *, specs, script):
        return specs

    def __init__(self, manager, handles, *, specs, script):
        super().__init__(manager, handles)
        self.script = script

    def process(self, ctx):
        if self.manager.switch.name == "s0":
            self.script(self.handles)
        return Decision.forward()


def counter_spec(name, **kwargs):
    return RegisterSpec(name, Consistency.EWO, ewo_mode=EwoMode.COUNTER, **kwargs)


class PassWorld:
    """src - s0 =mesh= s(n-1) - dst, with the scripted NF on every switch
    and a tap on each of s0's egress channels to a peer switch."""

    def __init__(self, make_deployment, specs, script, n=3, directory=False):
        self.dep, topo, _ = make_deployment(n, sync_period=10.0)
        if directory:
            self.directory = DirectoryService(self.dep.switch_names)
            self.dep.attach_directory(self.directory)
        book = self.dep.address_book
        self.src = topo.add_node(EndHost("src", self.dep.sim, "10.0.0.1", book))
        self.dst = topo.add_node(EndHost("dst", self.dep.sim, "10.0.0.2", book))
        topo.connect("src", "s0")
        topo.connect("dst", f"s{n - 1}")
        self.dep.routing.recompute()
        self.dep.install_nf(_ScriptedPassNF, specs=specs, script=script)
        self.m0 = self.dep.manager("s0")
        #: peer -> packets s0 put on its channel to that peer, in order.
        self.wire = {f"s{i}": self._tap(topo, f"s{i}") for i in range(1, n)}

    @staticmethod
    def _tap(topo, peer):
        link = topo.link_between("s0", peer)
        channel = link.ab if link.a.name == "s0" else link.ba
        sent, transmit = [], channel.transmit

        def recording_transmit(packet):
            sent.append(packet)
            transmit(packet)

        channel.transmit = recording_transmit
        return sent

    def send_packet(self, until):
        """One packet src -> dst; run the simulation to ``until``."""
        self.src.inject(make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        self.dep.sim.run(until=until)

    def updates(self, peer):
        """What s0 sent ``peer``, packet by packet: (group name, entry
        keys) for a one-section mirror, a list of those, one per
        section, for several; ``"output"`` stands for the data packet
        itself."""
        return [self._describe(packet) for packet in self.wire[peer]]

    def _describe(self, packet):
        message = packet.swishmem_payload
        if packet.swishmem is None:
            return "output"
        described = [self._section(group, entries) for group, entries in message.sections]
        return described if len(described) > 1 else described[0]

    def _section(self, group_id, entries):
        return (self.m0.ewo.groups[group_id].spec.name, [entry.key for entry in entries])

    def pending(self):
        return {
            state.spec.name: len(state._pending_entries)
            for state in self.m0.ewo.groups.values()
        }


class TestOneMirrorPerPass:
    """A switch mirrors a packet once, at egress: a pass's EWO writes
    leave when the pass ends, as one packet per replica set (paper
    section 7)."""

    def test_k_writes_to_one_group_leave_as_one_update_in_write_order(self, make_deployment):
        def script(handles):
            for key in ("x", "y", "x"):
                handles["a"].increment(key)

        world = PassWorld(make_deployment, [counter_spec("a")], script)
        world.send_packet(until=1e-3)
        assert world.updates("s1") == [("a", ["x", "y", "x"])]
        assert world.updates("s2") == [("a", ["x", "y", "x"]), "output"]
        stats = world.m0.ewo.stats_for(world.dep.spec_by_name("a").group_id)
        assert (stats.local_writes, stats.updates_sent, stats.update_packets_sent) == (3, 3, 1)
        assert world.dep.ewo_states(world.dep.spec_by_name("a")) == [{"x": 2, "y": 1}] * 3

    @staticmethod
    def b_a_b(handles):
        handles["b"].increment("k1")
        handles["a"].increment("k2")
        handles["b"].increment("k3")

    def test_two_groups_one_fanout_one_mirror_ahead_of_output(self, make_deployment):
        world = PassWorld(make_deployment, [counter_spec("a"), counter_spec("b")], self.b_a_b)
        world.send_packet(until=1e-3)
        # s2 is both a replica and the output packet's next hop: the
        # mirror is on the shared channel first.  Sections in first-write
        # order, entries in write order.
        mirror = [("b", ["k1", "k3"]), ("a", ["k2"])]
        assert world.updates("s2") == [mirror, "output"]
        assert world.updates("s1") == [mirror]
        assert len(world.dst.received) == 1
        stats = {name: world.m0.ewo.stats_for(world.dep.spec_by_name(name).group_id)
                 for name in ("a", "b")}
        # one packet, counted on its first section's group
        assert [(s.updates_sent, s.update_packets_sent) for s in stats.values()] == [(1, 0), (2, 1)]
        assert world.dep.ewo_states(world.dep.spec_by_name("a")) == [{"k2": 1}] * 3
        assert world.dep.ewo_states(world.dep.spec_by_name("b")) == [{"k1": 1, "k3": 1}] * 3

    def test_two_groups_with_different_fanouts_leave_as_two_packets_in_first_write_order(
        self, make_deployment
    ):
        world = PassWorld(make_deployment, [counter_spec("a"), counter_spec("b")], self.b_a_b)
        world.dep.multicast.get(world.dep.spec_by_name("a").group_id).remove("s1")
        world.send_packet(until=1e-3)
        assert world.updates("s2") == [("b", ["k1", "k3"]), ("a", ["k2"]), "output"]
        assert world.updates("s1") == [("b", ["k1", "k3"])]

    def test_a_group_below_its_batch_size_stays_pending_and_out_of_the_mirror(
        self, make_deployment
    ):
        def script(handles):
            for name in ("a", "held", "b"):
                handles[name].increment("k")

        specs = [counter_spec("a"), counter_spec("held", ewo_batch_size=2), counter_spec("b")]
        world = PassWorld(make_deployment, specs, script)
        world.send_packet(until=1e-3)
        assert world.updates("s1") == [[("a", ["k"]), ("b", ["k"])]]
        assert world.pending() == {"a": 0, "held": 1, "b": 0}
        world.send_packet(until=2e-3)
        # the second pass brings it to its batch size: all three leave
        assert world.updates("s1")[-1] == [("a", ["k"]), ("held", ["k", "k"]), ("b", ["k"])]
        assert world.pending() == {"a": 0, "held": 0, "b": 0}

    def test_a_partial_replication_group_in_the_pass_still_goes_per_target(
        self, make_deployment
    ):
        def script(handles):
            handles["a"].increment("k")
            handles["p"].increment("to_s1")
            handles["b"].increment("k")

        specs = [counter_spec("a"), counter_spec("p", partial_replication=True), counter_spec("b")]
        world = PassWorld(make_deployment, specs, script, n=4, directory=True)
        group_id = world.dep.spec_by_name("p").group_id
        world.directory.place(group_id, "to_s1", ["s0", "s1"])
        world.send_packet(until=1e-3)
        mirror = [("a", ["k"]), ("b", ["k"])]
        assert world.updates("s1") == [mirror, ("p", ["to_s1"])]
        assert world.updates("s2") == [mirror]
        assert world.updates("s3") == [mirror, "output"]
        assert world.m0.ewo.stats_for(group_id).update_packets_sent == 1

    def test_a_frozen_replica_drops_only_its_own_section(self, make_deployment):
        world = PassWorld(make_deployment, [counter_spec("a"), counter_spec("b")], self.b_a_b)
        a, b = (world.dep.spec_by_name(name) for name in ("a", "b"))
        injector = FaultInjector(world.dep)
        injector.stale_replica(0.0, "s1", a.group_id, duration=1.0)
        world.send_packet(until=1e-3)
        s1 = world.dep.manager("s1").ewo
        assert world.updates("s1") == [[("b", ["k1", "k3"]), ("a", ["k2"])]]
        assert s1.local_state(a.group_id) == {}
        assert injector.lost_applies() == {("s1", a.group_id): 1}
        assert s1.local_state(b.group_id) == {"k1": 1, "k3": 1}
        assert s1.stats_for(b.group_id).merges_applied == 2
        assert world.dep.manager("s2").ewo.local_state(a.group_id) == {"k2": 1}

    def test_a_frozen_section_is_lost_and_the_rest_merge_at_the_writers_slot(
        self, make_deployment
    ):
        """The fault filter rebuilds the rest of a mirror with a frozen
        section cut out; the writer (here slot 2, not the receiver's
        slot 1 nor slot 0) must survive the rebuild, since the kept
        counter entries name no slot of their own."""
        dep, _, _ = make_deployment(3, sync_period=10.0)
        a, b, c = (declare_counter(dep, name, ewo_batch_size=100) for name in "abc")
        injector = FaultInjector(dep)
        injector.stale_replica(0.0, "s1", b.group_id, duration=1.0)
        dep.sim.run(until=1e-6)  # the freeze begins
        writer = dep.manager("s2")
        for spec, key in ((a, "ka"), (b, "kb"), (c, "kc")):
            writer.register_increment(spec, key, 3)
        states = [writer.ewo.groups[spec.group_id] for spec in (a, b, c)]
        assert {e.version for state in states for e in state._pending_entries} == {None}
        received = []
        s1 = dep.manager("s1").ewo
        merge = s1.handle_update
        s1.handle_update = lambda message, sync=False: (
            received.append(message), merge(message, sync))
        writer.ewo._mirror(states)
        dep.sim.run(until=1e-3)
        # the rebuilt mirror: same writer, the frozen group's section gone
        assert [(m.origin, [g for g, _ in m.sections]) for m in received] == [
            ("s2", [a.group_id, c.group_id])
        ]
        assert injector.lost_applies() == {("s1", b.group_id): 1}
        assert s1.local_state(b.group_id) == {}
        assert s1.groups[a.group_id].cells["ka"].vector() == [0, 0, 3]
        assert s1.groups[c.group_id].cells["kc"].vector() == [0, 0, 3]
        assert s1.stats_for(a.group_id).merges_applied == 1
        assert s1.stats_for(c.group_id).merges_applied == 1
        # s0 is not frozen: all three sections, at the writer's slot
        s0 = dep.manager("s0").ewo
        assert [s0.groups[spec.group_id].cells[key].vector() for spec, key in
                ((a, "ka"), (b, "kb"), (c, "kc"))] == [[0, 0, 3]] * 3

    def test_broadcast_waits_for_the_pass_end_but_not_outside_a_pass(self, make_deployment):
        seen_mid_pass = []

        def script(handles):
            handles["a"].increment("k")
            seen_mid_pass.append((world.updates("s1"), world.pending()))

        world = PassWorld(make_deployment, [counter_spec("a")], script)
        world.send_packet(until=1e-3)
        assert seen_mid_pass == [([], {"a": 1})]
        assert world.updates("s1") == [("a", ["k"])]
        # No pass live (a window task, an operator): nothing to wait for.
        world.dep.handle("s0", world.dep.spec_by_name("a")).increment("ctl")
        assert world.updates("s1") == [("a", ["k"]), ("a", ["ctl"])]
        assert world.pending() == {"a": 0}

    @pytest.mark.parametrize(
        "exit_with", [ReadForwarded(0, "k", "s2"), RuntimeError("nf bug")],
        ids=["read-forwarded", "nf-exception"],
    )
    def test_a_pass_that_ends_by_exception_still_flushes(self, make_deployment, exit_with):
        exits = [exit_with]  # the first pass ends by it, later ones normally

        def script(handles):
            handles["a"].increment("k")
            handles["a"].increment("k")
            if exits:
                raise exits.pop()

        world = PassWorld(make_deployment, [counter_spec("a")], script)
        if isinstance(exit_with, ReadForwarded):
            world.send_packet(until=1e-3)
            assert world.dst.received == []  # the manager consumed it
        else:
            with pytest.raises(RuntimeError, match="nf bug"):
                world.send_packet(until=1e-3)
        assert world.updates("s1") == [("a", ["k", "k"])]
        assert world.pending() == {"a": 0}
        assert world.m0._ctx is None and not world.m0.ewo._pass_written
        # the next packet's pass starts clean: only its own entries leave
        world.send_packet(until=2e-3)
        assert world.updates("s1") == [("a", ["k", "k"])] * 2
        assert world.updates("s2")[-1] == "output"

    @pytest.mark.parametrize(
        "exit_with", [ReadForwarded(0, "k", "s2"), RuntimeError("nf bug")],
        ids=["read-forwarded", "nf-exception"],
    )
    def test_a_pass_that_ends_by_exception_still_mirrors_every_due_group(
        self, make_deployment, exit_with
    ):
        def script(handles):
            handles["b"].increment("k")
            handles["held"].increment("k")
            handles["a"].increment("k")
            raise exit_with

        specs = [counter_spec("a"), counter_spec("b"), counter_spec("held", ewo_batch_size=2)]
        world = PassWorld(make_deployment, specs, script)
        if isinstance(exit_with, ReadForwarded):
            world.send_packet(until=1e-3)
        else:
            with pytest.raises(RuntimeError, match="nf bug"):
                world.send_packet(until=1e-3)
        assert world.updates("s1") == [[("b", ["k"]), ("a", ["k"])]]
        assert world.pending() == {"a": 0, "b": 0, "held": 1}
        assert world.m0._ctx is None and not world.m0.ewo._pass_written

    def test_batch_threshold_is_checked_when_a_pass_ends(self, make_deployment):
        def script(handles):
            for key in ("x", "y", "z"):
                handles["a"].increment(key)

        world = PassWorld(make_deployment, [counter_spec("a", ewo_batch_size=4)], script)
        world.send_packet(until=1e-3)
        assert world.updates("s1") == [] and world.pending() == {"a": 3}
        world.send_packet(until=2e-3)
        # not after the second pass's first write (the fourth entry):
        # the mirror leaves at egress, with all six
        assert world.updates("s1") == [("a", ["x", "y", "z"] * 2)]
        assert world.pending() == {"a": 0}

    def test_partial_replication_coalesces_per_target(self, make_deployment):
        def script(handles):
            for key in ("to_s1", "to_s2", "to_s1", "everywhere"):
                handles["p"].increment(key)

        world = PassWorld(
            make_deployment,
            [counter_spec("p", partial_replication=True)],
            script,
            n=4,
            directory=True,
        )
        group_id = world.dep.spec_by_name("p").group_id
        world.directory.place(group_id, "to_s1", ["s0", "s1"])
        world.directory.place(group_id, "to_s2", ["s0", "s2"])
        world.send_packet(until=1e-3)
        assert world.updates("s1") == [("p", ["to_s1", "to_s1", "everywhere"])]
        assert world.updates("s2") == [("p", ["to_s2", "everywhere"])]
        assert world.updates("s3") == [("p", ["everywhere"]), "output"]
        assert world.m0.ewo.stats_for(group_id).update_packets_sent == 3


class TestStats:
    def test_merge_counters(self, deployment):
        spec = declare_counter(deployment)
        deployment.manager("s0").register_increment(spec, "k", 1)
        deployment.sim.run(until=0.01)
        s1 = deployment.manager("s1").ewo.stats_for(spec.group_id)
        assert s1.updates_received >= 1
        assert s1.merges_applied >= 1

    def test_stale_merges_counted(self, make_deployment):
        """A prober strictly ahead of the member it asks gets that
        member's full state back (the digests differ), and every entry
        of it is stale on arrival."""
        deployment, _, _ = make_deployment(3, sync_period=10.0)  # only the round below
        spec = declare_counter(deployment, ewo_batch_size=100)
        gid = spec.group_id
        m0, m1 = deployment.manager("s0"), deployment.manager("s1")
        m1.register_increment(spec, "k", 1)
        m0.ewo.handle_update(
            EwoMirror("s1", [(gid, [EwoEntry("k", 1, 1)])], trace=m0.causal.root())
        )
        m0.register_increment(spec, "k", 4)  # s0 now holds all s1 holds, and more
        before = m0.ewo.stats_for(gid).merges_stale
        m0.ewo._sync_rng.choice = lambda others: "s1"
        assert m0.ewo.sync_tick(gid) == 1
        deployment.sim.run(until=deployment.sim.now + 1e-3)
        stats = m0.ewo.stats_for(gid)
        assert stats.sync_packets_received == 1
        assert stats.merges_stale - before == 1 and m1.ewo.stats_for(gid).sync_packets_sent == 1

    def test_an_update_from_outside_the_group_is_stale_and_names_nothing(
        self, make_deployment
    ):
        """A counter update's entries name no slot: the slot is the
        origin's place in the group's member list.  An origin outside
        the group has none, so every entry of its section is stale and
        no key gets a cell; the same entries from a member merge at
        that member's slot."""
        deployment, _, _ = make_deployment(3, sync_period=10.0)
        spec = declare_counter(deployment, ewo_batch_size=100)
        gid = spec.group_id
        s1, s2 = deployment.manager("s1"), deployment.manager("s2")
        s1.register_increment(spec, "a", 2)
        s1.register_increment(spec, "b", 5)
        entries = tuple(s1.ewo.groups[gid]._pending_entries)
        assert [e.version for e in entries] == [None, None]
        s2.ewo.handle_update(EwoMirror("outsider", [(gid, entries)]))
        s2.ewo.handle_update(EwoMirror("outsider", [(gid, entries)]), True)
        stats = s2.ewo.stats_for(gid)
        assert (stats.updates_received, stats.merges_applied, stats.merges_stale) == (4, 0, 4)
        assert s2.ewo.groups[gid].cells == {}
        s2.ewo.handle_update(EwoMirror("s1", [(gid, entries)]))
        assert (stats.merges_applied, stats.merges_stale) == (2, 4)
        cells = s2.ewo.groups[gid].cells
        assert (cells["a"].vector(), cells["b"].vector()) == ([0, 2, 0], [0, 5, 0])

    def test_memory_charged_per_replica_slot(self, make_deployment):
        dep, _, switches = make_deployment(4)
        before = switches[0].memory.used_bytes
        dep.declare(
            RegisterSpec(
                "ctr",
                Consistency.EWO,
                ewo_mode=EwoMode.COUNTER,
                capacity=100,
                value_bytes=4,
            )
        )
        used = switches[0].memory.used_bytes - before
        assert used == 100 * 4 * (4 + 4)  # capacity * replicas * (ver+val)


def pinned_scenario(make_deployment, mode):
    """Three replicas, no gossip: writes on s0 and s1 (and one on s2),
    s0's broadcast hand-delivered to s2 twice (the second all stale,
    with a few entries that must or must not name a new key), s1's
    lost; then one real sync s2 -> s1 over the wire (the answer a probe
    from s1 would get)."""
    dep, _, _ = make_deployment(3, sync_period=10.0)
    spec = dep.declare(
        RegisterSpec("pin", Consistency.EWO, ewo_mode=mode, ewo_batch_size=100)
    )
    gid = spec.group_id
    s0, s1, s2 = (dep.manager(name) for name in ("s0", "s1", "s2"))
    if mode is EwoMode.COUNTER:
        s0.register_increment(spec, "a", 5)
        s0.register_increment(spec, "b", 2)
        s1.register_increment(spec, "a", 3)
        s2.register_increment(spec, "b", 1)
        extra = [
            EwoEntry("z", 0, 0),  # stale on arrival: still names the key
            EwoEntry("bad", 7, 9),  # slot out of range: names nothing
            EwoEntry("bad", "1", 9),  # slot not an int: names nothing
        ]
    else:
        s0.register_write(spec, "a", "x0")
        s0.register_write(spec, "b", "y0")
        s1.register_write(spec, "a", "x1")
        s2.register_write(spec, "b", "y2")
        extra = [EwoEntry("b", Timestamp(-1.0, 0, 0), "old")]  # stale
    sent = tuple(s0.ewo.groups[gid]._pending_entries)
    for entries in (sent, sent + tuple(extra)):
        s2.ewo.handle_update(EwoMirror("s0", [(gid, entries)]))
    sync = [
        (e.key, e.version, e.value, entries_bytes([e], spec.key_bytes, spec.value_bytes))
        for e in s2.ewo._full_state_entries(s2.ewo.groups[gid])
    ]
    stats = s2.ewo.stats_for(gid)
    merges = (stats.merges_applied, stats.merges_stale)
    s2.ewo._sync_to(s2.ewo.groups[gid], gid, "s1")
    dep.sim.run(until=1e-3)
    return {
        "items": sorted(s2.scrub._items(gid), key=repr),
        "sync": sync,
        "local": s2.ewo.local_state(gid),
        "merges": merges,
        "writer_items": sorted(s0.scrub._items(gid), key=repr),
        "s1_local": s1.ewo.local_state(gid),
        "s1_items": sorted(s1.scrub._items(gid), key=repr),
    }


def _pinned_literals():
    a0 = Timestamp(time=0.0, logical=1, node_id=0)
    b0 = Timestamp(time=0.0, logical=2, node_id=0)
    a1 = Timestamp(time=3.812533852398976e-08, logical=0, node_id=1)
    return {
        EwoMode.LWW: {
            "items": [("a", ("x0", a0)), ("b", ("y0", b0))],
            "sync": [("a", a0, "x0", 26), ("b", b0, "y0", 26)],
            "local": {"a": "x0", "b": "y0"},
            "merges": (2, 3),
            "writer_items": [("a", ("x0", a0)), ("b", ("y0", b0))],
            "s1_local": {"a": "x1", "b": "y0"},
            "s1_items": [("a", ("x1", a1)), ("b", ("y0", b0))],
        },
        EwoMode.COUNTER: {
            "items": [("a", (5, 0, 0)), ("b", (2, 0, 1)), ("z", (0, 0, 0))],
            "sync": [("a", 0, 5, 20), ("b", 0, 2, 20), ("b", 2, 1, 20)],
            "local": {"a": 5, "b": 3, "z": 0},
            "merges": (2, 5),
            "writer_items": [("a", (5, 0, 0)), ("b", (2, 0, 0))],
            "s1_local": {"a": 8, "b": 3},
            "s1_items": [("a", (5, 3, 0)), ("b", (2, 0, 1))],
        },
    }


class TestPinnedWireAndDigests:
    """What must not move when the replica layout does: the scrubber's
    canonical items, the full-state sync wire entries (order, versions,
    sizes) and ``local_state()`` — including which keys exist at all —
    against literals captured before the engine ran on ``repro.crdt``
    cells."""

    @pytest.mark.parametrize("mode", list(EwoMode), ids=lambda mode: mode.value)
    def test_scenario_matches_captured_literals(self, make_deployment, mode):
        assert pinned_scenario(make_deployment, mode) == _pinned_literals()[mode]


class TestMergeTypeTable:
    """EWO modes are rows of one table, not branches of the engine."""

    CELL_METHODS = ("apply", "entries", "read", "canonical", "merge_section", "digest")

    def test_every_mode_is_a_row_whose_cell_has_the_four_methods(self):
        assert set(MERGE_TYPES) == set(EwoMode)
        for mode, row in MERGE_TYPES.items():
            spec = RegisterSpec("t", Consistency.EWO, ewo_mode=mode)
            cell = row.new_cell(spec, 3, 1)
            assert type(cell) is row.cell_type
            for name in self.CELL_METHODS:
                assert callable(getattr(type(cell), name, None)), (mode, name)
            assert not hasattr(cell, "__dict__"), f"{type(cell).__name__} needs __slots__"
            assert cell.entries() == []  # an empty cell gossips nothing
            assert row.bytes_per_key(spec, 3) > 0

    def test_only_api_guards_read_the_mode(self):
        """The engine may refuse an operation by mode; it may not pick a
        representation by mode — that is the table's job."""
        readers = {
            node.name
            for node in ast.walk(ast.parse(inspect.getsource(ewo)))
            if isinstance(node, ast.FunctionDef)
            and any(
                isinstance(sub, ast.Attribute) and sub.attr == "ewo_mode"
                for sub in ast.walk(node)
            )
        }
        # ``increment`` guards inline and calls ``_group`` only to raise
        assert readers == {"__init__", "seed_group", "_group", "increment"}
