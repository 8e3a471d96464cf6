"""The fault seam: ``drop_chain_applies`` and ``stale_replica`` act from
outside the protocol engines, through ``SwiShmemManager.interpose``.

A healthy world leaves the slot empty; a fault's arguments are checked
when it is scheduled; and the three places where a receive-side slot
sees something other than a check inside the engines would have are
pinned here (no driver reaches them: every scripted or seeded victim
is a non-head member of a register-array group).
"""

from __future__ import annotations

import ast
import os

import pytest

from repro.chaos import FaultInjector
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.headers import SwiShmemHeader, SwiShmemOp
from repro.net.packet import Packet
from repro.protocols.messages import ChainUpdate, ScrubRepair, WriteToken
from repro.testing import build_nf_world

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")


def _receive(dep, name, op, message):
    """Run one replication packet addressed to ``name`` through its
    pipeline, as if it had just arrived from a peer."""
    packet = Packet(
        swishmem=SwiShmemHeader(op=op, register_group=message.group, dst_node=name),
        swishmem_payload=message,
        trace=message.trace,
    )
    dep.manager(name).switch.deliver(packet, "s0" if name != "s0" else "s1")


def _next_update(dep, name, spec, key, value):
    """The in-order ChainUpdate ``name`` would apply next for ``key``."""
    state = dep.manager(name).sro.groups[spec.group_id]
    slot = state.pending.slot_of(key)
    return ChainUpdate(
        group=spec.group_id, key=key, value=value,
        seq=state.pending.applied_seq(slot) + 1, slot=slot,
        token=WriteToken("s0", 10_000), chain=tuple(dep.switch_names),
        epoch=state.chain.version,
    )


class TestHealthyWorldsInstallNothing:
    def test_build_nf_world_leaves_every_slot_empty(self):
        world = build_nf_world()
        managers = world.deployment.managers.values()
        assert managers and all(m.interpose is None for m in managers)

    def test_faults_outside_the_receive_path_install_nothing(self, make_deployment):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        injector = FaultInjector(dep, seed=1)
        injector.crash_recover(1e-3, "s2", down_for=2e-3)
        injector.link_flap(1e-3, "s0", "s1", down_for=1e-3)
        injector.loss_burst(1e-3, 1e-3, 0.1)
        injector.corrupt_register(2e-3, "s1", spec.group_id)
        dep.sim.run(until=5e-3)
        assert all(m.interpose is None for m in dep.managers.values())

    def test_only_the_injector_fills_the_slot(self):
        """The manager declares the slot empty; ``repro.chaos.faults`` is
        the one module that assigns it anything."""
        assigners = set()
        for directory, _, files in os.walk(SRC):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                        targets = [node.target]
                    else:
                        continue
                    if any(isinstance(t, ast.Attribute) and t.attr == "interpose" for t in targets):
                        assigners.add((os.path.relpath(path, SRC), ast.unparse(node.value)))
        assert assigners == {
            (os.path.join("core", "manager.py"), "None"),
            (os.path.join("chaos", "faults.py"), "SwitchFaults(manager)"),
        }


class TestFaultArgumentsCheckedWhenScheduled:
    """A bad fault raises at the call, naming the switch and the group,
    instead of from inside ``sim.run`` when it fires."""

    @pytest.fixture
    def world(self, make_deployment):
        dep, _, _ = make_deployment(3)
        sro = dep.declare(RegisterSpec("reg", Consistency.SRO))
        ewo = dep.declare(RegisterSpec("ctr", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
        return dep, sro, ewo, FaultInjector(dep, seed=1)

    def test_stale_replica_of_an_undeclared_group(self, world):
        dep, _, _, injector = world
        with pytest.raises(ValueError, match=r"s1 does not replicate group 99"):
            injector.stale_replica(1e-3, "s1", 99, duration=1e-3)
        dep.sim.run(until=5e-3)  # nothing was scheduled
        assert injector.log == []

    def test_drop_chain_applies_on_an_ewo_group(self, world):
        dep, _, ewo, injector = world
        with pytest.raises(ValueError, match=rf"s1 does not replicate chain group {ewo.group_id}"):
            injector.drop_chain_applies(1e-3, "s1", ewo.group_id)
        dep.sim.run(until=5e-3)
        assert injector.log == []

    def test_unknown_switch(self, world):
        _, sro, _, injector = world
        with pytest.raises(ValueError, match=rf"s9 does not replicate chain group {sro.group_id}"):
            injector.drop_chain_applies(1e-3, "s9", sro.group_id)
        with pytest.raises(ValueError, match=rf"s9 does not replicate group {sro.group_id}"):
            injector.stale_replica(1e-3, "s9", sro.group_id, duration=1e-3)

    def test_a_frozen_ewo_group_is_valid(self, world):
        dep, _, ewo, injector = world
        injector.stale_replica(1e-3, "s1", ewo.group_id, duration=1e-3)
        dep.sim.run(until=5e-3)
        assert [r.kind for r in injector.log] == ["stale-replica", "stale-thaw"]


class TestEdgesOfTheReceiveSlot:
    def test_a_head_victim_applies_its_own_write_but_loses_received_updates(
        self, make_deployment
    ):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        head = dep.manager("s0").sro.groups[spec.group_id]
        assert head.chain.head == "s0"
        injector = FaultInjector(dep, seed=1)
        injector.drop_chain_applies(0.0, "s0", spec.group_id, count=1)
        dep.sim.run(until=1e-3)
        # The head sequences its own write and applies it in the same
        # pass: nothing was received, so nothing is lost.
        dep.manager("s0").register_write(spec, "k", 1)
        dep.sim.run(until=2e-3)
        assert [store.get("k") for store in dep.sro_stores(spec)] == [1, 1, 1]
        assert injector.lost_applies() == {}
        # An update the head receives spends the budget: relayed, not applied.
        _receive(dep, "s0", SwiShmemOp.CHAIN_UPDATE, _next_update(dep, "s0", spec, "k", 2))
        dep.sim.run(until=3e-3)
        assert [store.get("k") for store in dep.sro_stores(spec)] == [1, 2, 2]
        assert injector.lost_applies() == {("s0", spec.group_id): 1}
        assert [(e.kind, e.switch) for e in dep.divergence_log] == [("apply-drop", "s0")]

    def test_a_control_plane_state_update_is_checked_on_arrival(self, make_deployment):
        """A P4-table group applies on the CPU, ``op_latency`` after
        arrival; the freeze is read when the update arrives, so one that
        arrives frozen is lost even if the thaw comes before its CPU slot."""
        dep, _, _ = make_deployment(3, control_op_latency=20e-6)
        spec = dep.declare(RegisterSpec("tbl", Consistency.SRO, control_plane_state=True))
        injector = FaultInjector(dep, seed=1)
        injector.stale_replica(1e-3, "s1", spec.group_id, duration=10e-6)
        update = _next_update(dep, "s1", spec, "k", 7)
        dep.sim.schedule_at(
            1e-3, _receive, dep, "s1", SwiShmemOp.CHAIN_UPDATE, update
        )
        dep.sim.run(until=2e-3)
        assert [store.get("k") for store in dep.sro_stores(spec)] == [None, None, 7]
        assert injector.lost_applies() == {("s1", spec.group_id): 1}

    def test_a_stale_epoch_repair_at_a_frozen_member_is_lost_not_fenced(
        self, make_deployment
    ):
        dep, _, _ = make_deployment(3)
        spec = dep.declare(RegisterSpec("reg", Consistency.SRO))
        dep.manager("s0").register_write(spec, "k", 1)
        injector = FaultInjector(dep, seed=1)
        injector.stale_replica(1e-3, "s1", spec.group_id, duration=5e-3)
        dep.sim.run(until=2e-3)
        state = dep.manager("s1").sro.groups[spec.group_id]
        repair = ScrubRepair(
            group=spec.group_id, key="k", value=-1, seq=10_000,
            slot=state.pending.slot_of("k"), source="s0",
            epoch=state.chain.version - 1,
        )
        repair.trace = dep.manager("s0").causal.root()
        _receive(dep, "s1", SwiShmemOp.SCRUB_REPAIR, repair)
        agent = dep.manager("s1").scrub
        assert (agent.repairs_fenced, agent.repairs_applied) == (0, 0)
        assert injector.lost_applies() == {("s1", spec.group_id): 1}
        assert state.store == {"k": 1}
