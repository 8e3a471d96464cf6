"""Tests for the OR-Set EWO register mode (the section 6.2 open question)."""

from __future__ import annotations

from repro.core.registers import Consistency, EwoMode, RegisterSpec


def declare_set(deployment, name="sigs", **kwargs):
    return deployment.declare(
        RegisterSpec(name, Consistency.EWO, ewo_mode=EwoMode.ORSET,
                     capacity=64, **kwargs)
    )


class TestLocalOps:
    def test_add_and_contains(self, deployment):
        spec = declare_set(deployment)
        m0 = deployment.manager("s0")
        m0.register_set_add(spec, "sigs", 0xBAD)
        assert m0.register_set_contains(spec, "sigs", 0xBAD)
        assert not m0.register_set_contains(spec, "sigs", 0xF00D)

    def test_read_returns_elements(self, deployment):
        spec = declare_set(deployment)
        m0 = deployment.manager("s0")
        m0.register_set_add(spec, "sigs", 1)
        m0.register_set_add(spec, "sigs", 2)
        assert m0.register_read(spec, "sigs", None) == frozenset({1, 2})
        assert m0.register_read(spec, "empty", None) == frozenset()

    def test_remove(self, deployment):
        spec = declare_set(deployment)
        m0 = deployment.manager("s0")
        m0.register_set_add(spec, "sigs", 1)
        assert m0.register_set_remove(spec, "sigs", 1) is True
        assert m0.register_set_remove(spec, "sigs", 1) is False
        assert not m0.register_set_contains(spec, "sigs", 1)

    def test_handle_api(self, deployment):
        spec = declare_set(deployment)
        handle = deployment.handle("s0", spec)
        handle.add("sigs", 7)
        assert handle.contains("sigs", 7)
        assert handle.discard("sigs", 7) is True


class TestReplication:
    def test_add_propagates(self, deployment):
        spec = declare_set(deployment)
        deployment.manager("s0").register_set_add(spec, "sigs", 0xBAD)
        deployment.sim.run(until=0.001)
        for name in deployment.switch_names:
            assert deployment.manager(name).register_set_contains(spec, "sigs", 0xBAD)

    def test_remove_propagates(self, deployment):
        spec = declare_set(deployment)
        deployment.manager("s0").register_set_add(spec, "sigs", 1)
        deployment.sim.run(until=0.001)
        deployment.manager("s1").register_set_remove(spec, "sigs", 1)
        deployment.sim.run(until=0.002)
        for name in deployment.switch_names:
            assert not deployment.manager(name).register_set_contains(spec, "sigs", 1)

    def test_concurrent_add_wins_over_remove(self, make_deployment):
        """The OR-Set guarantee, across the wire: a remove only kills the
        tags it observed, so a concurrent re-add survives."""
        dep, _, _ = make_deployment(2, sync_period=1e-3)
        spec = declare_set(dep)
        dep.manager("s0").register_set_add(spec, "sigs", "x")
        dep.sim.run(until=0.001)
        # concurrent: s1 removes while s0 re-adds (neither sees the other)
        dep.manager("s1").register_set_remove(spec, "sigs", "x")
        dep.manager("s0").register_set_add(spec, "sigs", "x")
        dep.sim.run(until=0.01)
        for name in dep.switch_names:
            assert dep.manager(name).register_set_contains(spec, "sigs", "x")

    def test_converges_under_loss_via_sync(self, make_deployment):
        dep, _, _ = make_deployment(3, loss_rate=0.4, sync_period=1e-3)
        spec = declare_set(dep)
        for i in range(12):
            dep.manager(f"s{i % 3}").register_set_add(spec, "sigs", f"sig{i}")
        dep.sim.run(until=0.5)
        states = dep.ewo_states(spec)
        expected = frozenset(f"sig{i}" for i in range(12))
        assert all(state.get("sigs") == expected for state in states)

    def test_recovered_switch_refills(self, make_deployment):
        dep, _, _ = make_deployment(3, sync_period=1e-3)
        spec = declare_set(dep)
        dep.manager("s0").register_set_add(spec, "sigs", "keep")
        dep.sim.run(until=0.005)
        dep.controller.note_failure_time("s1")
        dep.fail_switch("s1")
        dep.sim.run(until=0.01)
        dep.controller.recover_switch("s1")
        dep.sim.run(until=0.05)
        assert dep.manager("s1").register_set_contains(spec, "sigs", "keep")


class TestFootprint:
    def test_footprint_grows_with_tags(self, deployment):
        spec = declare_set(deployment)
        m0 = deployment.manager("s0")
        cells = m0.ewo.groups[spec.group_id].cells

        def footprint():
            return sum(cell.state_bytes for cell in cells.values())

        assert footprint() == 0
        m0.register_set_add(spec, "sigs", 1)
        first = footprint()
        assert first > 0
        m0.register_set_remove(spec, "sigs", 1)  # tombstone retained
        assert footprint() > first

    def test_wire_size_accounts_tags(self):
        from repro.protocols.messages import EwoEntry

        add = EwoEntry(key="k", version=("add", (0, 1)), value="x")
        remove = EwoEntry(key="k", version=("rm", ((0, 1), (0, 2), (1, 1))), value="x")
        assert remove.wire_bytes(8, 8) > add.wire_bytes(8, 8)
