"""Tests for the compiler (distribute) and directory service."""

from __future__ import annotations

import pytest

from repro.core.compiler import SingleSwitchProgram, distribute
from repro.core.directory import DirectoryService
from repro.core.manager import Decision
from repro.core.registers import Consistency, EwoMode, RegisterSpec


class CountingProgram(SingleSwitchProgram):
    """A one-big-switch program: count every packet, read a config flag."""

    def registers(self):
        return [
            RegisterSpec("hits", Consistency.EWO, ewo_mode=EwoMode.COUNTER),
            RegisterSpec("config", Consistency.SRO),
        ]

    def process(self, ctx, handles):
        handles["hits"].increment("total")
        handles["config"].read("mode")
        return Decision.forward()


class TestDistribute:
    def test_program_instantiated_per_switch(self, deployment):
        adapters = distribute(CountingProgram, deployment)
        assert len(adapters) == 3
        programs = {id(a.program) for a in adapters}
        assert len(programs) == 3  # distinct instances

    def test_registers_shared_across_instances(self, deployment):
        distribute(CountingProgram, deployment)
        spec = deployment.spec_by_name("hits")
        deployment.manager("s0").register_increment(spec, "total", 3)
        deployment.sim.run(until=0.01)
        assert all(s["total"] == 3 for s in deployment.ewo_states(spec))


class TestDirectory:
    def _directory(self):
        return DirectoryService(["s0", "s1", "s2", "s3"])

    def test_default_placement_is_everywhere(self):
        directory = self._directory()
        assert directory.replicas_of(1, "k") == frozenset({"s0", "s1", "s2", "s3"})

    def test_explicit_placement(self):
        directory = self._directory()
        directory.place(1, "k", ["s0", "s1"])
        assert directory.replicas_of(1, "k") == frozenset({"s0", "s1"})

    def test_placement_validation(self):
        directory = self._directory()
        with pytest.raises(ValueError):
            directory.place(1, "k", ["nope"])
        with pytest.raises(ValueError):
            directory.place(1, "k", [])
        with pytest.raises(ValueError):
            DirectoryService([])

    def test_migration_records_generations(self):
        directory = self._directory()
        directory.place(1, "k", ["s0", "s1"])
        record = directory.migrate(1, "k", ["s2", "s3"])
        assert record.before == frozenset({"s0", "s1"})
        assert record.after == frozenset({"s2", "s3"})
        assert record.generation == 1
        assert len(directory.migrations) == 1

    def test_locality_placement(self):
        directory = self._directory()
        directory.observe_access(1, "hot", "s0")
        directory.observe_access(1, "hot", "s1")
        directory.observe_access(1, "cold", "s3")
        entries = directory.place_by_locality(1, min_replicas=2)
        assert directory.replicas_of(1, "hot") == frozenset({"s0", "s1"})
        # cold was seen by one switch; padded to the fault-tolerance floor
        cold = directory.replicas_of(1, "cold")
        assert "s3" in cold and len(cold) == 2

    def test_locality_floor_validation(self):
        directory = self._directory()
        with pytest.raises(ValueError):
            directory.place_by_locality(1, min_replicas=10)
