"""Every caller of the controller's membership paths (paper 6.3).

A switch leaves replication through ``CentralController._excise`` and
comes back through ``_rejoin``; every catch-up starts in ``_catch_up``.
Each test drives one caller and pins what the path did: the chain
descriptors pushed (replica, group, version, members, catching up), the
EWO multicast membership, and the recovery generations.  The literals
are what each caller did when it still wrote these steps itself.
"""

from __future__ import annotations

from repro.core.registers import Consistency, EwoMode, RegisterSpec


def _declare(dep):
    """An SRO chain, an ERO chain and an EWO counter group: ids 1, 2, 3."""
    dep.declare(RegisterSpec("a", Consistency.SRO, capacity=64))
    dep.declare(RegisterSpec("b", Consistency.ERO, capacity=64))
    dep.declare(RegisterSpec("c", Consistency.EWO, ewo_mode=EwoMode.COUNTER))
    for i in range(4):
        dep.manager("s0").register_write(dep.specs[1], f"k{i}", i)


def _record_pushes(dep):
    """Log every descriptor an acting replica pushes."""
    pushed = []
    for replica in dep.controller.replicas:

        def push(chain, parent=None, replica=replica, original=replica._push_chain):
            if replica._is_active():
                pushed.append(
                    (
                        replica.replica_id,
                        chain.chain_id,
                        chain.version,
                        chain.members,
                        chain.catching_up,
                    )
                )
            original(chain, parent)

        replica._push_chain = push
    return pushed


def _membership(dep):
    """The EWO group's multicast members."""
    return {3: tuple(dep.multicast.get(3).members)}


def _gens(dep):
    return {
        replica.replica_id: dict(replica._recovery_gen)
        for replica in dep.controller.replicas
        if replica._recovery_gen
    }


def _fail(dep, name):
    dep.controller.note_failure_time(name)
    dep.fail_switch(name)


class TestExcise:
    def test_failure_detected(self, make_deployment):
        dep, _, _ = make_deployment(3)
        _declare(dep)
        pushed = _record_pushes(dep)
        dep.sim.run(until=1e-3)
        _fail(dep, "s1")
        dep.sim.run(until=5e-3)
        event = dep.controller.last_failure()
        assert (event.switch, event.chains_repaired, event.multicast_groups_updated) == (
            "s1",
            [1, 2],
            1,
        )
        assert pushed == [
            (0, 1, 1, ("s0", "s2"), ()),
            (0, 2, 1, ("s0", "s2"), ()),
        ]
        assert _membership(dep) == {3: ("s0", "s2")}
        assert dep.controller.active_leader()._known_failed == {"s1"}
        assert _gens(dep) == {}

    def test_reconstruction_non_replier(self, make_deployment):
        """The leader dies with a switch: its successor finds the switch
        silent during reconstruction and excises it."""
        dep, _, _ = make_deployment(4, controller_replicas=2)
        _declare(dep)
        pushed = _record_pushes(dep)
        dep.sim.run(until=1e-3)
        _fail(dep, "s2")
        dep.controller.crash_replica(0)
        dep.sim.run(until=0.05)
        successor = dep.controller.active_leader()
        assert successor.replica_id == 1
        assert dep.controller.failures == []
        assert pushed == [
            (1, 1, 1, ("s0", "s1", "s3"), ()),
            (1, 2, 1, ("s0", "s1", "s3"), ()),
        ]
        assert _membership(dep) == {3: ("s0", "s1", "s3")}
        assert successor._known_failed == {"s2"}
        assert _gens(dep) == {}

    def test_reconstruction_excises_every_non_replier_in_one_push(self, make_deployment):
        """Two switches are silent at the takeover: each chain gets one
        descriptor without both, not one version per silent switch."""
        dep, _, _ = make_deployment(5, controller_replicas=2)
        _declare(dep)
        pushed = _record_pushes(dep)
        dep.sim.run(until=1e-3)
        _fail(dep, "s2")
        _fail(dep, "s3")
        dep.controller.crash_replica(0)
        dep.sim.run(until=0.05)
        successor = dep.controller.active_leader()
        assert successor.replica_id == 1
        assert pushed == [
            (1, 1, 1, ("s0", "s1", "s4"), ()),
            (1, 2, 1, ("s0", "s1", "s4"), ()),
        ]
        assert _membership(dep) == {3: ("s0", "s1", "s4")}
        assert successor._known_failed == {"s2", "s3"}
        assert _gens(dep) == {}

    def test_a_chain_keeps_its_last_member(self, make_deployment):
        """Excising every member of a chain leaves the last one named."""
        dep, _, _ = make_deployment(3)
        _declare(dep)
        pushed = _record_pushes(dep)
        dep.sim.run(until=1e-3)
        repaired, updated = dep.controller.active_leader()._excise("s0", "s2", "s1")
        assert (repaired, updated) == ([1, 2], 3)
        assert pushed == [
            (0, 1, 1, ("s1",), ()),
            (0, 2, 1, ("s1",), ()),
        ]


class TestRejoin:
    def _recover(self, make_deployment, wipe):
        dep, _, _ = make_deployment(3)
        _declare(dep)
        pushed = _record_pushes(dep)
        dep.sim.run(until=1e-3)
        _fail(dep, "s2")
        dep.sim.run(until=0.01)
        del pushed[:]
        event = dep.controller.recover_switch("s2", wipe_state=wipe)
        dep.sim.run(until=0.01 + dep.controller.drain_delay / 2)
        return dep, pushed, event

    def test_recover_with_wipe(self, make_deployment):
        dep, pushed, event = self._recover(make_deployment, wipe=True)
        assert pushed == [
            (0, 1, 2, ("s0", "s1", "s2"), ("s2",)),
            (0, 2, 2, ("s0", "s1", "s2"), ("s2",)),
        ]
        assert _membership(dep) == {3: ("s0", "s1", "s2")}
        assert _gens(dep) == {0: {(1, "s2"): 1, (2, "s2"): 1}}
        assert dep.manager("s2").sro.groups[1].store == {}
        assert "s2" not in dep.controller.active_leader()._known_failed
        dep.sim.run(until=0.1)
        assert sorted(event.promoted_at) == [1, 2]
        assert dep.manager("s2").sro.groups[1].store == {f"k{i}": i for i in range(4)}

    def test_recover_without_wipe(self, make_deployment):
        dep, pushed, event = self._recover(make_deployment, wipe=False)
        assert pushed == [
            (0, 1, 2, ("s0", "s1", "s2"), ("s2",)),
            (0, 2, 2, ("s0", "s1", "s2"), ("s2",)),
        ]
        assert _membership(dep) == {3: ("s0", "s1", "s2")}
        assert _gens(dep) == {0: {(1, "s2"): 1, (2, "s2"): 1}}
        assert dep.manager("s2").sro.groups[1].store == {f"k{i}": i for i in range(4)}
        dep.sim.run(until=0.1)
        assert sorted(event.promoted_at) == [1, 2]

    def test_wiped_in_place_re_append(self, make_deployment):
        """A switch restarted before the detector noticed it is still a
        member: a wiped one is excised and re-appended in catch-up."""
        dep, _, _ = make_deployment(3)
        _declare(dep)
        pushed = _record_pushes(dep)
        dep.sim.run(until=1e-3)
        _fail(dep, "s1")
        dep.sim.run(until=1.1e-3)
        event = dep.controller.recover_switch("s1")
        dep.sim.run(until=3e-3)
        assert dep.controller.failures == []
        assert pushed == [
            (0, 1, 2, ("s0", "s2", "s1"), ("s1",)),
            (0, 2, 2, ("s0", "s2", "s1"), ("s1",)),
        ]
        assert _membership(dep) == {3: ("s0", "s1", "s2")}
        assert _gens(dep) == {0: {(1, "s1"): 1, (2, "s1"): 1}}
        dep.sim.run(until=0.1)
        assert sorted(event.promoted_at) == [1, 2]

    def test_false_positive_readmit(self, make_deployment):
        """A partitioned-but-alive switch is excised, then readmitted
        when its beacons resume."""
        from repro.chaos import FaultInjector

        dep, _, _ = make_deployment(3)
        _declare(dep)
        pushed = _record_pushes(dep)
        FaultInjector(dep, seed=3).partition(2e-3, duration=3e-3, side_a=["s2"])
        dep.sim.run(until=4e-3)
        assert pushed == [
            (0, 1, 1, ("s0", "s1"), ()),
            (0, 2, 1, ("s0", "s1"), ()),
        ]
        assert _membership(dep) == {3: ("s0", "s1")}
        del pushed[:]
        dep.sim.run(until=8e-3)
        readmit = [r for r in dep.controller.recoveries if r.readmission]
        assert [r.switch for r in readmit] == ["s2"]
        assert pushed == [
            (0, 1, 2, ("s0", "s1", "s2"), ("s2",)),
            (0, 2, 2, ("s0", "s1", "s2"), ("s2",)),
        ]
        assert _membership(dep) == {3: ("s0", "s1", "s2")}
        assert _gens(dep) == {0: {(1, "s2"): 1, (2, "s2"): 1}}
        assert dep.controller.active_leader()._known_failed == set()


class TestCatchUp:
    def test_reconstruction_redrive(self, make_deployment):
        """The leader dies between the re-append and the snapshot: its
        successor finds the member still catching up and starts the
        catch-up again under its own generation."""
        dep, _, _ = make_deployment(4, controller_replicas=2)
        _declare(dep)
        pushed = _record_pushes(dep)
        dep.sim.run(until=1e-3)
        _fail(dep, "s1")
        dep.sim.run(until=0.01)
        dep.controller.recover_switch("s1")
        dep.sim.run(until=0.011)
        del pushed[:]
        dep.controller.crash_replica(0)
        dep.sim.run(until=0.05)
        redriven = [r for r in dep.controller.recoveries if r.redriven]
        assert [r.switch for r in redriven] == ["s1"]
        assert _gens(dep) == {
            0: {(1, "s1"): 1, (2, "s1"): 1},
            1: {(1, "s1"): 1, (2, "s1"): 1},
        }
        assert pushed == [
            (1, 1, 2, ("s0", "s2", "s3", "s1"), ()),
            (1, 2, 2, ("s0", "s2", "s3", "s1"), ()),
        ]
        assert sorted(redriven[0].promoted_at) == [1, 2]
        assert _membership(dep) == {3: ("s0", "s1", "s2", "s3")}
