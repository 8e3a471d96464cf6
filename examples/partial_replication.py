#!/usr/bin/env python
"""Partial replication with the directory service (paper section 9).

The base SwiShmem design replicates every register on every switch —
fine for throughput scale-out, but not for state scale-out.  Section 9
sketches the fix: a controller-side directory tracking which switches
replicate which keys, with migration as access patterns shift.

This script builds an 6-switch deployment where most keys have strong
locality (used by two switches), lets the directory observe accesses
and place keys accordingly, migrates a key whose locality moved, and
prints the measured bandwidth/memory savings versus full replication.

Run:  python examples/partial_replication.py
"""

from repro import (
    Consistency,
    DirectoryService,
    EwoMode,
    PisaSwitch,
    RegisterSpec,
    SeededRng,
    Simulator,
    SwiShmemDeployment,
    Topology,
    build_full_mesh,
)

KEYS = 24
WRITES_PER_KEY = 5


def run(partial: bool):
    sim = Simulator()
    topo = Topology(sim, SeededRng(seed=17))
    switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 6)
    deployment = SwiShmemDeployment(sim, topo, switches, sync_period=2e-3)
    spec = deployment.declare(
        RegisterSpec(
            "flow_stats",
            Consistency.EWO,
            ewo_mode=EwoMode.COUNTER,
            capacity=KEYS * 2,
            partial_replication=partial,
        )
    )
    directory = DirectoryService(deployment.switch_names)
    if partial:
        deployment.attach_directory(directory)
        # learn placement from observed access locality: key i is used
        # by switches i and i+1 (mod 6)
        for i in range(KEYS):
            directory.observe_access(spec.group_id, f"k{i}", f"s{i % 6}")
            directory.observe_access(spec.group_id, f"k{i}", f"s{(i + 1) % 6}")
        directory.place_by_locality(spec.group_id, min_replicas=2)
    start = topo.total_bytes_sent()
    for i in range(KEYS):
        writer = deployment.manager(f"s{i % 6}")
        for j in range(WRITES_PER_KEY):
            sim.schedule(
                (i * WRITES_PER_KEY + j) * 10e-6,
                lambda w=writer, k=i: w.register_increment(spec, f"k{k}", 1),
            )
    sim.run(until=20e-3)
    replication_bytes = topo.total_bytes_sent() - start
    copies = sum(
        len(manager.ewo.groups[spec.group_id].cells)
        for manager in deployment.managers.values()
    )
    return deployment, directory, spec, replication_bytes, copies


def main() -> None:
    _, _, _, full_bytes, full_copies = run(partial=False)
    deployment, directory, spec, part_bytes, part_copies = run(partial=True)

    print("full replication:    "
          f"{full_bytes:>7} replication bytes, {full_copies:>3} key copies")
    print("partial (directory): "
          f"{part_bytes:>7} replication bytes, {part_copies:>3} key copies")
    print(f"savings: {(1 - part_bytes / full_bytes) * 100:.0f}% bandwidth, "
          f"{(1 - part_copies / full_copies) * 100:.0f}% key copies\n")

    # correctness: each key's replicas agree on the exact count
    divergent = 0
    for i in range(KEYS):
        key = f"k{i}"
        for name in directory.replicas_of(spec.group_id, key):
            state = deployment.manager(name).ewo.local_state(spec.group_id)
            if state.get(key) != WRITES_PER_KEY:
                divergent += 1
    print(f"replica convergence check: {divergent} divergent replicas "
          f"across {KEYS} keys")

    # migration: k0's locality moved from (s0,s1) to (s3,s4)
    record = directory.migrate(spec.group_id, "k0", ["s3", "s4"])
    print(f"\nmigrated k0: {sorted(record.before)} -> {sorted(record.after)} "
          f"(generation {record.generation})")
    deployment.manager("s3").register_increment(spec, "k0", 1)
    deployment.sim.run(until=deployment.sim.now + 5e-3)
    value = deployment.manager("s4").ewo.local_state(spec.group_id).get("k0")
    print(f"s4 (new replica) sees k0 = {value} after one update+sync round")


if __name__ == "__main__":
    main()
