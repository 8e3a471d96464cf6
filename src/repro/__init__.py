"""SwiShmem reproduction: distributed shared state for programmable switches.

This package reproduces *SwiShmem: Distributed Shared State Abstractions
for Programmable Switches* (Zeno, Ports, Nelson, Silberstein — HotNets
2020) as a complete, simulation-backed Python library:

* ``repro.sim`` — discrete-event kernel (clock, scheduler, seeded RNG);
* ``repro.net`` — packets, lossy links, topologies, ECMP routing,
  multicast;
* ``repro.switch`` — the PISA switch model: pipeline, registers, tables,
  meters, control plane, packet generator, ~10 MB memory budget;
* ``repro.core`` — the paper's contribution: SRO/ERO/EWO shared
  registers, the per-switch runtime, the deployment ("one big switch")
  facade, the single-switch program compiler, and the
  directory-service extension;
* ``repro.protocols`` — the replication protocols: chain replication
  with pending bits and control-plane write buffering, CRAQ-style read
  forwarding, EWO broadcast + periodic sync, failover and recovery;
* ``repro.crdt`` / ``repro.sketch`` — the CRDT cells the EWO engine
  stores (G-Counter, LWW register, OR-Set) and sketches (count-min,
  Bloom, heavy hitters);
* ``repro.nf`` — the six Table 1 network functions;
* ``repro.workload`` — deterministic traffic generation;
* ``repro.analysis`` — history recording, a linearizability checker,
  and measurement collectors.

Quickstart::

    from repro import (
        Simulator, SeededRng, Topology, build_full_mesh, PisaSwitch,
        SwiShmemDeployment, RegisterSpec, Consistency,
    )

    sim = Simulator()
    topo = Topology(sim, SeededRng(seed=7))
    switches = build_full_mesh(topo, lambda n: PisaSwitch(n, sim), 3)
    deployment = SwiShmemDeployment(sim, topo, switches)
    counters = deployment.declare(
        RegisterSpec("hits", Consistency.EWO)
    )
"""

from repro.analysis import (
    HistoryRecorder,
    LinearizabilityReport,
    check_history,
    check_key_linearizable,
    convergence_time,
    count_stale_reads,
    replica_divergence,
)
from repro.core import (
    ChainDescriptor,
    Consistency,
    Decision,
    DirectoryService,
    EwoMode,
    FetchAdd,
    PacketContext,
    ReadForwarded,
    RegisterHandle,
    RegisterSpec,
    SingleSwitchProgram,
    SwiShmemDeployment,
    SwiShmemManager,
    distribute,
)
from repro.crdt import GCounter, LwwRegister, ORSet, Timestamp
from repro.net import (
    AddressBook,
    EndHost,
    FiveTuple,
    Packet,
    RoutingTable,
    TcpFlags,
    Topology,
    build_chain,
    build_full_mesh,
    build_leaf_spine,
    build_nf_cluster,
    make_tcp_packet,
    make_udp_packet,
)
from repro.sim import SeededRng, Simulator
from repro.sketch import BloomFilter, CountMinSketch, HeavyHitterTracker
from repro.switch import (
    DEFAULT_SWITCH_MEMORY_BYTES,
    MemoryBudget,
    OutOfSwitchMemory,
    PisaSwitch,
)

__version__ = "1.0.0"

__all__ = [
    "HistoryRecorder",
    "LinearizabilityReport",
    "check_history",
    "check_key_linearizable",
    "convergence_time",
    "count_stale_reads",
    "replica_divergence",
    "ChainDescriptor",
    "Consistency",
    "Decision",
    "DirectoryService",
    "EwoMode",
    "FetchAdd",
    "PacketContext",
    "ReadForwarded",
    "RegisterHandle",
    "RegisterSpec",
    "SingleSwitchProgram",
    "SwiShmemDeployment",
    "SwiShmemManager",
    "distribute",
    "GCounter",
    "LwwRegister",
    "ORSet",
    "Timestamp",
    "AddressBook",
    "EndHost",
    "FiveTuple",
    "Packet",
    "RoutingTable",
    "TcpFlags",
    "Topology",
    "build_chain",
    "build_full_mesh",
    "build_leaf_spine",
    "build_nf_cluster",
    "make_tcp_packet",
    "make_udp_packet",
    "SeededRng",
    "Simulator",
    "BloomFilter",
    "CountMinSketch",
    "HeavyHitterTracker",
    "DEFAULT_SWITCH_MEMORY_BYTES",
    "MemoryBudget",
    "OutOfSwitchMemory",
    "PisaSwitch",
    "__version__",
]
