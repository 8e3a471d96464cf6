"""SwiShmem reproduction: distributed shared state for programmable switches.

This package reproduces *SwiShmem: Distributed Shared State Abstractions
for Programmable Switches* (Zeno, Ports, Nelson, Silberstein — HotNets
2020) as a complete, simulation-backed Python library:

* ``repro.sim`` — discrete-event kernel (clock, scheduler, seeded RNG);
* ``repro.net`` — packets, lossy links, topologies, ECMP routing,
  multicast;
* ``repro.switch`` — the PISA switch model (``PisaSwitch``: parser →
  one atomic handler pass → deparser), its control plane, packet
  generator and ~10 MB memory budget;
* ``repro.core`` — the paper's contribution: SRO/ERO/EWO shared
  registers, the per-switch runtime, the deployment ("one big switch")
  facade, the single-switch program compiler, and the
  directory-service extension;
* ``repro.protocols`` — the replication protocols: chain replication
  with pending bits and control-plane write buffering, CRAQ-style read
  forwarding, EWO broadcast + periodic sync, failover and recovery;
* ``repro.crdt`` / ``repro.sketch`` — the CRDT cells the EWO engine
  stores (G-Counter, LWW register, OR-Set) and the count-min sketch
  with its entropy estimators;
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

The names below are the ones drivers (benchmarks, examples, ``perf/``)
and the README import from the top level; everything else is imported
from its subpackage.
"""

from repro.core import (
    Consistency,
    Decision,
    DirectoryService,
    EwoMode,
    RegisterSpec,
    SingleSwitchProgram,
    SwiShmemDeployment,
    distribute,
)
from repro.net import TcpFlags, Topology, build_full_mesh, make_tcp_packet
from repro.sim import SeededRng, Simulator
from repro.switch import PisaSwitch

__version__ = "1.0.0"

__all__ = [
    "Consistency",
    "Decision",
    "DirectoryService",
    "EwoMode",
    "RegisterSpec",
    "SingleSwitchProgram",
    "SwiShmemDeployment",
    "distribute",
    "TcpFlags",
    "Topology",
    "build_full_mesh",
    "make_tcp_packet",
    "SeededRng",
    "Simulator",
    "PisaSwitch",
    "__version__",
]
