"""Ready-made deployment scenarios for tests, benchmarks, and users.

Builds the paper's "dedicated NF cluster" deployment (section 3.2):
clients -> ingress -> {nf switches} -> egress -> servers, with the NF
cluster fully meshed for replication, plus internal (10.x) clients and
external/server (192.168.x) hosts so NAT/firewall direction rules work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.manager import SwiShmemDeployment
from repro.net.endhost import AddressBook, EndHost
from repro.net.topology import Topology, build_nf_cluster
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.switch.pisa import PisaSwitch

__all__ = ["NfWorld", "build_nf_world"]


@dataclass
class NfWorld:
    sim: Simulator
    rng: SeededRng
    topo: Topology
    book: AddressBook
    deployment: SwiShmemDeployment
    cluster: List[PisaSwitch]
    ingress: PisaSwitch
    egress: PisaSwitch
    clients: List[EndHost]
    servers: List[EndHost]

    @property
    def switches(self) -> List[PisaSwitch]:
        return self.deployment.switches

    def server_ips(self) -> List[str]:
        return [h.ip for h in self.servers]


def build_nf_world(
    seed: int = 99,
    cluster_size: int = 3,
    clients: int = 4,
    servers: int = 4,
    loss_rate: float = 0.0,
    control_op_latency: float = 20e-6,
    responder_servers: bool = True,
    client_prefix: str = "10.0.0.",
    server_prefix: str = "192.168.0.",
    **deployment_kwargs,
) -> NfWorld:
    sim = Simulator()
    rng = SeededRng(seed)
    topo = Topology(sim, rng)
    book = AddressBook()
    counters = {"client": 0, "server": 0}

    def host_factory(name: str) -> EndHost:
        if name.startswith("client"):
            counters["client"] += 1
            ip = f"{client_prefix}{counters['client']}"
            return EndHost(name, sim, ip, book)
        counters["server"] += 1
        ip = f"{server_prefix}{counters['server']}"
        return EndHost(name, sim, ip, book, responder=responder_servers)

    def switch_factory(name: str) -> PisaSwitch:
        return PisaSwitch(name, sim, control_op_latency=control_op_latency)

    cluster, client_hosts, server_hosts, ingress, egress = build_nf_cluster(
        topo,
        switch_factory,
        host_factory,
        cluster_size=cluster_size,
        clients=clients,
        servers=servers,
        loss_rate=loss_rate,
    )
    deployment = SwiShmemDeployment(
        sim,
        topo,
        [ingress] + cluster + [egress],
        address_book=book,
        **deployment_kwargs,
    )
    return NfWorld(
        sim=sim,
        rng=rng,
        topo=topo,
        book=book,
        deployment=deployment,
        cluster=cluster,
        ingress=ingress,
        egress=egress,
        clients=client_hosts,
        servers=server_hosts,
    )
