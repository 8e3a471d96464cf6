"""Intrusion Prevention System (Table 1, row 3).

"IPS monitor traffic by continuously computing packet signatures and
matching against known suspicious signatures.  In case of too many
matches, traffic is dropped to prevent the intrusion.  This application
can tolerate some transient inconsistencies: it is acceptable for a few
additional malicious packets to go through immediately after signatures
are updated." (paper section 4.1)

Shared state:
  * ``ips_signatures`` — **ERO** (read on every packet, written rarely
    and only by the operator's control plane; Table 1 marks the
    consistency requirement *weak*, so the cheaper always-local-read
    variant fits exactly);
  * ``ips_matches`` — **EWO counter**: per-source match counts, so all
    switches share the "too many matches" view.

The packet *signature* is computed from header fields plus a payload
digest the workload attaches (per-packet metadata would not survive
re-parsing, so workloads stamp ``payload_digest`` into the TCP/UDP
payload model via :func:`packet_signature`'s inputs).

Sources whose aggregate match count crosses ``block_threshold`` have all
their traffic dropped.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import List

from repro.core.manager import Decision, PacketContext
from repro.core.registers import Consistency, EwoMode, RegisterSpec
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction

__all__ = ["IpsNF", "packet_signature"]

#: Content triples whose signature is remembered (least recently used
#: first out): a cache, not state.
SIGNATURE_MEMO = 4096


def packet_signature(packet: Packet) -> int:
    """A stable 32-bit signature over the packet's identifying content.

    Real IPSes hash payload bytes; the simulation hashes the protocol,
    destination port, and ``packet.payload_digest`` — the workload's
    stand-in for payload content (falling back to the payload size).
    """
    if packet.ipv4 is None:
        return 0
    l4 = packet.tcp if packet.tcp is not None else packet.udp
    dst_port = l4.dst_port if l4 is not None else 0
    digest_seed = (
        packet.payload_digest if packet.payload_digest is not None else packet.payload_size
    )
    return _signature(packet.ipv4.protocol, dst_port, digest_seed)


@lru_cache(maxsize=SIGNATURE_MEMO)
def _signature(protocol: int, dst_port: int, digest_seed: int) -> int:
    """The blake2b behind :func:`packet_signature`, memoised: a flow's
    packets share their content triple, and each packet meets the IPS
    at every switch it crosses."""
    material = f"{protocol}:{dst_port}:{digest_seed}"
    return int.from_bytes(
        hashlib.blake2b(material.encode("utf-8"), digest_size=4).digest(), "big"
    )


class IpsNF(NetworkFunction):
    """Distributed IPS: ERO signature set + EWO match counters."""

    NAME = "ips"

    def __init__(self, manager, handles, *, block_threshold: int = 10,
                 capacity: int = 4096) -> None:
        super().__init__(manager, handles)
        self.block_threshold = block_threshold
        self.signatures = handles["ips_signatures"]
        self.matches = handles["ips_matches"]
        self.signature_hits = 0
        self.blocked_packets = 0

    @classmethod
    def build_specs(cls, *, block_threshold: int = 10,
                    capacity: int = 4096) -> List[RegisterSpec]:
        """The signature set is per-signature boolean registers on the
        chain (the Table 1 mapping: rare operator writes, weak reads)."""
        return [
            RegisterSpec(
                name="ips_signatures",
                consistency=Consistency.ERO,
                capacity=capacity,
                key_bytes=4,
                value_bytes=1,
            ),
            RegisterSpec(
                name="ips_matches",
                consistency=Consistency.EWO,
                ewo_mode=EwoMode.COUNTER,
                capacity=capacity,
                key_bytes=8,
                value_bytes=4,
            ),
        ]

    # ------------------------------------------------------------------
    # Operator API (control plane): manage the signature set
    # ------------------------------------------------------------------
    def add_signature(self, signature: int) -> None:
        """Install a suspicious signature (control-plane operation)."""
        self.signatures.write(signature, True)

    def remove_signature(self, signature: int) -> None:
        self.signatures.write(signature, False)

    def _signature_matches(self, signature: int) -> bool:
        return bool(self.signatures.read(signature))

    # ------------------------------------------------------------------
    def process(self, ctx: PacketContext) -> Decision:
        self.stats.processed += 1
        packet = ctx.packet
        if packet.ipv4 is None:
            return self.forward()
        source = packet.ipv4.src
        if self.matches.read(source, 0) >= self.block_threshold:
            self.blocked_packets += 1
            return self.drop()
        signature = packet_signature(packet)
        if self._signature_matches(signature):
            self.signature_hits += 1
            total = self.matches.increment(source)
            if total >= self.block_threshold:
                self.blocked_packets += 1
                return self.drop()
            # Below threshold: the suspicious packet itself is dropped,
            # but the source is not yet blocked wholesale.
            return self.drop()
        return self.forward()
