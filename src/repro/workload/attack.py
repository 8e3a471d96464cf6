"""DDoS attack traffic mixes.

The DDoS experiments need traffic with a controllable attack phase:

* **background** — many clients talking to many servers, destination
  popularity mildly skewed (normal entropy levels);
* **attack** — a botnet of ``bot_count`` synthetic sources all hitting
  one victim (destination entropy collapses, source entropy rises).

:class:`AttackScenario` schedules both phases onto end hosts and
records ground truth (attack start/end) so detection experiments can
compute detection latency, hits, and false alarms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.net.endhost import EndHost
from repro.net.packet import make_udp_packet
from repro.sim.engine import Simulator
from repro.sim.random import SeededRng
from repro.workload.zipf import ZipfSampler

__all__ = ["AttackScenario"]


@dataclass
class AttackScenario:
    """Background + attack traffic over a set of injection points."""

    sim: Simulator
    clients: Sequence[EndHost]
    server_ips: Sequence[str]
    rng: SeededRng
    background_pps: float = 20000.0
    attack_pps: float = 100000.0
    attack_start: float = 10e-3
    attack_duration: float = 10e-3
    bot_count: int = 200
    victim_ip: Optional[str] = None
    zipf_s: float = 0.8
    payload_size: int = 256

    background_sent: int = field(default=0, init=False)
    attack_sent: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.clients or not self.server_ips:
            raise ValueError("need clients and servers")
        if self.victim_ip is None:
            self.victim_ip = self.server_ips[0]
        self._bg_rng = self.rng.stream("attack:background")
        self._atk_rng = self.rng.stream("attack:attack")
        self._dst_sampler = ZipfSampler(
            len(self.server_ips), s=self.zipf_s, rng=self.rng.stream("attack:dst-zipf")
        )
        self._running = False

    @property
    def attack_end(self) -> float:
        return self.attack_start + self.attack_duration

    # ------------------------------------------------------------------
    def start(self, duration: float) -> "AttackScenario":
        self._running = True
        self._deadline = self.sim.now + duration
        self._origin = self.sim.now
        self._schedule_background()
        self.sim.schedule_at(
            self._origin + self.attack_start, self._schedule_attack, label="attack-start"
        )
        return self

    # ------------------------------------------------------------------
    def _schedule_background(self) -> None:
        if not self._running or self.sim.now > self._deadline:
            return
        gap = self._bg_rng.expovariate(self.background_pps)
        self.sim.schedule(gap, self._send_background, label="attack-bg")

    def _send_background(self) -> None:
        if not self._running or self.sim.now > self._deadline:
            return
        client = self._bg_rng.choice(self.clients)
        dst = self.server_ips[self._dst_sampler.sample()]
        packet = make_udp_packet(
            src_ip=client.ip,
            dst_ip=dst,
            src_port=self._bg_rng.randint(1024, 65535),
            dst_port=443,
            payload_size=self.payload_size,
        )
        client.inject(packet)
        self.background_sent += 1
        self._schedule_background()

    # ------------------------------------------------------------------
    def _schedule_attack(self) -> None:
        if not self._running:
            return
        if self.sim.now >= self._origin + self.attack_end:
            return
        gap = self._atk_rng.expovariate(self.attack_pps)
        self.sim.schedule(gap, self._send_attack, label="attack-pkt")

    def _send_attack(self) -> None:
        if not self._running or self.sim.now >= self._origin + self.attack_end:
            return
        # Spoofed bot source addresses: many sources, one victim.
        bot = self._atk_rng.randint(0, self.bot_count - 1)
        src_ip = f"203.0.{bot // 256}.{bot % 256}"
        client = self._atk_rng.choice(self.clients)
        packet = make_udp_packet(
            src_ip=src_ip,
            dst_ip=self.victim_ip,
            src_port=self._atk_rng.randint(1024, 65535),
            dst_port=53,
            payload_size=self.payload_size,
        )
        client.inject(packet)
        self.attack_sent += 1
        self._schedule_attack()
