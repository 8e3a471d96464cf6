"""The switch packet generator.

Tofino-class switches include a hardware packet generator that can emit
packets on a timer without any external stimulus.  Paper section 7 uses
it for EWO's periodic background synchronization: "a periodic background
task can be implemented using the switch's packet generator that
iterates over the register array, forming write update packets … and
forwarding each one to a randomly-selected switch in the replica group."

:class:`PacketGenerator` wraps a :class:`~repro.sim.engine.Process`
bound to a switch: the body runs on the data plane (no control-plane
cost) and stops automatically when the switch fails.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.sim.engine import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.switch.pisa import PisaSwitch

__all__ = ["PacketGenerator"]


class PacketGenerator:
    """Periodic data-plane packet generation on one switch."""

    def __init__(
        self,
        switch: "PisaSwitch",
        period: float,
        body: Callable[[], None],
        name: str = "pktgen",
        phase: Optional[float] = None,
    ) -> None:
        """``phase`` staggers the first firing (defaults to one period).

        Staggering matters: if every switch in a replica group fires its
        sync at the same instant, the loss correlation is unrealistic.
        Experiments pass per-switch phases drawn from the seeded RNG.
        """
        self.switch = switch
        self._process = Process(
            switch.sim,
            period,
            self._tick_body(body),
            name=f"{switch.name}:{name}",
            start_after=phase,
        )

    def _tick_body(self, body: Callable[[], None]) -> Callable[[], None]:
        def tick() -> None:
            if self.switch.failed:
                self._process.stop()
                return
            body()

        return tick

    def start(self) -> "PacketGenerator":
        self._process.start()
        return self

    def stop(self) -> None:
        self._process.stop()
