"""The switch control plane.

PISA switches pair the data-plane pipeline with a general-purpose CPU
running the control plane.  The paper's SRO protocol leans on it for
exactly three things (sections 6.1 and 7):

* **Buffering** output packets in DRAM until their writes commit
  ("ample DRAM capacity");
* **Retrying** write requests when a timely response is not received
  (the data plane cannot run timers or keep retransmission state);
* **Table updates**, since P4 tables are control-plane-writable only.

The crucial property this model preserves is the *throughput gap*: every
control-plane operation costs ``op_latency`` seconds of CPU time, and
operations are serialized on the CPU.  That is why SRO write throughput
is "limited by the need to send packets through the control plane"
(section 6.1) and why EWO cannot delegate reliability to it
(section 6.2) — both results fall out of this model in the benchmarks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.switch.pisa import PisaSwitch

__all__ = ["ControlPlaneAgent", "BufferedPacket"]

#: Default control-plane processing latency per operation.  Chosen to sit
#: orders of magnitude above the data-plane per-packet cost, matching the
#: relative gap the paper reasons about (a pipeline forwards a packet in
#: well under a microsecond; a control-plane round trip costs tens of
#: microseconds even on a good day).
DEFAULT_OP_LATENCY = 20e-6


class BufferedPacket:
    """An output packet parked in control-plane DRAM awaiting its write ack."""

    __slots__ = ("packet", "dst_node", "buffered_at", "token")

    def __init__(self, packet: "Packet", dst_node: str, buffered_at: float, token: Any) -> None:
        self.packet = packet
        self.dst_node = dst_node
        self.buffered_at = buffered_at
        self.token = token


class ControlPlaneAgent:
    """A serialized CPU with DRAM buffering and timers.

    Work is submitted with :meth:`submit`; each item occupies the CPU for
    ``op_latency`` seconds and items are executed FIFO.  ``cpu_time_used``
    and ``ops_executed`` feed the SRO cost accounting in the benchmarks.
    """

    def __init__(
        self,
        switch: "PisaSwitch",
        op_latency: float = DEFAULT_OP_LATENCY,
    ) -> None:
        if op_latency < 0:
            raise ValueError("control-plane op latency cannot be negative")
        self.switch = switch
        self.sim: Simulator = switch.sim
        self.op_latency = op_latency
        self.ops_executed = 0
        self.cpu_time_used = 0.0
        self._cpu_free_at = 0.0
        #: Packets buffered while their SRO writes are in flight,
        #: keyed by an opaque token chosen by the protocol.
        self._buffer: Dict[Any, BufferedPacket] = {}
        self.max_buffered = 0

    # ------------------------------------------------------------------
    # CPU model
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., None], *args: Any, label: str = "cpu-op") -> Event:
        """Run ``fn(*args)`` on the control CPU, FIFO, after ``op_latency``.

        The completion time accounts for queueing: if the CPU is busy,
        the op waits its turn.
        """
        if self.switch.failed:
            # A dead switch's CPU does nothing; return an inert event.
            dead = Event(self.sim.now, lambda: None, (), label="dead-cpu")
            dead.cancel()
            return dead
        start = max(self.sim.now, self._cpu_free_at)
        finish = start + self.op_latency
        self._cpu_free_at = finish
        self.cpu_time_used += self.op_latency

        def run() -> None:
            if self.switch.failed:
                return
            self.ops_executed += 1
            fn(*args)

        return self.sim.schedule_at(finish, run, label=f"{self.switch.name}:{label}")

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any, label: str = "timer") -> Event:
        """Arm a timer; fires on the control plane after ``delay`` seconds.

        Unlike :meth:`submit`, the timer's delay starts now (timers wait
        in parallel); only the handler execution occupies the CPU.
        """
        def fire() -> None:
            self.submit(fn, *args, label=label)

        return self.sim.schedule(delay, fire, label=f"{self.switch.name}:{label}")

    # ------------------------------------------------------------------
    # DRAM packet buffer (SRO write path)
    # ------------------------------------------------------------------
    def buffer_packet(self, token: Any, packet: "Packet", dst_node: str) -> None:
        """Park an output packet until :meth:`release_packet` is called."""
        self._buffer[token] = BufferedPacket(packet, dst_node, self.sim.now, token)
        self.max_buffered = max(self.max_buffered, len(self._buffer))

    def release_packet(self, token: Any) -> Optional[float]:
        """Re-inject the buffered packet into the data plane.

        Returns the buffering duration (for latency accounting), or None
        if no packet was buffered under ``token`` (e.g. duplicate ack).
        """
        entry = self._buffer.pop(token, None)
        if entry is None:
            return None
        held_for = self.sim.now - entry.buffered_at
        # "the packet is injected back to the data plane and forwarded to
        # its destination" (paper section 7)
        self.switch.inject_from_cpu(entry.packet, entry.dst_node)
        return held_for

    def peek_buffered(self, token: Any) -> Optional["Packet"]:
        """The buffered packet for ``token``, without releasing it."""
        entry = self._buffer.get(token)
        return entry.packet if entry is not None else None

    def drop_buffered(self, token: Any) -> bool:
        """Discard a buffered packet (write permanently failed)."""
        return self._buffer.pop(token, None) is not None

    @property
    def buffered_count(self) -> int:
        return len(self._buffer)
