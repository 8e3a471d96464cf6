"""PISA switch substrate: the switch model, control plane, packet generator, memory."""

from repro.switch.control import ControlPlaneAgent, DEFAULT_OP_LATENCY
from repro.switch.memory import (
    DEFAULT_SWITCH_MEMORY_BYTES,
    MemoryBudget,
    OutOfSwitchMemory,
)
from repro.switch.pisa import PIPELINE_LATENCY, PisaSwitch, SwitchStats
from repro.switch.pktgen import PacketGenerator

__all__ = [
    "ControlPlaneAgent",
    "DEFAULT_OP_LATENCY",
    "DEFAULT_SWITCH_MEMORY_BYTES",
    "MemoryBudget",
    "OutOfSwitchMemory",
    "PIPELINE_LATENCY",
    "PisaSwitch",
    "SwitchStats",
    "PacketGenerator",
]
