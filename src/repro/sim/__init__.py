"""Discrete-event simulation kernel: clock, scheduler, RNG streams."""

from repro.sim.engine import Event, Process, SimulationError, Simulator, format_time
from repro.sim.random import SeededRng, derive_seed

__all__ = [
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "format_time",
    "SeededRng",
    "derive_seed",
]
