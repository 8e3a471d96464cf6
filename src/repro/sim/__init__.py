"""Discrete-event simulation kernel: clock, scheduler, RNG streams."""

from repro.sim.engine import Event, Process, SimulationError, Simulator
from repro.sim.random import SeededRng, derive_seed

__all__ = [
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "SeededRng",
    "derive_seed",
]
