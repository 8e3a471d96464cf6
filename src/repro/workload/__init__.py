"""Deterministic traffic generation: flows, Zipf skew, attacks."""

from repro.workload.attack import AttackScenario
from repro.workload.flows import FlowGenerator, FlowSpec, inject_flow
from repro.workload.zipf import ZipfSampler

__all__ = [
    "AttackScenario",
    "FlowGenerator",
    "FlowSpec",
    "inject_flow",
    "ZipfSampler",
]
