"""The single-switch -> distributed translation layer.

Paper section 5: "a compiler could be used to translate regular P4
register accesses into SwiShmem operations", and section 9 envisions
"automatic transformation of a single-switch program into a distributed
one".  :func:`distribute` takes a *single-switch program* (register
declarations + a packet-processing function written as if one switch
existed) and instantiates it on every switch of a deployment, with its
register accesses transparently routed through SwiShmem protocols.

The analysis behind Table 1 — measure each register group's access
pattern and recommend its register type — lives in
:mod:`repro.obs.accessprof` and :mod:`repro.obs.advisor`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.core.manager import SwiShmemDeployment
from repro.core.registers import RegisterSpec

__all__ = ["SingleSwitchProgram", "distribute"]


class SingleSwitchProgram:
    """Base class for programs written against the one-big-switch model.

    Subclasses declare their shared state in :meth:`registers` and their
    packet logic in :meth:`process`; they never mention switches, chains,
    or replication.
    """

    def registers(self) -> List[RegisterSpec]:
        """The program's shared register groups."""
        raise NotImplementedError

    def process(self, ctx, handles: Dict[str, Any]):
        """Handle one packet.  ``handles`` maps register name -> handle.

        Returns a :class:`~repro.core.manager.Decision` (or None for
        default forwarding).
        """
        raise NotImplementedError


class _ProgramAdapter:
    """Binds one program instance to one switch's register handles."""

    def __init__(self, program: SingleSwitchProgram, handles: Dict[str, Any]) -> None:
        self.program = program
        self.handles = handles

    def process(self, ctx):
        return self.program.process(ctx, self.handles)


def distribute(
    program_factory: Callable[[], SingleSwitchProgram],
    deployment: SwiShmemDeployment,
) -> List[_ProgramAdapter]:
    """Deploy a single-switch program across every switch.

    A fresh program instance runs on each switch (per-switch local
    variables stay local, as on real hardware); shared state is exactly
    the declared registers.  Register groups are declared once from the
    first instance's specs.
    """
    template = program_factory()
    specs = template.registers()
    for spec in specs:
        deployment.declare(spec)
    adapters = []
    for index, switch in enumerate(deployment.switches):
        manager = deployment.managers[switch.name]
        program = template if index == 0 else program_factory()
        handles = {spec.name: manager.handle(spec) for spec in specs}
        adapter = _ProgramAdapter(program, handles)
        manager.install_nf(adapter)
        adapters.append(adapter)
    return adapters
