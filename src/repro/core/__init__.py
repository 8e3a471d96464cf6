"""SwiShmem core: register abstractions, per-switch runtime, deployment facade."""

from repro.core.chain import ChainDescriptor
from repro.core.compiler import SingleSwitchProgram, distribute
from repro.core.directory import DirectoryService, MigrationRecord, PlacementEntry
from repro.core.manager import (
    Decision,
    PacketContext,
    SwiShmemDeployment,
    SwiShmemManager,
)
from repro.core.pending import PendingTable, stable_slot_hash
from repro.core.registers import (
    Consistency,
    EwoMode,
    FetchAdd,
    ReadForwarded,
    RegisterHandle,
    RegisterSpec,
    WriteError,
)

__all__ = [
    "ChainDescriptor",
    "SingleSwitchProgram",
    "distribute",
    "DirectoryService",
    "MigrationRecord",
    "PlacementEntry",
    "Decision",
    "PacketContext",
    "SwiShmemDeployment",
    "SwiShmemManager",
    "PendingTable",
    "stable_slot_hash",
    "Consistency",
    "EwoMode",
    "FetchAdd",
    "ReadForwarded",
    "RegisterHandle",
    "RegisterSpec",
    "WriteError",
]
