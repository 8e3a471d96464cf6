"""Replication protocols: SRO/ERO chain, EWO broadcast+sync, failover, controller."""

from repro.protocols.controller import CentralController, FailureEvent, RecoveryEvent
from repro.protocols.ewo import EwoEngine, EwoGroupState, EwoStats
from repro.protocols.failover import FailoverCoordinator, SnapshotTransfer
from repro.protocols.messages import (
    ChainUpdate,
    EwoEntry,
    EwoMirror,
    SnapshotAck,
    SnapshotWrite,
    WriteAck,
    WriteRequest,
    WriteToken,
)
from repro.protocols.sro import SroEngine, SroGroupState, SroStats

__all__ = [
    "CentralController",
    "FailureEvent",
    "RecoveryEvent",
    "EwoEngine",
    "EwoGroupState",
    "EwoStats",
    "FailoverCoordinator",
    "SnapshotTransfer",
    "ChainUpdate",
    "EwoEntry",
    "EwoMirror",
    "SnapshotAck",
    "SnapshotWrite",
    "WriteAck",
    "WriteRequest",
    "WriteToken",
    "SroEngine",
    "SroGroupState",
    "SroStats",
]
