"""SRO recovery: snapshot transfer to a rejoining switch (paper section 6.3).

"To recover, we add a new switch to the end of the chain.  The new
switch starts to process writes, but does not replace the tail.  Some
control plane support is needed for the initial data transfer.  The
control plane on one of the switches takes a snapshot of its shared
state, and then uses it to resend the write requests for each value
through the normal data plane protocol.  These writes contain the
sequence number at the time of the snapshot, to prevent overwriting new
values with old ones.  Once the new switch has acknowledged all writes,
it has the latest complete state, and can replace the tail in processing
reads."

:class:`FailoverCoordinator` implements the transfer mechanics:

* the *source* switch (normally the current read tail) snapshots the
  group in its control plane and streams ``SnapshotWrite`` packets to
  the *target* over the data plane;
* the target applies each entry under the sequence-number guard and
  answers with ``SnapshotAck``;
* unacknowledged entries are retransmitted by the source's control
  plane until everything is confirmed, at which point the registered
  completion callback fires (the controller then promotes the target to
  read tail).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.net.headers import SwiShmemHeader, SwiShmemOp
from repro.net.packet import Packet
from repro.protocols.messages import SnapshotAck, SnapshotWrite

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemDeployment, SwiShmemManager

__all__ = ["FailoverCoordinator", "SnapshotTransfer"]

#: Retransmit unacked snapshot entries after this long.
SNAPSHOT_RETRY_TIMEOUT = 2e-3
#: Abandon a transfer after this many full retry rounds.
MAX_SNAPSHOT_ROUNDS = 20


@dataclass
class SnapshotTransfer:
    """State of one in-progress snapshot transfer at the source."""

    group_id: int
    source: str
    target: str
    #: Id, unique in the deployment, echoed on every SnapshotWrite /
    #: SnapshotAck of this transfer.  Transfers are keyed
    #: ``(group_id, target)``, so a superseded transfer's stray acks
    #: carry a stale id and are dropped instead of completing the
    #: replacement early.
    transfer_id: int = 0
    entries: Dict[Any, Tuple[Any, int, int]] = field(default_factory=dict)
    unacked: Set[Any] = field(default_factory=set)
    rounds: int = 0
    on_complete: Optional[Callable[[], None]] = None
    #: Invoked with the transfer when it is abandoned (source died or the
    #: retry budget ran out) so the controller can restart the recovery
    #: from another live chain member instead of stranding the target in
    #: catch-up mode forever.
    on_failure: Optional[Callable[["SnapshotTransfer"], None]] = None
    done: bool = False
    failed: bool = False
    #: Causal context rooting this transfer's span subtree (from the
    #: controller's ``controller.snapshot.start`` span).
    trace: Any = None

    @property
    def total_entries(self) -> int:
        return len(self.entries)


class FailoverCoordinator:
    """Deployment-wide snapshot-transfer bookkeeping."""

    def __init__(self, deployment: "SwiShmemDeployment") -> None:
        self.deployment = deployment
        self.obs = deployment.obs
        self._transfers: Dict[Tuple[int, str], SnapshotTransfer] = {}
        self._transfer_seq = itertools.count(1)
        self.transfers_completed = 0
        self.transfers_failed = 0

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def start_transfer(
        self,
        group_id: int,
        source: str,
        target: str,
        on_complete: Optional[Callable[[], None]] = None,
        on_failure: Optional[Callable[[SnapshotTransfer], None]] = None,
        trace: Any = None,
    ) -> SnapshotTransfer:
        """Snapshot ``group_id`` on ``source`` and replay it to ``target``."""
        transfer = SnapshotTransfer(
            group_id=group_id,
            source=source,
            target=target,
            transfer_id=next(self._transfer_seq),
            on_complete=on_complete,
            on_failure=on_failure,
            trace=trace,
        )
        self._transfers[(group_id, target)] = transfer
        source_manager = self.deployment.manager(source)
        # Taking the snapshot is a control-plane operation on the source.
        source_manager.switch.control.submit(
            self._take_snapshot, transfer, label="snapshot-take"
        )
        return transfer

    def _take_snapshot(self, transfer: SnapshotTransfer) -> None:
        source_manager = self.deployment.manager(transfer.source)
        if source_manager.switch.failed:
            self._fail_transfer(transfer)
            return
        snapshot = source_manager.sro.snapshot(transfer.group_id)
        if not snapshot:
            # Nothing to transfer: complete immediately.
            self._complete(transfer)
            return
        for key, value, slot, seq in snapshot:
            transfer.entries[key] = (value, slot, seq)
            transfer.unacked.add(key)
        self._send_round(transfer)

    def _send_round(self, transfer: SnapshotTransfer) -> None:
        if transfer.done or transfer.failed:
            return
        source_manager = self.deployment.manager(transfer.source)
        if source_manager.switch.failed:
            self._fail_transfer(transfer)
            return
        transfer.rounds += 1
        if transfer.rounds > MAX_SNAPSHOT_ROUNDS:
            self._fail_transfer(transfer)
            return
        spec = self.deployment.specs[transfer.group_id]
        switch = source_manager.switch
        round_ctx = None
        if transfer.trace is not None:
            # One span per retransmit round; the individual SnapshotWrite
            # packets all carry it (per-entry spans would swamp the ring).
            round_ctx = source_manager.causal.child(transfer.trace)
            if self.obs.on:
                self.obs.emit(
                    "failover.snapshot.round",
                    transfer.source,
                    round_ctx,
                    group=transfer.group_id,
                    target=transfer.target,
                    entries=len(transfer.unacked),
                    round=transfer.rounds,
                )
        for key in sorted(transfer.unacked, key=repr):
            value, slot, seq = transfer.entries[key]
            message = SnapshotWrite(
                group=transfer.group_id,
                key=key,
                value=value,
                seq=seq,
                slot=slot,
                source=transfer.source,
                key_bytes=spec.key_bytes,
                value_bytes=spec.value_bytes,
                transfer_id=transfer.transfer_id,
                trace=round_ctx,
            )
            packet = Packet(
                swishmem=SwiShmemHeader(
                    op=SwiShmemOp.SNAPSHOT_WRITE,
                    register_group=transfer.group_id,
                    dst_node=transfer.target,
                ),
                swishmem_payload=message,
                trace=round_ctx,
                uid=next(switch.sim.packet_ids),
            )
            switch.forward_to_node(packet, transfer.target)
        switch.control.set_timer(
            SNAPSHOT_RETRY_TIMEOUT, self._retry_round, transfer, label="snapshot-retry"
        )

    def _retry_round(self, transfer: SnapshotTransfer) -> None:
        if transfer.done or transfer.failed:
            return
        if not transfer.unacked:
            self._complete(transfer)
            return
        self._send_round(transfer)

    # ------------------------------------------------------------------
    # Target side
    # ------------------------------------------------------------------
    def handle_snapshot_write(self, manager: "SwiShmemManager", message: SnapshotWrite) -> None:
        """Apply a replayed entry at the recovering switch; always ack.

        Acking even when the guard rejects the value matters: rejection
        means the target already holds something newer, so the source
        must stop retransmitting.
        """
        manager.sro.apply_snapshot_write(
            message.key, message.value, message.slot, message.seq, message.group
        )
        ack_ctx = None
        if message.trace is not None:
            ack_ctx = manager.causal.child(message.trace)
            if self.obs.on:
                self.obs.emit(
                    "failover.snapshot.apply",
                    manager.switch.name,
                    ack_ctx,
                    group=message.group,
                    key=message.key,
                    seq=message.seq,
                    slot=message.slot,
                )
        ack = SnapshotAck(
            group=message.group,
            key=message.key,
            seq=message.seq,
            source=manager.switch.name,
            key_bytes=message.key_bytes,
            transfer_id=message.transfer_id,
            trace=ack_ctx,
        )
        packet = Packet(
            swishmem=SwiShmemHeader(
                op=SwiShmemOp.SNAPSHOT_ACK,
                register_group=message.group,
                dst_node=message.source,
            ),
            swishmem_payload=ack,
            trace=ack_ctx,
            uid=next(manager.sim.packet_ids),
        )
        manager.switch.forward_to_node(packet, message.source)

    def handle_snapshot_ack(self, manager: "SwiShmemManager", message: SnapshotAck) -> None:
        transfer = self._transfers.get((message.group, message.source))
        if transfer is None or transfer.done or transfer.failed:
            return
        if message.transfer_id != transfer.transfer_id:
            # Stray ack from a superseded transfer to the same target —
            # acknowledging *its* entries says nothing about ours.
            return
        transfer.unacked.discard(message.key)
        if not transfer.unacked:
            self._complete(transfer)

    # ------------------------------------------------------------------
    def _complete(self, transfer: SnapshotTransfer) -> None:
        if transfer.done:
            return
        transfer.done = True
        self.transfers_completed += 1
        if self.obs.on:
            self.obs.emit(
                "failover.transfer.complete",
                transfer.source,
                transfer.trace,
                group=transfer.group_id,
                target=transfer.target,
                entries=transfer.total_entries,
                rounds=transfer.rounds,
            )
        if transfer.on_complete is not None:
            transfer.on_complete()

    def _fail_transfer(self, transfer: SnapshotTransfer) -> None:
        if transfer.failed or transfer.done:
            return
        transfer.failed = True
        self.transfers_failed += 1
        if transfer.on_failure is not None:
            transfer.on_failure(transfer)

    def fail_transfers_from(self, source: str) -> None:
        """Abandon every live transfer sourced at ``source``.

        Called by the controller when it declares ``source`` failed.
        This matters because a dead switch's control CPU silently drops
        submitted ops and armed timers — without this hook a transfer
        whose source died between scheduling and execution would strand
        its target in catch-up mode with no failure callback.
        """
        for transfer in list(self._transfers.values()):
            if transfer.source == source and not transfer.done and not transfer.failed:
                self._fail_transfer(transfer)

    def transfer_for(self, group_id: int, target: str) -> Optional[SnapshotTransfer]:
        return self._transfers.get((group_id, target))
