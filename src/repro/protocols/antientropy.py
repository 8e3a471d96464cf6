"""Anti-entropy scrubbing and online repair.

Chain replication and EWO gossip both assume that a replica which
*acknowledged* a write still *holds* it.  Silent dataplane faults break
that assumption: a register bit-flip, or an apply unit that wedges and
drops merges while the switch keeps forwarding, leaves a replica that
looks healthy to the failure detector yet serves diverged state forever
(SRO has no background repair at all; EWO gossip only heals what the
CRDT order can still distinguish).

This module closes the gap with a classic anti-entropy loop, adapted to
the SwiShmem split between management and data planes:

* Every member keeps an incremental two-level
  :class:`~repro.core.registers.DigestTree` over each register group
  (:class:`ScrubAgent`): 16 XOR buckets and a root hashed from them.
  Refreshing it costs O(changed keys), so steady-state scrubbing is
  cheap.

* A deployment-wide :class:`ScrubCoordinator` — conceptually the
  controller leader's management plane — runs one *scrub round* per
  group per period: it queries every live member's root, then, if the
  roots differ, all 16 bucket digests, and finally the per-key hashes
  of the divergent buckets.  Digest traffic rides the management
  network (scheduled callbacks paying ``config_latency``), like
  controller reconstruction; only its byte volume is accounted.

* Divergence is *confirmed* across consecutive rounds before repair:
  a write in flight down the chain makes replicas differ legitimately
  for a few microseconds, and repairing those would thrash.  A (member,
  key) pair must stay divergent for ``CONFIRM_ROUNDS`` rounds running.

* **Repair is online, one path for every register kind.**  The
  per-key majority's earliest member re-propagates its state of the key
  to the victim in a :class:`~repro.protocols.messages.ScrubRepair`
  dataplane packet: an SRO/ERO value under the same monotone sequence
  guard as snapshot replay, an EWO cell's entries (an LWW cell is
  overwritten at a version at least its own, a counter max-merged).
  **A tie decides nothing**: every tied member stays divergent, and a
  repair planned from it applies only over a strictly older seq or
  stamp — a lagging replica heals, while an equal-version conflict
  between two replicas is left for ``divergence_healed`` to report.

* **Repairs are fenced.**  A round captures the controller leader's
  epoch and the chain descriptor version (or the multicast membership)
  at start and aborts if either moves; repair packets carry the chain
  epoch and are rejected by a victim whose descriptor is newer.  A
  scrub planned before a failover can therefore never resurrect
  pre-failover state.

Every injected divergence is a :class:`DivergenceEvent` in
``deployment.divergence_log``; the coordinator stamps ``detected_at``
and ``healed_at``, and the invariant suite asserts each heals within
``heal_bound`` of becoming repairable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.core.registers import Consistency, DigestTree, RegisterSpec
from repro.crdt.clock import Timestamp
from repro.net.headers import SwiShmemHeader, SwiShmemOp
from repro.net.packet import Packet
from repro.protocols.messages import (
    ScrubDigestQuery,
    ScrubDigestReply,
    ScrubKeyQuery,
    ScrubKeyReply,
    ScrubRepair,
)
from repro.sim.engine import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import SwiShmemDeployment, SwiShmemManager

__all__ = ["DivergenceEvent", "ScrubAgent", "ScrubCoordinator", "ScrubStats"]

#: Default scrub round period.
DEFAULT_SCRUB_PERIOD = 2e-3
#: Consecutive rounds a (member, key) must stay divergent before repair
#: (filters replicas that merely had a write in flight).
CONFIRM_ROUNDS = 2
#: Scheduled just after the 2 x config_latency reply round-trip so a
#: stage-finish callback always runs after every reply of its stage.
_STAGE_SLACK = 1e-6


def majority_vote(members: Sequence[str], votes: Mapping[str, Any]) -> Tuple[Any, bool]:
    """``(winner, strict)``: the most common value in ``votes``
    (``{member: vote}``; a member absent from it did not vote), ties to
    the earliest voter in ``members`` order — for SRO that is chain
    order, the head side — and whether it won outright: a tie names the
    repair source's side, not who is right.

    A None winner has two meanings and every caller skips both: nobody
    voted, or the winning vote is itself None — in the key stage a
    member's vote is its hash of the key or None for *key absent*, so a
    None majority means most members lack the key: a write in flight,
    not divergence.
    """
    counts: Dict[Any, int] = {}
    first_voter: Dict[Any, int] = {}
    for position, member in enumerate(members):
        if member in votes:
            vote = votes[member]
            counts[vote] = counts.get(vote, 0) + 1
            first_voter.setdefault(vote, position)
    if not counts:
        return None, False
    winner = max(counts, key=lambda vote: (counts[vote], -first_voter[vote]))
    return winner, list(counts.values()).count(counts[winner]) == 1


def _dissenters(members: Sequence[str], votes: Mapping[str, Any]) -> List[str]:
    """The voters a vote leaves divergent: those against the majority,
    and at a tie every voter — nobody is proven clean by a tie."""
    majority, strict = majority_vote(members, votes)
    if majority is None:
        return []
    return [m for m in members if m in votes and (not strict or votes[m] != majority)]


@dataclass
class DivergenceEvent:
    """One injected (or observed) silent divergence, tracked to heal.

    ``kind`` is ``"corrupt"`` (a register bit-flip at ``key``),
    ``"apply-drop"`` (a lost chain apply of ``key``) or ``"stale"`` (a
    thawed freeze window; ``key`` is None — the whole replica may lag).
    ``at`` is when it became repairable (for staleness: at the thaw).

    The scrubber stamps ``detected_at`` on the first confirming key
    stage and ``healed_at`` when a completed round shows the member
    clean again.  ``deadline`` starts as ``at + heal_bound`` and is
    pushed out whenever scrubbing was impossible (no controller leader,
    aborted round, member down) — the guarantee is "healed within the
    bound once scrubbing can run", not "healed through a partition".
    """

    group: int
    switch: str
    kind: str
    key: Any = None
    at: float = 0.0
    deadline: Optional[float] = None
    detected_at: Optional[float] = None
    healed_at: Optional[float] = None
    detail: str = ""
    #: A corruption's ``(version, value)`` after the flip — SRO (slot seq,
    #: value), LWW (stamp, value), counter (slot, value): no heal may keep it.
    entry: Any = None
    #: Set by the invariant monitor after reporting a violation so one
    #: unhealed event is reported once, not once per check tick.
    violated: bool = False

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    @property
    def healed(self) -> bool:
        return self.healed_at is not None


class ScrubStats:
    """Coordinator-side counters (one instance per deployment)."""

    __slots__ = (
        "rounds_started",
        "rounds_clean",
        "rounds_diverged",
        "rounds_aborted",
        "rounds_skipped",
        "digest_queries",
        "key_queries",
        "mgmt_bytes",
        "repairs_sent",
        "repair_bytes",
        "detections",
        "heals",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.__slots__}


class ScrubAgent:
    """Member-side anti-entropy state for one switch.

    Owns one :class:`DigestTree` per register group, canonicalizes the
    live store into immutable entries on demand, answers the
    coordinator's digest/key queries, and applies incoming
    :class:`ScrubRepair` packets: SRO ones under the epoch fence and the
    monotone sequence guard, EWO ones only while the group is EWO here.
    """

    def __init__(self, manager: "SwiShmemManager") -> None:
        self.manager = manager
        self.switch = manager.switch
        self._trees: Dict[int, DigestTree] = {}
        self.repairs_applied = 0
        self.repairs_fenced = 0
        self.obs = manager.obs
        self._causal = manager.causal

    # ------------------------------------------------------------------
    def tree(self, group_id: int) -> DigestTree:
        """The group's digest tree, refreshed against the live store."""
        tree = self._trees.get(group_id)
        if tree is None:
            tree = DigestTree()
            self._trees[group_id] = tree
        tree.refresh(self._items(group_id))
        return tree

    def _items(self, group_id: int) -> List[Tuple[Any, Any]]:
        """Canonical (key, value) pairs for digesting one group: values
        immutable and identical on converged replicas, as the group's
        engine state lists them (``canonical_items``)."""
        spec = self.manager.deployment.specs[group_id]
        # Branch on this member's *live* level, not the (possibly
        # rewritten-mid-handoff) spec: a scrub stage can overlap a
        # runtime re-level, and an engine this member no longer runs
        # simply digests as empty — the stage-finish fence aborts the
        # round anyway.
        if self.manager.level_of(spec) is Consistency.EWO:
            engine = self.manager.ewo
        else:
            engine = self.manager.sro
        state = engine.groups.get(group_id)
        return state.canonical_items() if state is not None else []

    # ------------------------------------------------------------------
    # Management-plane query handlers (invoked by the coordinator)
    # ------------------------------------------------------------------
    def digest_nodes(
        self, group_id: int, level: int, indexes: Tuple[int, ...]
    ) -> Tuple[Tuple[int, int], ...]:
        """The root at level 0, else the named buckets."""
        tree = self.tree(group_id)
        if level == 0:
            return tuple((index, tree.root) for index in indexes)
        return tuple((index, tree.bucket(index)) for index in indexes)

    def key_hashes(
        self, group_id: int, buckets: Tuple[int, ...]
    ) -> Tuple[Tuple[Any, int], ...]:
        tree = self.tree(group_id)
        entries: List[Tuple[Any, int]] = []
        for bucket in buckets:
            entries.extend(tree.bucket_entries(bucket))
        return tuple(entries)

    def chain_version(self, group_id: int) -> int:
        state = self.manager.sro.groups.get(group_id)
        return state.chain.version if state is not None else 0

    # ------------------------------------------------------------------
    # Dataplane repair application
    # ------------------------------------------------------------------
    def handle_repair(self, repair: ScrubRepair) -> None:
        """Apply one authoritative re-propagation."""
        if self.switch.failed:
            return
        engine = self.manager.ewo if repair.entries else self.manager.sro
        state = engine.groups.get(repair.group)
        if state is None:
            return  # not at the repair's level here (an EWO repair's fence)
        ctx = (
            self._causal.child(repair.trace)
            if repair.trace is not None
            else self._causal.root()
        )
        if repair.entries:
            # EWO: ``repair`` the key's cell when the vote was decided,
            # ``apply`` (strictly newer only) when it tied.
            cell = state.cell_for(repair.key)
            merge = cell.repair if repair.decided else cell.apply
            applied = False
            for version, value in repair.entries:
                if type(version) is Timestamp:
                    state.clock.witness(version)
                applied = merge(version, value) or applied
        elif repair.epoch < state.chain.version:
            # The scrub round was fenced on an older chain configuration
            # than this member now runs: the repair might resurrect
            # pre-failover state, so it must not land.
            self.repairs_fenced += 1
            if self.obs.on:
                self.obs.emit(
                    "scrub.repair.fenced",
                    self.switch.name,
                    ctx,
                    group=repair.group,
                    key=repair.key,
                    repair_epoch=repair.epoch,
                    local_epoch=state.chain.version,
                )
            return
        else:
            # An undecided repair never overwrites an equal seq.
            applied = (
                repair.decided or repair.seq > state.pending.applied_seq(repair.slot)
            ) and self.manager.sro.apply_snapshot_write(
                repair.key, repair.value, repair.slot, repair.seq, repair.group
            )
        if applied:
            self.repairs_applied += 1
        if self.obs.on:
            self.obs.emit(
                "scrub.repair.apply",
                self.switch.name,
                ctx,
                group=repair.group,
                key=repair.key,
                seq=repair.seq,
                source=repair.source,
                applied=applied,
            )


@dataclass
class _ScrubRound:
    """One in-flight scrub round over one register group."""

    round_id: int
    group_id: int
    spec: RegisterSpec
    sro: bool
    members: Tuple[str, ...]
    epoch: int
    chain_version: int
    started_at: float
    trace: Any = None
    level: int = 0
    #: member -> {node index: digest} for the current digest stage.
    replies: Dict[str, Dict[int, int]] = field(default_factory=dict)
    reply_versions: Dict[str, int] = field(default_factory=dict)
    #: member -> {key: entry hash} for the key stage.
    key_replies: Dict[str, Dict[Any, int]] = field(default_factory=dict)
    aborted: bool = False


class ScrubCoordinator:
    """Deployment-wide anti-entropy driver (controller management plane)."""

    def __init__(
        self,
        deployment: "SwiShmemDeployment",
        period: float = DEFAULT_SCRUB_PERIOD,
    ) -> None:
        self.deployment = deployment
        self.sim = deployment.sim
        self.period = period
        #: Heal guarantee: a repairable divergence is gone within this
        #: much sim time, counted from when scrubbing was last unable to
        #: run for its group: enough for confirmation rounds plus repair
        #: propagation plus one verifying round.
        self.heal_bound = 6 * period
        self.latency = deployment.controller.config_latency
        self.stats = ScrubStats()
        self._round_ids = itertools.count(1)
        self._rounds: Dict[int, _ScrubRound] = {}
        #: (group, member, key) -> consecutive divergent rounds.
        self._suspects: Dict[Tuple[int, str, Any], int] = {}
        self._process: Optional[Process] = None
        #: The deployment's observability spine; coordinator spans and
        #: metrics carry the "scrub" node.
        self.obs = deployment.obs
        self.obs.announce("scrub")
        self._causal = self.obs.clock("scrub")

    # ------------------------------------------------------------------
    def start(self) -> "ScrubCoordinator":
        if self._process is None:
            self._process = Process(
                self.sim, self.period, self._tick, name="scrub-round"
            ).start()
        return self

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None
        self._rounds.clear()

    # ------------------------------------------------------------------
    # Round scheduling
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        leader = self.deployment.controller.active_leader()
        if leader is None:
            # No fencing authority: scrubbing pauses, and outstanding
            # events are not chargeable against the heal bound.
            self.stats.rounds_skipped += 1
            self._extend_deadlines(group_id=None)
            return
        for group_id in sorted(self.deployment.specs):
            if group_id in self._rounds:
                continue  # previous round still in flight
            self._start_round(group_id, leader.epoch)

    def _start_round(self, group_id: int, epoch: int) -> None:
        spec = self.deployment.specs[group_id]
        if spec.partial_replication and self.deployment.directory is not None:
            return  # members legitimately hold different key subsets
        if self.deployment.releveler.active_handoff(group_id) is not None:
            # Mid-re-level the group's engines are draining or being
            # swapped; replicas legitimately disagree.  Skip the round —
            # the first post-handoff round scrubs the new engine.
            self.stats.rounds_skipped += 1
            self._extend_deadlines(group_id)
            return
        managers = self.deployment.managers
        sro = spec.consistency is not Consistency.EWO
        if sro:
            chain = self.deployment.chains.get(group_id)
            if chain is None:
                self.stats.rounds_skipped += 1
                return  # chain retired by a re-level between checks
            chain_version, candidates = chain.version, chain.members
        else:
            if not self.deployment.multicast.has(group_id):
                self.stats.rounds_skipped += 1
                return  # fan-out deleted by a re-level between checks
            chain_version = 0
            candidates = sorted(self.deployment.multicast.get(group_id).members)
        members = tuple(m for m in candidates if not managers[m].switch.failed)
        if len(members) < 2:
            self.stats.rounds_skipped += 1
            self._extend_deadlines(group_id)
            return
        round_ = _ScrubRound(
            round_id=next(self._round_ids),
            group_id=group_id,
            spec=spec,
            sro=sro,
            members=members,
            epoch=epoch,
            chain_version=chain_version,
            started_at=self.sim.now,
            trace=self._causal.root(),
        )
        self._rounds[group_id] = round_
        self.stats.rounds_started += 1
        if self.obs.on:
            self.obs.emit(
                "scrub.round.start",
                "scrub",
                round_.trace,
                group=group_id,
                round=round_.round_id,
                members=",".join(members),
                epoch=epoch,
                chain_version=chain_version,
            )
        self._query_digests(round_, level=0, indexes=(0,))

    # ------------------------------------------------------------------
    # Digest stages (management plane, 2 x config_latency per stage)
    # ------------------------------------------------------------------
    def _query_digests(
        self, round_: _ScrubRound, level: int, indexes: Tuple[int, ...]
    ) -> None:
        round_.level = level
        round_.replies = {}
        round_.reply_versions = {}
        query = ScrubDigestQuery(
            group=round_.group_id,
            round_id=round_.round_id,
            epoch=round_.epoch,
            level=level,
            indexes=indexes,
            sent_at=self.sim.now,
        )
        for member in round_.members:
            self.stats.digest_queries += 1
            self.stats.mgmt_bytes += query.wire_size
            self.sim.schedule(
                self.latency,
                self._member_digests,
                round_,
                member,
                query,
                label="scrub-digest-query",
            )
        self.sim.schedule(
            2 * self.latency + _STAGE_SLACK,
            self._finish_digest_stage,
            round_,
            label="scrub-digest-stage",
        )

    def _member_digests(
        self, round_: _ScrubRound, member: str, query: ScrubDigestQuery
    ) -> None:
        """Member-side digest computation (runs at the member's switch)."""
        if self._rounds.get(round_.group_id) is not round_ or round_.aborted:
            return
        manager = self.deployment.managers[member]
        if manager.switch.failed:
            return  # no reply; the stage finish notices the gap
        agent = manager.scrub
        reply = ScrubDigestReply(
            group=round_.group_id,
            round_id=round_.round_id,
            switch=member,
            level=query.level,
            nodes=agent.digest_nodes(round_.group_id, query.level, query.indexes),
            chain_version=agent.chain_version(round_.group_id) if round_.sro else 0,
        )
        self.stats.mgmt_bytes += reply.wire_size
        self.sim.schedule(
            self.latency, self._on_digest_reply, round_, reply, label="scrub-digest-reply"
        )

    def _on_digest_reply(self, round_: _ScrubRound, reply: ScrubDigestReply) -> None:
        if self._rounds.get(round_.group_id) is not round_ or round_.aborted:
            return
        round_.replies[reply.switch] = dict(reply.nodes)
        round_.reply_versions[reply.switch] = reply.chain_version

    def _finish_digest_stage(self, round_: _ScrubRound) -> None:
        if self._rounds.get(round_.group_id) is not round_ or round_.aborted:
            return
        if not self._fence_ok(round_) or len(round_.replies) < 2:
            self._abort_round(round_, reason="fence")
            return
        if round_.sro and any(
            version != round_.chain_version
            for version in round_.reply_versions.values()
        ):
            # A member answered under a different chain configuration
            # than the round was fenced on (reconfiguration in flight).
            self._abort_round(round_, reason="chain-version")
            return
        # Majority digest per queried node; members disagreeing with the
        # majority (every voter, at a tie) carry the divergence down to
        # the next stage.
        queried = sorted({i for nodes in round_.replies.values() for i in nodes})
        divergent_indexes: Set[int] = set()
        divergent_members: Set[str] = set()
        for index in queried:
            votes = {m: nodes.get(index) for m, nodes in round_.replies.items()}
            for member in _dissenters(round_.members, votes):
                divergent_indexes.add(index)
                divergent_members.add(member)
        if not divergent_indexes:
            self._complete_round(round_, divergent={})
            return
        if round_.level == DigestTree.BUCKET_LEVEL:
            # Bucket level reached: fetch per-key hashes of the
            # divergent buckets from every member.
            self._query_keys(round_, tuple(sorted(divergent_indexes)))
            return
        # The root differs: query every bucket.
        children = tuple(range(DigestTree.BUCKETS))
        if self.obs.on:
            self.obs.emit(
                "scrub.round.descend",
                "scrub",
                round_.trace,
                group=round_.group_id,
                round=round_.round_id,
                level=DigestTree.BUCKET_LEVEL,
                nodes=len(children),
                members=",".join(sorted(divergent_members)),
            )
        self._query_digests(round_, DigestTree.BUCKET_LEVEL, children)

    # ------------------------------------------------------------------
    # Key stage
    # ------------------------------------------------------------------
    def _query_keys(self, round_: _ScrubRound, buckets: Tuple[int, ...]) -> None:
        round_.key_replies = {}
        query = ScrubKeyQuery(
            group=round_.group_id,
            round_id=round_.round_id,
            epoch=round_.epoch,
            buckets=buckets,
        )
        for member in round_.members:
            self.stats.key_queries += 1
            self.stats.mgmt_bytes += query.wire_size
            self.sim.schedule(
                self.latency,
                self._member_keys,
                round_,
                member,
                query,
                label="scrub-key-query",
            )
        self.sim.schedule(
            2 * self.latency + _STAGE_SLACK,
            self._finish_key_stage,
            round_,
            label="scrub-key-stage",
        )

    def _member_keys(
        self, round_: _ScrubRound, member: str, query: ScrubKeyQuery
    ) -> None:
        if self._rounds.get(round_.group_id) is not round_ or round_.aborted:
            return
        manager = self.deployment.managers[member]
        if manager.switch.failed:
            return
        reply = ScrubKeyReply(
            group=round_.group_id,
            round_id=round_.round_id,
            switch=member,
            entries=manager.scrub.key_hashes(round_.group_id, query.buckets),
            key_bytes=round_.spec.key_bytes,
        )
        self.stats.mgmt_bytes += reply.wire_size
        self.sim.schedule(
            self.latency, self._on_key_reply, round_, reply, label="scrub-key-reply"
        )

    def _on_key_reply(self, round_: _ScrubRound, reply: ScrubKeyReply) -> None:
        if self._rounds.get(round_.group_id) is not round_ or round_.aborted:
            return
        round_.key_replies[reply.switch] = dict(reply.entries)

    @staticmethod
    def _key_votes(round_: _ScrubRound, key: Any) -> Dict[str, Any]:
        """Each replying member's hash of ``key``, None where it lacks it."""
        return {
            member: round_.key_replies[member].get(key)
            for member in round_.members
            if member in round_.key_replies
        }

    def _finish_key_stage(self, round_: _ScrubRound) -> None:
        if self._rounds.get(round_.group_id) is not round_ or round_.aborted:
            return
        if not self._fence_ok(round_) or len(round_.key_replies) < 2:
            self._abort_round(round_, reason="fence")
            return
        all_keys = sorted(
            {key for entries in round_.key_replies.values() for key in entries},
            key=repr,
        )
        divergent: Dict[str, Set[Any]] = {}
        for key in all_keys:
            for member in _dissenters(round_.members, self._key_votes(round_, key)):
                divergent.setdefault(member, set()).add(key)
        self._complete_round(round_, divergent)

    # ------------------------------------------------------------------
    # Round completion: confirmation, repair, heal bookkeeping
    # ------------------------------------------------------------------
    def _complete_round(
        self, round_: _ScrubRound, divergent: Dict[str, Set[Any]]
    ) -> None:
        self._rounds.pop(round_.group_id, None)
        group_id = round_.group_id
        now = self.sim.now
        # Confirmation counting: replace this group's suspect entries
        # wholesale so anything that came back clean resets to zero.
        confirmed: Dict[str, Set[Any]] = {}
        stale_suspects = [s for s in self._suspects if s[0] == group_id]
        fresh: Dict[Tuple[int, str, Any], int] = {}
        for member in sorted(divergent):
            for key in sorted(divergent[member], key=repr):
                suspect = (group_id, member, key)
                fresh[suspect] = self._suspects.get(suspect, 0) + 1
                if fresh[suspect] >= CONFIRM_ROUNDS:
                    confirmed.setdefault(member, set()).add(key)
        for suspect in stale_suspects:
            del self._suspects[suspect]
        self._suspects.update(fresh)
        if divergent:
            self.stats.rounds_diverged += 1
        else:
            self.stats.rounds_clean += 1
        if self.obs.on:
            self.obs.emit(
                "scrub.round.complete",
                "scrub",
                round_.trace,
                group=group_id,
                round=round_.round_id,
                divergent=",".join(sorted(divergent)),
                confirmed=",".join(sorted(confirmed)),
                diverged=bool(divergent),
            )
        self._mark_detections(round_, divergent, now)
        if confirmed:
            self._repair(round_, confirmed)
        self._mark_heals(round_, divergent, now)

    def _mark_detections(
        self, round_: _ScrubRound, divergent: Dict[str, Set[Any]], now: float
    ) -> None:
        for event in self.deployment.divergence_log:
            if (
                event.group != round_.group_id
                or event.healed
                or event.detected
                or now < event.at
            ):
                continue
            keys = divergent.get(event.switch)
            if keys is None:
                continue
            if event.key is None or event.key in keys:
                event.detected_at = now
                self.stats.detections += 1
                if self.obs.on:
                    self.obs.emit(
                        "scrub.detect",
                        "scrub",
                        round_.trace,
                        group=event.group,
                        switch=event.switch,
                        kind=event.kind,
                        key=event.key,
                        latency_us=round((now - event.at) * 1e6, 3),
                        latency=now - event.at,
                    )

    def _mark_heals(
        self, round_: _ScrubRound, divergent: Dict[str, Set[Any]], now: float
    ) -> None:
        """A completed round is proof of health for its clean members."""
        for event in self.deployment.divergence_log:
            if event.group != round_.group_id or event.healed:
                continue
            if round_.started_at < event.at:
                continue  # round may predate the divergence
            if event.switch not in round_.members:
                # The victim is down (or excluded): not scrubbable, so
                # not chargeable against the heal bound.
                self._extend_event(event)
                continue
            keys = divergent.get(event.switch)
            clean = keys is None or (event.key is not None and event.key not in keys)
            if clean:
                event.healed_at = now
                if event.detected_at is None:
                    # Healed by normal protocol traffic (EWO gossip, a
                    # fresh write) before the scrubber could confirm it;
                    # the clean round is still the verification.
                    event.detected_at = now
                self.stats.heals += 1
                if self.obs.on:
                    self.obs.emit(
                        "scrub.heal",
                        "scrub",
                        round_.trace,
                        group=event.group,
                        switch=event.switch,
                        kind=event.kind,
                        key=event.key,
                        latency_us=round((now - event.at) * 1e6, 3),
                        latency=now - event.at,
                    )

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _repair(self, round_: _ScrubRound, confirmed: Dict[str, Set[Any]]) -> None:
        managers = self.deployment.managers
        for victim in sorted(confirmed):
            if managers[victim].switch.failed:
                continue
            for key in sorted(confirmed[victim], key=repr):
                hashes = self._key_votes(round_, key)
                majority, decided = majority_vote(round_.members, hashes)
                if majority is None or hashes.get(victim) == majority:
                    continue  # nothing to repair it to, or it holds the source's vote
                source = next(m for m in round_.members if hashes.get(m) == majority)
                managers[source].switch.control.submit(
                    self._send_repair, round_, source, victim, key, decided,
                    label="scrub-repair",
                )

    def _send_repair(
        self, round_: _ScrubRound, source: str, victim: str, key: Any, decided: bool
    ) -> None:
        """Authority-side: re-propagate its state of ``key`` to the victim."""
        manager = self.deployment.managers[source]
        if manager.switch.failed:
            return
        if round_.sro:
            state = manager.sro.groups.get(round_.group_id)
            if state is None or key not in state.store:
                return
            if state.chain.version != round_.chain_version:
                return  # reconfigured since the round was fenced; drop
            slot = state.pending.slot_of(key)
            payload = dict(
                value=state.store[key], seq=state.pending.applied_seq(slot), slot=slot,
                epoch=state.chain.version,
            )
        else:
            state = manager.ewo.groups.get(round_.group_id)
            cell = state.cells.get(key) if state is not None else None
            if cell is None or not cell.entries():
                return
            payload = dict(entries=tuple(cell.entries()))
        repair = ScrubRepair(
            group=round_.group_id,
            key=key,
            source=source,
            round_id=round_.round_id,
            key_bytes=round_.spec.key_bytes,
            value_bytes=round_.spec.value_bytes,
            decided=decided,
            **payload,
        )
        repair.trace = manager.causal.root()
        packet = Packet(
            swishmem=SwiShmemHeader(
                op=SwiShmemOp.SCRUB_REPAIR,
                register_group=round_.group_id,
                dst_node=victim,
            ),
            swishmem_payload=repair,
            trace=repair.trace,
            uid=next(manager.sim.packet_ids),
        )
        self.stats.repairs_sent += 1
        self.stats.repair_bytes += packet.wire_size
        if self.obs.on:
            self.obs.emit(
                "scrub.repair.send",
                source,
                repair.trace,
                group=round_.group_id,
                key=key,
                victim=victim,
                seq=repair.seq,
                epoch=repair.epoch,
                bytes=packet.wire_size,
            )
        manager.switch.forward_to_node(packet, victim)

    # ------------------------------------------------------------------
    # Fencing and deadline bookkeeping
    # ------------------------------------------------------------------
    def _fence_ok(self, round_: _ScrubRound) -> bool:
        leader = self.deployment.controller.active_leader()
        if leader is None or leader.epoch != round_.epoch:
            return False
        if round_.sro:
            chain = self.deployment.chains.get(round_.group_id)
            if chain is None or chain.version != round_.chain_version:
                # Chain gone (demoted to EWO mid-round) or reconfigured.
                return False
        elif not self.deployment.multicast.has(round_.group_id):
            return False  # fan-out gone (promoted to SRO mid-round)
        for member in round_.members:
            if self.deployment.managers[member].switch.failed:
                return False
        return True

    def _abort_round(self, round_: _ScrubRound, reason: str) -> None:
        round_.aborted = True
        self._rounds.pop(round_.group_id, None)
        self.stats.rounds_aborted += 1
        if self.obs.on:
            self.obs.emit(
                "scrub.round.abort",
                "scrub",
                round_.trace,
                group=round_.group_id,
                round=round_.round_id,
                reason=reason,
            )
        # Scrubbing this group just failed through no fault of the
        # divergence: outstanding events get a fresh heal window.
        self._extend_deadlines(round_.group_id)

    def _extend_deadlines(self, group_id: Optional[int]) -> None:
        deadline = self.sim.now + self.heal_bound
        for event in self.deployment.divergence_log:
            if event.healed:
                continue
            if group_id is not None and event.group != group_id:
                continue
            self._extend_event(event, deadline)

    def _extend_event(self, event: DivergenceEvent, deadline: Optional[float] = None) -> None:
        if deadline is None:
            deadline = self.sim.now + self.heal_bound
        current = event.deadline if event.deadline is not None else event.at + self.heal_bound
        event.deadline = max(current, deadline)
