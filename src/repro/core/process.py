"""The Tempo process: commit, execution and multi-partition protocols.

This module implements the message handling of Algorithms 1-3 and 5-6 of
the paper as a single message-driven state machine, :class:`TempoProcess`.
The timestamp order those handlers drive — clock, promises, stability and
the execution heaps — is one component,
:class:`~repro.core.stability.TimestampOrder`, held as ``order`` and used
only through its operations.  Recovery (Algorithm 4) lives in
:mod:`repro.core.recovery` and the liveness mechanism of §B — asking again
for whatever a stuck command is missing — in :mod:`repro.core.repair`; both
are mixed in.

A :class:`TempoProcess` replicates exactly one partition.  Multi-partition
commands are handled by running the commit protocol independently at every
accessed partition and combining the per-partition timestamps with ``max``
(Algorithm 3); execution additionally waits until every accessed partition
is known stable — this one by its own check, the others by their
``MStable`` — which enforces the real-time order of PSMR.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.base import ProcessBase
from repro.core.commands import Command
from repro.core.gc import WatermarkGcMixin
from repro.core.identifiers import Dot
from repro.core.info import CommandInfo
from repro.core.messages import (
    MBump,
    MCommit,
    MCommitRequest,
    MConsensus,
    MConsensusAck,
    MDeliveryAck,
    MExecutedClock,
    Message,
    MPayload,
    MPromises,
    MPropose,
    MProposeAck,
    MRec,
    MRecAck,
    MRecNAck,
    MRepairRequest,
    MStable,
    MSubmit,
    Need,
)
from repro.core.phases import Phase
from repro.core.recovery import RecoveryMixin
from repro.core.repair import RepairMixin
from repro.core.stability import TimestampOrder

#: Phases in which a command's commit outcome may only be learnable through
#: MCommitRequest (committed peers ignore MRec, §B.1).
_RECOVERY_PHASES = frozenset({Phase.RECOVER_R, Phase.RECOVER_P})


class TempoProcess(RepairMixin, RecoveryMixin, WatermarkGcMixin, ProcessBase):
    """A Tempo replica of one partition (constructor arguments: see
    :class:`repro.core.base.ProcessBase`)."""

    _info: Dict[Dot, CommandInfo]

    #: The stable heap executes a partition's commands in ``(timestamp, id)``
    #: order, conflicting or not (Algorithm 6).
    TOTAL_TIMESTAMP_ORDER = True

    _DIGEST_EXEMPT = frozenset(
        {
            "_ack_target_cache",  # cache
            "_fast_commit_target_cache",  # cache
            "_partition_targets",  # cache
            "_stable_targets",  # cache
        }
    )

    def __init__(self, *args, ack_broadcast: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Implementation-level optimisation: fast-quorum members send their
        #: MProposeAck to the whole fast quorum, so every member detects the
        #: fast-path commit locally instead of waiting for the coordinator's
        #: MCommit.  Every member computes the same timestamp from the same
        #: set of proposals and only self-commits when the fast-path
        #: condition holds (the one gap, a member crashing right after it
        #: did, is ROADMAP item 2(e)).  Two things follow from it,
        #: on the fast path only (slow path and recovery outcomes are known
        #: to the leader alone and keep the full coordinator broadcast):
        #:
        #: * elision — own-partition fast-quorum members get no MCommit:
        #:   they self-commit the identical timestamp with the identical
        #:   promises (:meth:`_local_fast_commit`);
        #: * relay — every other process of ``I_c`` gets its MCommit from
        #:   exactly one quorum member, the one whose copy arrives first
        #:   (:meth:`QuorumSystem.commit_relays`, ``docs/commit_relay.md``).
        #:
        #: A lost ack or relayed copy, or a relayer crashed after
        #: self-committing, is the repair pass's to replace
        #: (:mod:`repro.core.repair`).
        self.ack_broadcast = ack_broadcast
        #: Clock, promises, stability and execution order (Algorithms 1, 2
        #: and 6): every handler below goes through its operations.
        self.order = TimestampOrder(self.process_id, self.partition_peers())
        #: Recovery-phase identifiers for which the MCommitRequest (Algorithm
        #: 6, line 96) was already sent; asking again is the repair pass's job.
        self._commit_requested: Set[Dot] = set()
        #: Set when a commit or promise absorption during a delivery scope
        #: made new timestamps potentially stable; the scope's
        #: :meth:`_flush_step` then runs one stability check for the whole
        #: delivered batch instead of one per inner message.
        self._stability_dirty = False
        #: Like ``_stability_dirty`` but for MStable notifications, which
        #: only require an execution attempt, not a full stability pass.
        self._execute_dirty = False
        #: Sorted ack-broadcast target list per fast-quorum tuple.
        self._ack_target_cache: Dict[Tuple[int, ...], List[int]] = {}
        #: Fast-path MCommit targets of *this* process — the share of
        #: ``I_c`` the relay plan assigns it, plus itself when it
        #: coordinates — cached per (partition set, fast quorum).
        self._fast_commit_target_cache: Dict[
            Tuple[FrozenSet[int], Tuple[int, ...]], List[int]
        ] = {}
        #: Broadcast target lists (``I_c``) cached per accessed-partition
        #: set; the lists are only ever iterated.
        self._partition_targets: Dict[FrozenSet[int], List[int]] = {}
        #: MStable recipient lists (the other-partition processes of
        #: ``I_c``) cached per accessed-partition set.
        self._stable_targets: Dict[FrozenSet[int], List[int]] = {}
        #: Message-type -> bound handler dispatch table (exact class match;
        #: protocol messages are never subclassed).  Replaces the isinstance
        #: chain on the per-message hot path.
        self._dispatch: Dict[type, Callable[[int, object, float], None]] = {
            MSubmit: self._on_submit,
            MPropose: self._on_propose,
            MProposeAck: self._on_propose_ack,
            MPayload: self._on_payload,
            MCommit: self._on_commit,
            MConsensus: self._on_consensus,
            MConsensusAck: self._on_consensus_ack,
            MBump: self._on_bump,
            MPromises: self._on_promises,
            MStable: self._on_stable,
            MRec: self._on_rec,
            MRecAck: self._on_rec_ack,
            MRecNAck: self._on_rec_nack,
            MCommitRequest: self._on_commit_request,
            MExecutedClock: self._on_executed_clock,
            MDeliveryAck: self._on_delivery_ack,
            MRepairRequest: self._on_repair_request,
        }

    # ------------------------------------------------------------------ helpers

    def info(self, dot: Dot) -> CommandInfo:
        """Bookkeeping record for ``dot``, creating it on first use."""
        record = self._info.get(dot)
        if record is None:
            record = CommandInfo()
            self._info[dot] = record
        return record

    def committed_timestamp(self, dot: Dot) -> Optional[int]:
        """Final timestamp of ``dot`` if committed or executed here."""
        record = self._info.get(dot)
        if record is None or not record.is_committed:
            return None
        return record.final_timestamp

    def _targets_for(self, partitions: Iterable[int]) -> List[int]:
        """Sorted members of ``I_c``, cached per partition set."""
        key = frozenset(partitions)
        targets = self._partition_targets.get(key)
        if targets is None:
            processes_of = self.config.processes_of_partition
            targets = sorted({p for partition in key for p in processes_of(partition)})
            self._partition_targets[key] = targets
        return targets

    def _stable_targets_for(self, partitions: Iterable[int]) -> List[int]:
        """Recipients of an MStable notification: the processes of the
        *other* accessed partitions (none under full replication).

        Timestamp stability is a deterministic local function of the promise
        set, and promises circulate within a partition, so every
        same-partition process derives this partition's stability on its
        own — this one included, which records it in ``stable_from`` as
        state rather than as a message to itself.  Cross-partition
        processes cannot derive it (promise traffic never leaves a
        partition), so they receive the notification required by the PSMR
        execution rule (Algorithm 3/6).
        """
        key = frozenset(partitions)
        targets = self._stable_targets.get(key)
        if targets is None:
            processes_of = self.config.processes_of_partition
            others = key - {self.partition}
            targets = sorted({p for partition in others for p in processes_of(partition)})
            self._stable_targets[key] = targets
        return targets

    def _commit_known(self, dot: Dot) -> bool:
        """Whether ``dot`` committed here, or executed everywhere and was
        collected: either way its attached promises count (line 47)."""
        record = self._info.get(dot)
        return (record is not None and record.is_committed) or self.gc.collected(dot)

    # ------------------------------------------------------------------ submit

    def submit(self, command: Command, now: float = 0.0) -> None:
        """Submit ``command`` on behalf of a client (Algorithm 1, line 1).

        The submitting process must replicate one of the accessed
        partitions.  The fast quorums ``Q`` it picks avoid every replica it
        suspects; they travel with the command, so relay plans, ack targets
        and recovery all follow this one choice.
        """
        self._check_minted_here(command)
        partitions = sorted(command.partitions(self.partitioner))
        if self.partition not in partitions:
            raise ValueError(
                f"process {self.process_id} (partition {self.partition}) cannot "
                f"submit a command accessing partitions {partitions}"
            )
        quorums = self.quorum_system.fast_quorums(
            self.process_id, partitions, self.suspected
        )
        message = MSubmit(command.dot, command, quorums)
        self.send(sorted({quorum[0] for quorum in quorums.values()}), message, now)

    # ------------------------------------------------------------------ commit protocol

    def _on_submit(self, sender: int, message: MSubmit, now: float) -> None:
        """Start coordinating the command at this partition (line 5)."""
        dot = message.dot
        command = message.command
        quorums = message.quorums
        fast_quorum = quorums[self.partition]
        timestamp = self.order.clock + 1
        propose = MPropose(dot, command, quorums, timestamp)
        self.send(fast_quorum, propose, now)
        others = [
            process
            for process in self.partition_peers()
            if process not in fast_quorum
        ]
        if others:
            self.send(others, MPayload(dot, command, quorums), now)

    def _store(self, message, phase: Phase, now: float) -> Optional[CommandInfo]:
        """Store a new command from MPayload/MPropose and enter ``phase``."""
        dot = message.dot
        if self.gc.collected(dot):
            return None  # late duplicate of a globally-executed command
        record = self.info(dot)
        if record.phase is not Phase.START:
            return None
        record.command = message.command
        record.quorums = message.quorums
        self._await_commit(dot, now)
        record.move_to(phase)
        return record

    def _on_payload(self, sender: int, message: MPayload, now: float) -> None:
        """Store the payload of a command outside the fast quorum (line 9)."""
        if self._store(message, Phase.PAYLOAD, now) is not None:
            self._maybe_commit(message.dot)

    def _on_propose(self, sender: int, message: MPropose, now: float) -> None:
        """Compute a timestamp proposal as a fast-quorum member (line 12)."""
        dot = message.dot
        record = self._store(message, Phase.PROPOSE, now)
        if record is None:
            return
        timestamp, detached = self.order.propose(dot, message.timestamp)
        record.timestamp = timestamp
        ack = MProposeAck(
            dot,
            timestamp=timestamp,
            detached=(
                {self.process_id: ((detached[0], detached[-1]),)} if detached else {}
            ),
        )
        if self.ack_broadcast:
            # Send the ack to the whole fast quorum so every member can
            # detect the fast-path commit without the coordinator round.
            quorum = record.quorums.get(self.partition, (sender,))
            targets = self._ack_target_cache.get(quorum)
            if targets is None:
                targets = sorted(set(quorum))
                self._ack_target_cache[quorum] = targets
            self.send(targets, ack, now)
        else:
            self.send([sender], ack, now)
        # Multi-partition optimisation (§4, "faster stability"): tell the
        # co-located replicas of the other accessed partitions about this
        # proposal so they can bump their clocks early.
        partitions = [
            partition
            for partition in record.quorums
            if partition != self.partition
        ]
        if partitions:
            # One nearby process per accessed partition (the set ``I^i_c``).
            coordinators = self.quorum_system.coordinators_for(
                self.process_id, partitions
            )
            targets = sorted(set(coordinators.values()) - {self.process_id})
            if targets:
                self.send(targets, MBump(dot, timestamp), now)

    def _on_bump(self, sender: int, message: MBump, now: float) -> None:
        """Bump the clock on behalf of another partition's proposal (§4)."""
        record = self._info.get(message.dot)
        if record is None or record.phase is not Phase.PROPOSE:
            return
        self.order.bump(message.timestamp)

    def _on_propose_ack(self, sender: int, message: MProposeAck, now: float) -> None:
        """Collect fast-quorum proposals (line 17).

        The coordinator always handles this message.  With ``ack_broadcast``
        enabled every fast-quorum member also receives the acks and, when
        the fast-path condition holds, commits its partition's timestamp
        locally without waiting for the coordinator's MCommit.

        An ack may overtake the MPropose itself on a reordering link; it is
        then buffered in a fresh START-phase record instead of dropped —
        the member's own self-addressed ack (sent when MPropose finally
        arrives) completes the proposal set and re-runs the fast-path
        check.  The coordinator's MCommit is elided for quorum members and
        so does not backstop a dropped ack: the buffering is what keeps the
        fast path loss-free under reordering.
        """
        dot = message.dot
        if self.gc.collected(dot):
            return  # late duplicate of a globally-executed command
        record = self.info(dot)
        if record.phase not in (Phase.START, Phase.PROPOSE):
            return
        # Also the attached promise <sender, timestamp> the ack stands for.
        record.proposals[sender] = message.timestamp
        if message.detached:
            record.collect_detached(message.detached)
        if record.phase is not Phase.PROPOSE:
            return  # buffered: our own proposal has not been computed yet
        fast_quorum = record.quorums.get(self.partition, ())
        proposal_map = record.proposals
        for process in fast_quorum:
            if process not in proposal_map:
                return
        proposals = [proposal_map[process] for process in fast_quorum]
        timestamp = max(proposals)
        count = sum(1 for proposal in proposals if proposal == timestamp)
        is_coordinator = bool(fast_quorum) and fast_quorum[0] == self.process_id
        if count >= self.config.faults:
            if is_coordinator:
                self._broadcast_commit(dot, record, timestamp, now, fast=True)
            else:
                self._local_fast_commit(dot, record, timestamp, now)
        elif is_coordinator:
            ballot = self._own_ballot()
            record.ballot = ballot
            self.send(
                self.partition_peers(), MConsensus(dot, timestamp, ballot), now
            )

    def _local_fast_commit(
        self, dot: Dot, record: CommandInfo, timestamp: int, now: float
    ) -> None:
        """A non-coordinator fast-quorum member observed the fast-path commit
        for its own partition (``ack_broadcast`` optimisation)."""
        # A multi-partition dot stays in PROPOSE until the other partitions
        # report, so a duplicate ack can bring it back here: relay once.
        first = self.partition not in record.partition_commits
        self.order.absorb_piggyback(dot, record.proposals, record.detached_wire())
        record.partition_commits[self.partition] = max(
            record.partition_commits.get(self.partition, 0), timestamp
        )
        if first:
            self._broadcast_commit(dot, record, timestamp, now, fast=True)
        self._maybe_commit(dot)

    def _broadcast_commit(
        self,
        dot: Dot,
        record: CommandInfo,
        timestamp: int,
        now: float,
        fast: bool = False,
    ) -> None:
        """Send MCommit for this partition to the processes of ``I_c``.

        Slow path, recovery and ``ack_broadcast=False``: the coordinator
        sends to all of them.  With ``fast`` under ``ack_broadcast`` every
        fast-quorum member holds the full proposal set — and the promises
        piggybacked on the acks — so the own-partition quorum members get
        no copy (they self-commit the same timestamp) and every other
        process gets exactly one, from the member the relay plan names;
        this process sends its share of that plan, plus the copy the
        coordinator commits itself by.
        """
        if fast and self.ack_broadcast:
            quorum = tuple(record.quorums.get(self.partition, ()))
            key = (frozenset(record.quorums), quorum)
            targets = self._fast_commit_target_cache.get(key)
            if targets is None:
                targets = self.quorum_system.commit_relays(
                    quorum, self._targets_for(record.quorums)
                )[self.process_id]
                if quorum[0] == self.process_id:
                    targets = sorted(targets + [self.process_id])
                self._fast_commit_target_cache[key] = targets
            if not targets:
                return
        else:
            targets = self._targets_for(record.quorums)
        commit = MCommit(
            dot,
            timestamp=timestamp,
            partition=self.partition,
            attached=dict(sorted(record.proposals.items())),
            detached=record.detached_wire(),
        )
        self.send(targets, commit, now)
        if self.reliability is not None:
            # Lossy-run safety net: keep the commit buffered until every
            # non-self target acknowledges delivery (see repro.reliability).
            self.reliability.track(targets, commit, now)

    def _on_consensus(self, sender: int, message: MConsensus, now: float) -> None:
        """Accept a Flexible-Paxos phase-2 proposal (line 26)."""
        dot = message.dot
        if self.gc.collected(dot):
            return  # outcome decided and globally executed long ago
        record = self.info(dot)
        if record.ballot > message.ballot:
            self.send([sender], MRecNAck(dot, record.ballot), now)
            return
        record.timestamp = message.timestamp
        record.ballot = message.ballot
        record.accepted_ballot = message.ballot
        self.order.bump(message.timestamp)
        self.send([sender], MConsensusAck(dot, message.ballot), now)

    def _on_consensus_ack(self, sender: int, message: MConsensusAck, now: float) -> None:
        """Commit once a slow quorum accepted the proposal (line 31)."""
        dot = message.dot
        record = self._info.get(dot)
        if record is None or not record.is_pending:
            return  # decided already: a late ack has nothing left to drive
        acks = record.consensus_acks_at(message.ballot)
        acks.add(sender)
        if record.ballot != message.ballot:
            return
        if len(acks) < self.config.slow_quorum_size:
            return
        self._broadcast_commit(dot, record, record.timestamp, now)

    def _on_commit(self, sender: int, message: MCommit, now: float) -> None:
        """Record a per-partition commit; commit once all partitions did."""
        dot = message.dot
        if self.reliability is not None and sender != self.process_id:
            # Ack before any dedup/GC early return: the sender retransmits
            # until acked, so a duplicate usually means our first ack was
            # lost.
            self._ack_delivery(sender, message, now)
        record = None if self.gc.collected(dot) else self.info(dot)
        if record is None or record.phase is Phase.EXECUTE:
            # Late duplicate (commit-request or resync reply) for a command
            # already executed here: the piggybacked promises are still
            # absorbed — absorption is idempotent, and the identifier being
            # executed makes its attached promises directly usable — but
            # nothing else is recorded (an executed record released its
            # per-partition commits; a collected one is not recreated).
            self.order.absorb_piggyback(
                dot, message.attached, message.detached, usable=True
            )
            return
        record.partition_commits[message.partition] = max(
            record.partition_commits.get(message.partition, 0), message.timestamp
        )
        self.order.absorb_piggyback(dot, message.attached, message.detached)
        self._maybe_commit(dot)

    def _maybe_commit(self, dot: Dot) -> None:
        """Move ``dot`` to the commit phase once every accessed partition has
        reported a committed timestamp (Algorithm 3, line 56)."""
        record = self._info.get(dot)
        if record is None:
            return
        # "committed or not pending" collapses to "not pending" (commit and
        # execute are not pending phases); the membership flag stamped onto
        # the Phase members skips two property frames per call.
        if not record.phase._is_pending:
            return
        quorums = record.quorums
        if not quorums:
            return
        partition_commits = record.partition_commits
        final = 0
        for partition in quorums:
            committed = partition_commits.get(partition)
            if committed is None:
                return
            if committed > final:
                final = committed
        record.final_timestamp = final
        record.timestamp = final
        record.move_to(Phase.COMMIT)
        self._blocked[Need.COMMIT].pop(dot, None)
        self.order.commit(dot, final)
        # The piggybacked promises typically make it stable at once: check
        # when this delivery scope closes instead of waiting for the next tick.
        self._stability_dirty = True

    # ------------------------------------------------------------------ execution protocol

    def _flush_step(self, now: float) -> None:
        """Batch-delivery scope hook: one stability pass per delivered batch.

        Every handler that may make a timestamp stable (a commit, absorbed
        promises, an ``MStable``) only marks the scope dirty; the check runs
        here, once, when the outermost :meth:`deliver` unwinds — at the same
        simulated instant, coalescing the per-message work of an ``MBatch``.
        """
        if self._stability_dirty:
            self._stability_dirty = False
            self._execute_dirty = False
            self.stability_check(now)
        elif self._execute_dirty:
            self._execute_dirty = False
            self._try_execute(now)

    def _on_promises(self, sender: int, message: MPromises, now: float) -> None:
        """Absorb promises broadcast by a peer (Algorithm 2, line 46)."""
        waiting = self.order.absorb_promises(sender, message, self._commit_known)
        for dot in waiting:
            # The dot's MCommit is pushed here by exactly one sender
            # (coordinator or relaying quorum member), so nothing is asked
            # on the healthy path; if that copy is lost the repair pass
            # pulls it one recovery timeout from now.  The one exception:
            # a recovery-phase record waits on MRec, which committed peers
            # ignore (§B.1) — ask them for the outcome, once.
            self._await_commit(dot, now)
            record = self._info.get(dot)
            if (
                record is not None
                and record.phase in _RECOVERY_PHASES
                and dot not in self._commit_requested
            ):
                self._commit_requested.add(dot)
                self.send(self._other_peers, MCommitRequest(dot), now)
        self._stability_dirty = True

    def _on_commit_request(self, sender: int, message: Message, now: float) -> None:
        """Re-send payload and commit information (Algorithm 6, line 86)."""
        record = self._info.get(message.dot)
        if record is not None and record.is_committed and record.command is not None:
            self._send_commit_info(sender, message.dot, record, now)

    def _send_commit_info(
        self, target: int, dot: Dot, record: CommandInfo, now: float
    ) -> None:
        self.send([target], MPayload(dot, record.command, record.quorums), now)
        final = record.final_timestamp or record.timestamp
        for partition in sorted(record.quorums):
            self.send([target], MCommit(dot, timestamp=final, partition=partition), now)

    def _on_stable(self, sender: int, message: MStable, now: float) -> None:
        """Record a per-partition stability notification (Algorithm 6).

        The execution attempt is deferred to the delivery scope's flush, so
        a batch of MStables costs one heap scan instead of one per
        notification; execution still happens within this very
        event-handling step, in ``(timestamp, id)`` order, at the same
        simulated instant.
        """
        if self.reliability is not None:
            # The cross-partition sender retransmits until acked; ack
            # duplicates too (our earlier ack may itself have been dropped).
            self._ack_delivery(sender, message, now)
        if self.gc.collected(message.dot):
            return  # late duplicate of a globally-executed command
        record = self.info(message.dot)
        if record.phase is Phase.EXECUTE:
            return  # late duplicate: executed here, its stable set released
        record.stable_from.add(message.partition)
        self._execute_dirty = True

    def broadcast_promises(self, now: float = 0.0) -> None:
        """Broadcast newly issued promises to the partition (line 44)."""
        detached, attached = self.order.outgoing()
        if not detached and not attached:
            return
        message = MPromises(self._sentinel(), detached=detached, attached=attached)
        if self._other_peers:
            self.send(self._other_peers, message, now)

    def stability_check(self, now: float = 0.0) -> None:
        """Detect stable timestamps and drive execution (lines 49 & 97): for
        each newly stable command, in ``(timestamp, id)`` order, tell the
        other accessed partitions, record this partition's stability and
        execute what is ready."""
        partition = self.partition
        for dot in self.order.newly_stable():
            record = self._info[dot]
            targets = self._stable_targets_for(record.quorums)
            if targets:
                notification = MStable(dot, partition=partition)
                self.send(targets, notification, now)
                if self.reliability is not None:
                    # The copies carry the PSMR execution rule across
                    # shards: buffer them until acked.
                    self.reliability.track(targets, notification, now)
            record.stable_from.add(partition)
            self._try_execute(now)
        self._try_execute(now)

    def _try_execute(self, now: float) -> None:
        """Execute stable commands in ``(timestamp, id)`` order (Algorithm 6
        loop); a command whose ``MStable`` set is incomplete blocks the ones
        after it (line 102)."""
        info = self._info
        for dot in self.order.executable(lambda dot: info[dot].has_all_stable()):
            self._execute(dot, info[dot], now)

    def _execute(self, dot: Dot, record: CommandInfo, now: float) -> None:
        command = record.command
        if command is None:
            raise RuntimeError(f"executing {dot} without a payload")
        record.move_to(Phase.EXECUTE)
        record.release_commit_state()
        self._execute_command(dot, command, now)

    def _chain_previous(self, command: Command) -> int:
        """This replica executes exactly the commands over its partition."""
        return command.previous(self.partition)

    # ------------------------------------------------------------------ periodic work

    def tick(self, now: float) -> None:
        """Periodic duties: promise broadcast, stability, liveness, recovery."""
        self.broadcast_promises(now)
        self._gc_announce(now)
        self.stability_check(now)
        self._repair_tick(now)
        self._reliability_tick(now)

    # ------------------------------------------------------------------ watermark GC

    def _collect(self, dot: Dot) -> None:
        """Forget ``dot`` entirely: it executed at every partition peer.

        The record itself goes — the watermark predicate
        (:meth:`GcTracker.collected`) takes over duplicate suppression at
        O(1) per message — and the promise this process attached to the
        dot is re-filed as detached: executed everywhere means committed
        everywhere, where the two count alike (``docs/memory.md``).  Memory
        stays proportional to the live command window.
        """
        record = self._info.pop(dot, None)
        assert record is None or record.phase is Phase.EXECUTE, (
            f"collecting {dot} in phase {record.phase}: watermark ran ahead "
            "of local execution"
        )
        self.order.forget(dot)
        self._commit_requested.discard(dot)

    # ------------------------------------------------------------------ introspection

    def memory_footprint(self) -> Dict[str, int]:
        footprint = super().memory_footprint()
        footprint["issued_promises"] = self.order.ledger_size()
        return footprint
