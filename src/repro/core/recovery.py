"""Tempo recovery protocol (Algorithm 4) and liveness mechanisms (§B).

Implemented as a mixin used by :class:`repro.core.process.TempoProcess`.
The mixin assumes the host class provides the attributes created by
``TempoProcess.__init__`` (``_info``, ``order``, quorum system, ``send``
...).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.identifiers import Dot
from repro.core.messages import (
    MConsensus,
    MRec,
    MRecAck,
    MRecNAck,
)
from repro.core.phases import Phase


class RecoveryMixin:
    """Recovery (new-coordinator) handlers for Tempo."""

    # -- ballot arithmetic -----------------------------------------------------

    def _own_ballot(self) -> int:
        """Ballot reserved for this process as an *initial* coordinator."""
        return self.config.rank_in_partition(self.process_id) + 1

    def _next_recovery_ballot(self, current: int) -> int:
        """Smallest ballot owned by this process that is greater than both
        ``current`` and ``r`` (recovery ballots are always above ``r``)."""
        rank = self.config.rank_in_partition(self.process_id)
        r = self.config.num_processes
        ballot = rank + 1 + r
        while ballot <= current:
            ballot += r
        return ballot

    # -- recovery entry point -----------------------------------------------------

    def recover(self, dot: Dot, now: float = 0.0) -> None:
        """Take over as coordinator of ``dot`` (Algorithm 4, line 72)."""
        info = self._info.get(dot)
        if info is None or not info.is_pending:
            return
        ballot = self._next_recovery_ballot(info.ballot)
        info.recovery_acks_at(ballot)
        self.send(self.partition_peers(), MRec(dot, ballot), now)

    def _should_attempt_recovery(self, dot: Dot) -> bool:
        """Whether this process should call :meth:`recover` for ``dot``:
        only the partition leader recovers (§B.1).

        The repair pass asks once per recovery-timeout window per dot, so
        the leader takes over a ballot another process started and
        re-attempts a stalled one of its own — the ``MRec`` broadcast may
        have been lost — at that same bounded rate.
        """
        info = self._info.get(dot)
        if info is None or not info.is_pending:
            return False
        return self.leader_of_partition() == self.process_id

    # -- handlers -------------------------------------------------------------------

    def _on_rec(self, sender: int, message: MRec, now: float) -> None:
        """Handle ``MRec`` (Algorithm 4, line 76)."""
        dot = message.dot
        info = self._info.get(dot)
        if info is None or not info.is_pending:
            # A committed/executed process ignores MRec (§B.1); the requester
            # learns the outcome through the repair pass, whose
            # MRepairRequest(Need.COMMIT) always runs (repair.py,
            # ``_ask_for_commit``), or the recovery phase's one-shot
            # MCommitRequest (``_on_promises``).
            return
        if info.ballot >= message.ballot:
            self.send([sender], MRecNAck(dot, info.ballot), now)
            return
        if info.ballot == 0:
            if info.phase is Phase.PAYLOAD:
                info.timestamp, _ = self.order.propose(dot, 0)
                info.move_to(Phase.RECOVER_R)
            elif info.phase is Phase.PROPOSE:
                info.move_to(Phase.RECOVER_P)
        info.ballot = message.ballot
        reply = MRecAck(
            dot,
            timestamp=info.timestamp,
            phase=info.phase,
            accepted_ballot=info.accepted_ballot,
            ballot=message.ballot,
        )
        self.send([sender], reply, now)

    def _on_rec_ack(self, sender: int, message: MRecAck, now: float) -> None:
        """Handle ``MRecAck`` (Algorithm 4, line 86)."""
        dot = message.dot
        info = self._info.get(dot)
        if info is None or not info.is_pending:
            return
        acks = info.recovery_acks_at(message.ballot)
        acks[sender] = (message.timestamp, message.phase, message.accepted_ballot)
        if len(acks) < self.config.recovery_quorum_size:
            return
        if info.ballot != message.ballot:
            return
        proposal = self._recovery_consensus_value(dot, info, acks)
        self.send(
            self.partition_peers(), MConsensus(dot, proposal, message.ballot), now
        )

    def _recovery_consensus_value(
        self,
        dot: Dot,
        info,
        acks: Dict[int, Tuple[int, Phase, int]],
    ) -> int:
        """Compute the timestamp the new coordinator proposes in consensus."""
        accepted = {
            process: (timestamp, accepted_ballot)
            for process, (timestamp, _, accepted_ballot) in acks.items()
            if accepted_ballot != 0
        }
        if accepted:
            # Standard Paxos rule: adopt the value accepted at the highest
            # ballot (Algorithm 4, lines 88-90).
            _, (timestamp, _) = max(
                accepted.items(), key=lambda item: (item[1][1], item[0])
            )
            return timestamp
        fast_quorum = set(info.quorums.get(self.partition, ()))
        intersection = set(acks) & fast_quorum
        initial = dot.initial_coordinator()
        initial_replied = initial in intersection
        any_recover_r = any(
            acks[process][1] is Phase.RECOVER_R for process in intersection
        )
        if initial_replied or any_recover_r:
            # The initial coordinator cannot have taken the fast path: any
            # majority-respecting max works (Algorithm 4, case 1).
            candidates = set(acks)
        else:
            # The fast path may have been taken: recompute its timestamp from
            # the surviving fast-quorum members (Algorithm 4, case 2,
            # Property 4).
            candidates = intersection
        if not candidates:
            candidates = set(acks)
        return max(acks[process][0] for process in candidates)

    def _on_rec_nack(self, sender: int, message: MRecNAck, now: float) -> None:
        """Handle ``MRecNAck`` (Algorithm 6, line 82)."""
        dot = message.dot
        info = self._info.get(dot)
        if info is None:
            return
        if self.leader_of_partition() != self.process_id:
            return
        if info.ballot >= message.ballot:
            return
        info.ballot = message.ballot
        self.recover(dot, now)
