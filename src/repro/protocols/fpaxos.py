"""Flexible Paxos (FPaxos) — the leader-based baseline (§6).

FPaxos is classical Multi-Paxos with the Flexible-Paxos quorum refinement:
during normal operation the leader replicates each command to a phase-2
quorum of only ``f + 1`` processes (instead of a majority), and recovery
would use phase-1 quorums of ``r - f``.

The leader orders commands in a log; followers apply decided log slots in
order.  Clients submit at the closest process, which forwards the command to
the leader — this forwarding is what makes FPaxos unfair to clients far from
the leader (Figure 5) and what makes the leader the throughput bottleneck
(Figure 7).

Leader failure is handled by re-running phase 1 from a higher ballot; since
the evaluation only exercises the failure-free path, this implementation
keeps a static leader (rank 0 of the partition by default).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

from repro.core.base import ProcessBase
from repro.core.commands import Command
from repro.core.identifiers import Dot
from repro.protocols.dep_messages import MAccept, MAccepted, MDecided, MForward


class FPaxosProcess(ProcessBase):
    """One FPaxos replica (leader or follower)."""

    name = "fpaxos"

    def __init__(self, *args, leader_rank: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.leader_rank = leader_rank
        self.ballot = 1
        # -- leader state: the slots proposed and not yet decided
        self._next_slot = 1
        self._accept_acks: Dict[int, Set[int]] = {}
        self._proposals: Dict[int, Command] = {}
        # -- replica state
        #: Commands accepted in phase 2 (not necessarily decided yet).
        self._accepted_log: Dict[int, Command] = {}
        #: Commands known to be decided, applied in slot order.
        self._decided_log: Dict[int, Command] = {}
        self._applied_up_to = 0
        self._dispatch: Dict[type, Callable[[int, object, float], None]] = {
            MForward: self._on_forward,
            MAccept: self._on_accept,
            MAccepted: self._on_accepted,
            MDecided: self._on_decided,
        }

    # -- roles ------------------------------------------------------------------

    @property
    def leader(self) -> int:
        """Global identifier of the partition leader."""
        return (
            self.partition * self.config.num_processes + self.leader_rank
        )

    def is_leader(self) -> bool:
        return self.process_id == self.leader

    # -- helpers -----------------------------------------------------------------

    def _phase2_quorum(self) -> List[int]:
        """The ``f + 1`` closest unsuspected processes including the leader."""
        return self.quorum_system.closest(
            self.process_id, self.config.slow_quorum_size, self.suspected
        )

    # -- submission ----------------------------------------------------------------

    def submit(self, command: Command, now: float = 0.0) -> None:
        """Submit a command; non-leaders forward it to the leader."""
        self._check_minted_here(command)
        if self.is_leader():
            self._order(command, now)
        else:
            self.send([self.leader], MForward(command.dot, command), now)

    def _order(self, command: Command, now: float) -> None:
        """Leader: assign the next log slot and run phase 2."""
        slot = self._next_slot
        self._next_slot += 1
        self._proposals[slot] = command
        self._accept_acks[slot] = set()
        self.send(self._phase2_quorum(), MAccept(command.dot, command, slot, self.ballot), now)

    # -- message handling -------------------------------------------------------------

    def _on_forward(self, sender: int, message: MForward, now: float) -> None:
        if not self.is_leader():
            # Forward again in case the leader changed.
            self.send([self.leader], message, now)
            return
        self._order(message.command, now)

    def _on_accept(self, sender: int, message: MAccept, now: float) -> None:
        if message.ballot < self.ballot:
            return
        self.ballot = message.ballot
        self._accepted_log[message.slot] = message.command
        self.send([sender], MAccepted(message.dot, message.slot, message.ballot), now)

    def _on_accepted(self, sender: int, message: MAccepted, now: float) -> None:
        if not self.is_leader() or message.ballot != self.ballot:
            return
        acks = self._accept_acks.get(message.slot)
        if acks is None:  # decided already
            return
        acks.add(sender)
        if len(acks) < self.config.slow_quorum_size:
            return
        del self._accept_acks[message.slot]
        command = self._proposals.pop(message.slot)
        decided = MDecided(command.dot, command, message.slot)
        self.send(self.partition_peers(), decided, now)

    def _on_decided(self, sender: int, message: MDecided, now: float) -> None:
        self._decided_log[message.slot] = message.command
        self._apply_contiguous(now)

    # -- execution ---------------------------------------------------------------------

    def _apply_contiguous(self, now: float) -> None:
        """Apply decided slots in order as long as the decided log is
        contiguous (followers apply in the leader-chosen total order)."""
        while (self._applied_up_to + 1) in self._decided_log:
            slot = self._applied_up_to + 1
            command = self._decided_log[slot]
            self._applied_up_to = slot
            self._execute_command(command.dot, command, now)

    # -- introspection -------------------------------------------------------------------

    def pending_dots(self) -> List[Dot]:
        """The dots of the slots accepted or decided here and not applied
        (a slot lost for good stalls every slot after it)."""
        pending = {**self._accepted_log, **self._decided_log}
        applied = self._applied_up_to
        return [pending[slot].dot for slot in sorted(pending) if slot > applied]

    def log_length(self) -> int:
        """Number of decided slots known to this process."""
        return len(self._decided_log)

    def applied_up_to(self) -> int:
        return self._applied_up_to
