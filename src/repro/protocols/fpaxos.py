"""Flexible Paxos (FPaxos) — the leader-based baseline (§6).

FPaxos is classical Multi-Paxos with the Flexible-Paxos quorum refinement:
during normal operation the leader replicates each command to a phase-2
quorum of only ``f + 1`` processes (instead of a majority), and recovery
would use phase-1 quorums of ``r - f``.

The leader orders commands in a log; every replica applies decided log
slots in order (:class:`SlotLog`).  Clients submit at the closest process,
which forwards the command to the leader — this forwarding is what makes
FPaxos unfair to clients far from the leader (Figure 5) and what makes the
leader the throughput bottleneck (Figure 7).

What a replica keeps
--------------------

* The leader keeps each slot in phase 2 (command and acks) until it is
  decided, and each decided slot until every replica of the partition has
  applied it: it learns that from the executed clocks the replicas
  announce (``MExecutedClock``, :class:`repro.core.gc.WatermarkGcMixin`),
  the way every other protocol learns what executed everywhere.  An applied
  prefix on ``MAccepted`` would only come from the ``f + 1`` acceptors.
* A follower keeps a decided slot only until it applies it, and a command
  minted here only until it executes here.  An acceptor keeps its ballot
  and no accepted value: the value's one reader is phase 1 of a new leader.

What loss strands, the blocked side pulls (:class:`repro.core.repair.PullMixin`,
one window after the item became overdue, ``MRepairRequest``):

* a lost ``MAccept`` or ``MAccepted``: the leader re-sends the undecided
  slot's ``MAccept`` to the quorum members whose ack is missing;
* a lost ``MForward``: the minting replica forwards its command again, and
  the leader drops a command it already ordered;
* a lost ``MDecided``: a follower owed a slot (a decided slot held behind
  it, a command minted here, or a dot a peer's executed clock names) asks
  the leader for every slot it decided past the follower's applied prefix
  and the follower does not hold: each gap below a held slot (naming it)
  and everything past the last one.

Leader failure is handled by re-running phase 1 from a higher ballot; since
the evaluation only exercises a live leader, this implementation keeps a
static leader (rank 0 of the partition by default) and has no failover
(ROADMAP 4(c)): with the leader down, nothing is ordered.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.base import ProcessBase
from repro.core.commands import Command
from repro.core.gc import WatermarkGcMixin
from repro.core.identifiers import Dot
from repro.core.messages import MExecutedClock, MRepairRequest, Need
from repro.core.repair import PullMixin
from repro.protocols.dep_messages import MAccept, MAccepted, MDecided, MForward


class SlotLog:
    """The decided slots a replica holds, applied in slot order.

    The first implementation of the ordering seam (ROADMAP item 22):
    :meth:`commit` files a decided slot, :meth:`advance` returns the
    commands now applicable, :meth:`blockers` names what a held command
    waits for, :meth:`forget` drops an applied slot and :meth:`missing`
    names what is not held past the applied prefix.  ``applied`` is the
    applied prefix: every slot up to it has been handed out by ``advance``.
    """

    __slots__ = ("applied", "_commands", "_slots")

    def __init__(self) -> None:
        self.applied = 0
        #: The held slots: decided, and applied or not.
        self._commands: Dict[int, Command] = {}
        #: The held slots by dot.
        self._slots: Dict[Dot, int] = {}

    def __len__(self) -> int:
        return len(self._commands)

    def __contains__(self, dot: Dot) -> bool:
        return dot in self._slots

    def __iter__(self) -> Iterator[Dot]:
        return iter(self._slots)

    def commit(self, slot: int, command: Command) -> None:
        """File ``command`` as decided at ``slot`` (a repeat is a no-op)."""
        if slot > self.applied and slot not in self._commands:
            self._commands[slot] = command
            self._slots[command.dot] = slot

    def advance(self) -> List[Command]:
        """The commands of the decided slots past the applied prefix, up to
        the first missing slot, in slot order; they count as applied."""
        commands = self._commands
        ready = []
        while self.applied + 1 in commands:
            self.applied += 1
            ready.append(commands[self.applied])
        return ready

    def blockers(self, dot: Dot) -> List[int]:
        """The first missing slot if ``dot`` holds a slot past it, else
        nothing (``dot`` applied, or unknown here)."""
        slot = self._slots.get(dot)
        if slot is None or slot <= self.applied:
            return []
        return [self.applied + 1]

    def forget(self, dot: Dot) -> None:
        """Drop ``dot``'s applied slot, if held."""
        slot = self._slots.pop(dot, None)
        if slot is not None:
            assert slot <= self.applied, f"forgetting {dot} before applying slot {slot}"
            del self._commands[slot]

    def missing(self) -> List[Tuple[int, Optional[Dot]]]:
        """What a replica that forgets each slot it applies (a follower)
        lacks past its applied prefix: each run of missing slots below a
        held one, as ``(the slot before it, the dot of the held slot after
        it)``, then ``(the last held slot, None)`` for whatever was decided
        past it."""
        missing, previous = [], self.applied
        for slot in sorted(self._commands):
            if slot > previous + 1:
                missing.append((previous, self._commands[slot].dot))
            previous = slot
        missing.append((previous, None))
        return missing

    def decided_above(self, slot: int, below: Optional[Dot] = None) -> List[Tuple[int, Command]]:
        """The held slots past ``slot``, and before ``below``'s if it is held
        here, with their commands in slot order: what a replica that lacks
        the slots after ``slot`` (up to the one it holds, ``below``) misses."""
        bound = self._slots.get(below, float("inf"))
        return sorted(item for item in self._commands.items() if slot < item[0] < bound)


class FPaxosProcess(PullMixin, WatermarkGcMixin, ProcessBase):
    """One FPaxos replica (leader or follower)."""

    name = "fpaxos"

    def __init__(self, *args, leader_rank: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.leader_rank = leader_rank
        self.ballot = 1
        # -- leader state: the next slot, and the slots in phase 2
        self._next_slot = 1
        self._proposals: Dict[Dot, Tuple[int, Command, Set[int]]] = {}
        # -- replica state
        self.log = SlotLog()
        #: Commands minted here and forwarded, until they execute here.
        self._forwarded: Dict[Dot, Command] = {}
        self._dispatch: Dict[type, Callable[[int, object, float], None]] = {
            MForward: self._on_forward,
            MAccept: self._on_accept,
            MAccepted: self._on_accepted,
            MDecided: self._on_decided,
            MExecutedClock: self._on_executed_clock,
            MRepairRequest: self._on_repair_request,
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
            self._forwarded[command.dot] = command
            self._await_commit(command.dot, now)
            self.send([self.leader], MForward(command.dot, command), now)

    def _order(self, command: Command, now: float) -> None:
        """Leader: assign the next log slot and run phase 2."""
        slot = self._next_slot
        self._next_slot += 1
        self._proposals[command.dot] = (slot, command, set())
        self._await_commit(command.dot, now)
        self.send(self._phase2_quorum(), MAccept(command.dot, command, slot, self.ballot), now)

    # -- message handling -------------------------------------------------------------

    def _on_forward(self, sender: int, message: MForward, now: float) -> None:
        dot = message.dot
        if dot in self._proposals or dot in self.log or self.gc.collected(dot):
            return  # forwarded again: ordered already
        self._order(message.command, now)

    def _on_accept(self, sender: int, message: MAccept, now: float) -> None:
        if message.ballot < self.ballot:
            return
        self.ballot = message.ballot
        self.send([sender], MAccepted(message.dot, message.slot, message.ballot), now)

    def _on_accepted(self, sender: int, message: MAccepted, now: float) -> None:
        if message.ballot != self.ballot:
            return
        proposal = self._proposals.get(message.dot)
        if proposal is None:  # decided already
            return
        slot, command, acks = proposal
        acks.add(sender)
        if len(acks) < self.config.slow_quorum_size:
            return
        del self._proposals[message.dot]
        self._blocked[Need.COMMIT].pop(message.dot, None)
        self.send(self.partition_peers(), MDecided(command.dot, command, slot), now)

    def _on_decided(self, sender: int, message: MDecided, now: float) -> None:
        self.log.commit(message.slot, message.command)
        self._execute_decided(now)
        if self.log.blockers(message.dot):
            self._await_commit(message.dot, now)

    # -- execution ---------------------------------------------------------------------

    def _execute_decided(self, now: float) -> None:
        """Execute what the log hands out.  A follower forgets each slot it
        applies; the leader keeps it until the watermark passes it."""
        log = self.log
        leader = self.is_leader()
        awaiting = self._blocked[Need.COMMIT]
        for command in log.advance():
            dot = command.dot
            if not leader:
                log.forget(dot)
            awaiting.pop(dot, None)
            self._forwarded.pop(dot, None)
            self._execute_command(dot, command, now)

    def _collect(self, dot: Dot) -> None:
        self.log.forget(dot)

    # -- the pull ----------------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Announce the executed clock, pull what is overdue."""
        self._gc_announce(now)
        self._pull_overdue(now)

    def _on_executed_clock(self, sender: int, message: MExecutedClock, now: float) -> None:
        """Owed here: what a peer executed and this replica has not."""
        chains = self.chains
        self._await_owed(message.clock, lambda dot: dot in chains, now)
        super()._on_executed_clock(sender, message, now)

    def _ask(self, need: Need, dot: Dot, now: float) -> None:
        """The leader re-drives an undecided slot: its ``MAccept`` again, to
        the phase-2 quorum members whose ack is missing.  A follower forwards
        its overdue commands again and asks the leader, once per round, for
        every slot past its applied prefix that it does not hold: each gap
        below a held slot, and everything past the last one."""
        if self.is_leader():
            proposal = self._proposals.get(dot)
            if proposal is not None:
                slot, command, acks = proposal
                targets = [peer for peer in self._phase2_quorum() if peer not in acks]
                self.send(targets, MAccept(dot, command, slot, self.ballot), now)
            return
        window = self.config.recovery_timeout
        for other, entry in self._blocked[need].items():
            if now - entry[0] >= window:
                entry[1] = now
                command = self._forwarded.get(other)
                if command is not None:
                    self.send([self.leader], MForward(other, command), now)
        for previous, held in self.log.missing():
            if held is None:
                request = MRepairRequest(dot, need, previous)
            else:
                request = MRepairRequest(held, Need.PROMISES, previous)
            self.send([self.leader], request, now)

    def _on_repair_request(self, sender: int, message: MRepairRequest, now: float) -> None:
        """Answer with every slot held past ``frontier``; for a gap
        (``PROMISES``, see :class:`Need`), only those below the named dot's,
        which the requester holds."""
        below = message.dot if message.need == Need.PROMISES else None
        for slot, command in self.log.decided_above(message.frontier, below):
            self.send([sender], MDecided(command.dot, command, slot), now)

    # -- introspection -------------------------------------------------------------------

    def pending_dots(self) -> List[Dot]:
        """The leader's slots in phase 2, the commands minted here and not
        executed, and the decided slots held behind a missing one."""
        log = self.log
        pending = [*self._proposals, *self._forwarded]
        pending += [dot for dot in log if log.blockers(dot) and dot not in self._forwarded]
        return pending

    def memory_footprint(self) -> Dict[str, int]:
        footprint = super().memory_footprint()
        footprint["records"] = len(self.log) + len(self._proposals) + len(self._forwarded)
        return footprint
