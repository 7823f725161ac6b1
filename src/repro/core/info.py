"""Per-command bookkeeping kept by a Tempo process.

One :class:`CommandInfo` record exists per command identifier seen by a
process.  It aggregates the variables the pseudocode indexes by identifier:
``cmd``, ``quorums``, ``phase``, ``ts``, ``bal``, ``abal`` plus the
coordinator-side and execution-side bookkeeping (proposal acks, consensus
acks, per-partition commits and MStable notifications).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.commands import Command
from repro.core.phases import InvalidPhaseTransition, Phase
from repro.core.promises import PromiseRangeWire, RangeCollector


@dataclass(slots=True)
class CommandInfo:
    """All per-identifier state at a single process.

    ``slots=True``: one record exists per command per process and every
    per-message handler reads several fields, so slot access (and the
    dict-free instantiation) is measurable on the simulator hot path.
    """

    command: Optional[Command] = None
    #: The fast quorum per accessed partition (``Q``): the map the command's
    #: message carried, shared with every record built from it, so never
    #: mutated.
    quorums: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    phase: Phase = Phase.START
    #: Local timestamp: the process's own proposal before commit, the
    #: partition's committed timestamp after consensus, and the command's
    #: final timestamp once the command reaches the commit phase.
    timestamp: int = 0
    ballot: int = 0
    accepted_ballot: int = 0

    # -- coordinator-side state -------------------------------------------------
    #: ``process -> proposed timestamp`` from the collected MProposeAcks —
    #: which is also the attached promise ``<process, timestamp>`` each ack
    #: stands for, so the MCommit piggyback ships this map as it is.
    proposals: Dict[int, int] = field(default_factory=dict)
    #: Detached promises piggybacked on the collected MProposeAcks, kept as
    #: per-process ranges; built by the first ack that carries any.
    collected_detached: Optional[RangeCollector] = None
    #: ``ballot -> acceptors`` (slow path), built by the first MConsensusAck.
    consensus_acks: Optional[Dict[int, Set[int]]] = None
    #: ``ballot -> process -> (timestamp, phase, accepted ballot)``, built
    #: when a recovery starts.
    recovery_acks: Optional[Dict[int, Dict[int, Tuple[int, Phase, int]]]] = None

    # -- commit/execution-side state ---------------------------------------------
    partition_commits: Dict[int, int] = field(default_factory=dict)
    final_timestamp: Optional[int] = None
    #: The accessed partitions known stable for the command: this one's
    #: from the local stability check, the others' from their MStable.
    stable_from: Set[int] = field(default_factory=set)

    def release_commit_state(self) -> None:
        """Drop what only the commit protocol reads, once the command has
        executed: the record then lives on (until the watermark GC collects
        it) for duplicate suppression and repair replies alone, which need
        ``command``, ``quorums``, ``final_timestamp`` and ``phase``.  No
        handler reaches the released containers past the pending phases: a
        late ``MCommit`` or ``MStable`` for an executed record stops at its
        phase (``docs/memory.md``)."""
        self.proposals = None
        self.collected_detached = None
        self.consensus_acks = None
        self.recovery_acks = None
        self.partition_commits = None
        self.stable_from = None

    def collect_detached(self, wire: PromiseRangeWire) -> None:
        """Merge the detached promises one MProposeAck carried."""
        if self.collected_detached is None:
            self.collected_detached = RangeCollector()
        self.collected_detached.update(wire)

    def detached_wire(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """Wire form of :attr:`collected_detached` (empty before any)."""
        collected = self.collected_detached
        return collected.to_wire() if collected is not None else {}

    def consensus_acks_at(self, ballot: int) -> Set[int]:
        """The acceptors of ``ballot`` so far."""
        if self.consensus_acks is None:
            self.consensus_acks = {}
        return self.consensus_acks.setdefault(ballot, set())

    def recovery_acks_at(self, ballot: int) -> Dict[int, Tuple[int, Phase, int]]:
        """The MRecAcks of ``ballot`` so far, by sender."""
        if self.recovery_acks is None:
            self.recovery_acks = {}
        return self.recovery_acks.setdefault(ballot, {})

    def move_to(self, new_phase: Phase) -> None:
        """Transition to ``new_phase``, enforcing Figure 1.

        A move to the current phase is a no-op; any other move not in
        Figure 1 raises :class:`InvalidPhaseTransition`.
        """
        phase = self.phase
        if phase is new_phase:
            return
        if new_phase in phase._allowed_next:
            self.phase = new_phase
        else:
            raise InvalidPhaseTransition(phase, new_phase)

    @property
    def is_pending(self) -> bool:
        # Reads the membership flag stamped onto each Phase member: the
        # pending set is defined in exactly one place (phases.py).
        return self.phase._is_pending

    @property
    def is_committed(self) -> bool:
        phase = self.phase
        return phase is Phase.COMMIT or phase is Phase.EXECUTE

    def has_all_stable(self) -> bool:
        """Whether every accessed partition is known stable."""
        quorums = self.quorums
        if not quorums:
            return False
        stable_from = self.stable_from
        for partition in quorums:
            if partition not in stable_from:
                return False
        return True
