"""Messages used by the dependency-based protocols (EPaxos, Atlas, Janus*)
and by Caesar.

They mirror the structure of the Tempo messages in
:mod:`repro.core.messages`: each class is its one wire declaration — its
kind byte in :func:`~repro.core.wireschema.wire_schema`, each field's wire
type in its annotation — from which its codec and its exact
``size_bytes()`` are generated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import Message
from repro.core.wireschema import DotSet, Svarint, TsPair, WireCommand, wire_schema


@wire_schema(17)
@dataclass(frozen=True)
class MPreAccept(Message):
    """Coordinator -> fast quorum: command plus initial dependencies."""

    command: WireCommand
    dependencies: DotSet
    sequence: Svarint = 0


@wire_schema(18)
@dataclass(frozen=True)
class MPreAcceptAck(Message):
    """Fast-quorum member -> coordinator: possibly extended dependencies."""

    dependencies: DotSet
    sequence: Svarint = 0


@wire_schema(19)
@dataclass(frozen=True)
class MDepAccept(Message):
    """Slow-path phase-2 message carrying the union of dependencies."""

    command: WireCommand
    dependencies: DotSet
    sequence: Svarint
    ballot: Svarint


@wire_schema(20)
@dataclass(frozen=True)
class MDepAcceptAck(Message):
    """Acceptance of a slow-path proposal."""

    ballot: Svarint


@wire_schema(21)
@dataclass(frozen=True)
class MDepCommit(Message):
    """Commit notification with the final dependencies; also a peer's
    answer to a ``COMMIT`` ``MRepairRequest``."""

    command: WireCommand
    dependencies: DotSet
    sequence: Svarint = 0


# -- Caesar ---------------------------------------------------------------------


@wire_schema(22)
@dataclass(frozen=True)
class MCaesarPropose(Message):
    """Coordinator -> fast quorum: command plus a unique timestamp proposal."""

    command: WireCommand
    timestamp: TsPair


@wire_schema(23)
@dataclass(frozen=True)
class MCaesarProposeAck(Message):
    """Reply to a Caesar proposal, sent only after the wait condition clears:
    the conflicting commands the sender knows with a smaller timestamp.  The
    proposal's timestamp is not echoed — the coordinator holds it under
    ``dot``, and no replica rejects (``protocols/caesar.py``)."""

    dependencies: DotSet


@wire_schema(26)
@dataclass(frozen=True)
class MCaesarCommit(Message):
    """Commit with final timestamp and dependencies."""

    command: WireCommand
    timestamp: TsPair
    dependencies: DotSet


# -- FPaxos -----------------------------------------------------------------------


@wire_schema(27)
@dataclass(frozen=True)
class MForward(Message):
    """Non-leader -> leader: forward a client command."""

    command: WireCommand


@wire_schema(28)
@dataclass(frozen=True)
class MAccept(Message):
    """Leader -> phase-2 quorum: ordered command at a log slot."""

    command: WireCommand
    slot: Svarint
    ballot: Svarint


@wire_schema(29)
@dataclass(frozen=True)
class MAccepted(Message):
    """Acceptor -> leader: slot accepted."""

    slot: Svarint
    ballot: Svarint


@wire_schema(30)
@dataclass(frozen=True)
class MDecided(Message):
    """Leader -> everyone: slot decided."""

    command: WireCommand
    slot: Svarint
