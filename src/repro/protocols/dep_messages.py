"""Messages used by the dependency-based protocols (EPaxos, Atlas, Janus*)
and by Caesar.

They mirror the structure of the Tempo messages in
:mod:`repro.core.messages`: each class declares its kind byte and wire body
once with :func:`~repro.core.wireschema.wire_schema`, which generates its
codec and its exact ``size_bytes()`` for the resource model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.core.commands import Command
from repro.core.identifiers import Dot
from repro.core.messages import Message
from repro.core.wireschema import (
    COMMAND,
    DOT_SET,
    SVARINT,
    TS_PAIR,
    wire_schema,
)


@wire_schema(17, ("command", COMMAND), ("dependencies", DOT_SET), ("sequence", SVARINT))
@dataclass(frozen=True)
class MPreAccept(Message):
    """Coordinator -> fast quorum: command plus initial dependencies."""

    command: Command
    dependencies: FrozenSet[Dot]
    sequence: int = 0


@wire_schema(18, ("dependencies", DOT_SET), ("sequence", SVARINT))
@dataclass(frozen=True)
class MPreAcceptAck(Message):
    """Fast-quorum member -> coordinator: possibly extended dependencies."""

    dependencies: FrozenSet[Dot]
    sequence: int = 0


@wire_schema(
    19,
    ("command", COMMAND),
    ("dependencies", DOT_SET),
    ("sequence", SVARINT),
    ("ballot", SVARINT),
)
@dataclass(frozen=True)
class MDepAccept(Message):
    """Slow-path phase-2 message carrying the union of dependencies."""

    command: Command
    dependencies: FrozenSet[Dot]
    sequence: int
    ballot: int


@wire_schema(20, ("ballot", SVARINT))
@dataclass(frozen=True)
class MDepAcceptAck(Message):
    """Acceptance of a slow-path proposal."""

    ballot: int


@wire_schema(21, ("command", COMMAND), ("dependencies", DOT_SET), ("sequence", SVARINT))
@dataclass(frozen=True)
class MDepCommit(Message):
    """Commit notification with the final dependencies."""

    command: Command
    dependencies: FrozenSet[Dot]
    sequence: int = 0


# -- Caesar ---------------------------------------------------------------------


@wire_schema(22, ("command", COMMAND), ("timestamp", TS_PAIR))
@dataclass(frozen=True)
class MCaesarPropose(Message):
    """Coordinator -> fast quorum: command plus a unique timestamp proposal."""

    command: Command
    timestamp: Tuple[int, int]


@wire_schema(23, ("dependencies", DOT_SET))
@dataclass(frozen=True)
class MCaesarProposeAck(Message):
    """Reply to a Caesar proposal, sent only after the wait condition clears:
    the conflicting commands the sender knows with a smaller timestamp.  The
    proposal's timestamp is not echoed — the coordinator holds it under
    ``dot``, and no replica rejects (``protocols/caesar.py``)."""

    dependencies: FrozenSet[Dot]


@wire_schema(26, ("command", COMMAND), ("timestamp", TS_PAIR), ("dependencies", DOT_SET))
@dataclass(frozen=True)
class MCaesarCommit(Message):
    """Commit with final timestamp and dependencies."""

    command: Command
    timestamp: Tuple[int, int]
    dependencies: FrozenSet[Dot]


# -- FPaxos -----------------------------------------------------------------------


@wire_schema(27, ("command", COMMAND))
@dataclass(frozen=True)
class MForward(Message):
    """Non-leader -> leader: forward a client command."""

    command: Command


@wire_schema(28, ("command", COMMAND), ("slot", SVARINT), ("ballot", SVARINT))
@dataclass(frozen=True)
class MAccept(Message):
    """Leader -> phase-2 quorum: ordered command at a log slot."""

    command: Command
    slot: int
    ballot: int


@wire_schema(29, ("slot", SVARINT), ("ballot", SVARINT))
@dataclass(frozen=True)
class MAccepted(Message):
    """Acceptor -> leader: slot accepted."""

    slot: int
    ballot: int


@wire_schema(30, ("command", COMMAND), ("slot", SVARINT))
@dataclass(frozen=True)
class MDecided(Message):
    """Leader -> everyone: slot decided."""

    command: Command
    slot: int
