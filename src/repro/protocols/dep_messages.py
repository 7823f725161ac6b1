"""Messages used by the dependency-based protocols (EPaxos, Atlas, Janus*)
and by Caesar.

They mirror the structure of the Tempo messages in
:mod:`repro.core.messages`: each class declares its wire body once with
:func:`~repro.core.wireschema.wire_schema`, which generates its codec and
its exact ``size_bytes()`` for the resource model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.core.commands import Command
from repro.core.identifiers import Dot
from repro.core.messages import Message
from repro.core.wireschema import (
    BOOL,
    COMMAND,
    DOT_SET,
    SVARINT,
    TS_PAIR,
    UVARINT,
    wire_schema,
)


@wire_schema(("command", COMMAND), ("dependencies", DOT_SET), ("sequence", SVARINT))
@dataclass(frozen=True)
class MPreAccept(Message):
    """Coordinator -> fast quorum: command plus initial dependencies."""

    command: Command
    dependencies: FrozenSet[Dot]
    sequence: int = 0


@wire_schema(("dependencies", DOT_SET), ("sequence", SVARINT))
@dataclass(frozen=True)
class MPreAcceptAck(Message):
    """Fast-quorum member -> coordinator: possibly extended dependencies."""

    dependencies: FrozenSet[Dot]
    sequence: int = 0


@wire_schema(
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


@wire_schema(("ballot", SVARINT))
@dataclass(frozen=True)
class MDepAcceptAck(Message):
    """Acceptance of a slow-path proposal."""

    ballot: int


@wire_schema(
    ("command", COMMAND),
    ("dependencies", DOT_SET),
    ("sequence", SVARINT),
    ("shard", UVARINT),
)
@dataclass(frozen=True)
class MDepCommit(Message):
    """Commit notification with the final dependencies."""

    command: Command
    dependencies: FrozenSet[Dot]
    sequence: int = 0
    shard: int = 0


# -- Caesar ---------------------------------------------------------------------


@wire_schema(("command", COMMAND), ("timestamp", TS_PAIR))
@dataclass(frozen=True)
class MCaesarPropose(Message):
    """Coordinator -> fast quorum: command plus a unique timestamp proposal."""

    command: Command
    timestamp: Tuple[int, int]


@wire_schema(("timestamp", TS_PAIR), ("dependencies", DOT_SET), ("accepted", BOOL))
@dataclass(frozen=True)
class MCaesarProposeAck(Message):
    """Reply to a Caesar proposal, sent only after the wait condition clears."""

    timestamp: Tuple[int, int]
    dependencies: FrozenSet[Dot]
    accepted: bool = True


@wire_schema(("command", COMMAND), ("timestamp", TS_PAIR), ("dependencies", DOT_SET))
@dataclass(frozen=True)
class MCaesarRetry(Message):
    """Coordinator -> replicas: retry with a higher timestamp (slow path)."""

    command: Command
    timestamp: Tuple[int, int]
    dependencies: FrozenSet[Dot]


@wire_schema(("timestamp", TS_PAIR), ("dependencies", DOT_SET))
@dataclass(frozen=True)
class MCaesarRetryAck(Message):
    """Acknowledgement of a retry."""

    timestamp: Tuple[int, int]
    dependencies: FrozenSet[Dot]


@wire_schema(("command", COMMAND), ("timestamp", TS_PAIR), ("dependencies", DOT_SET))
@dataclass(frozen=True)
class MCaesarCommit(Message):
    """Commit with final timestamp and dependencies."""

    command: Command
    timestamp: Tuple[int, int]
    dependencies: FrozenSet[Dot]


# -- FPaxos -----------------------------------------------------------------------


@wire_schema(("command", COMMAND))
@dataclass(frozen=True)
class MForward(Message):
    """Non-leader -> leader: forward a client command."""

    command: Command


@wire_schema(("command", COMMAND), ("slot", SVARINT), ("ballot", SVARINT))
@dataclass(frozen=True)
class MAccept(Message):
    """Leader -> phase-2 quorum: ordered command at a log slot."""

    command: Command
    slot: int
    ballot: int


@wire_schema(("slot", SVARINT), ("ballot", SVARINT))
@dataclass(frozen=True)
class MAccepted(Message):
    """Acceptor -> leader: slot accepted."""

    slot: int
    ballot: int


@wire_schema(("command", COMMAND), ("slot", SVARINT))
@dataclass(frozen=True)
class MDecided(Message):
    """Leader -> everyone: slot decided."""

    command: Command
    slot: int


# -- Janus* -------------------------------------------------------------------------


@wire_schema(("shard", UVARINT), ("dependencies", DOT_SET))
@dataclass(frozen=True)
class MJanusDeps(Message):
    """Per-shard coordinator -> submitting coordinator: this shard's deps."""

    shard: int
    dependencies: FrozenSet[Dot]


#: All baseline-protocol message classes, mirroring ``TEMPO_MESSAGE_TYPES``:
#: dispatch tables, the wire-codec exhaustiveness gate and tests walk this.
DEP_MESSAGE_TYPES = (
    MPreAccept,
    MPreAcceptAck,
    MDepAccept,
    MDepAcceptAck,
    MDepCommit,
    MCaesarPropose,
    MCaesarProposeAck,
    MCaesarRetry,
    MCaesarRetryAck,
    MCaesarCommit,
    MForward,
    MAccept,
    MAccepted,
    MDecided,
    MJanusDeps,
)
