"""Tempo protocol messages.

Every message of Algorithms 1-6 is a frozen dataclass that is its own wire
declaration: a :func:`~repro.core.wireschema.wire_schema` decorator gives
its append-only kind byte, and each field's annotation names its wire type
(``timestamp: Svarint``).  From the class :mod:`repro.wire.codecs`
registers the kind and the decorator generates the body codec
:mod:`repro.wire` frames and ``size_bytes()`` — the exact length of the
encoded frame, which is what the resource/throughput model charges against
the NIC budget — so the accounted size and the shipped bytes cannot
disagree.

Naming follows the paper: ``MSubmit``, ``MPropose``, ``MProposeAck``,
``MPayload``, ``MCommit``, ``MConsensus``, ``MConsensusAck``, ``MBump``,
``MPromises``, ``MStable``, ``MRec``, ``MRecAck``, ``MRecNAck`` and
``MCommitRequest``; ``MRepairRequest`` and ``MExecutedClock`` are
implementation liveness/GC additions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from repro.core.wireschema import (
    AttachedMap,
    ClockMap,
    PhaseByte,
    PromiseRanges,
    QuorumMap,
    ReplyResult,
    Svarint,
    TimestampMap,
    Uvarint,
    WireCommand,
    WireDot,
    wire_schema,
)


@dataclass(frozen=True)
class Message:
    """Base class for all protocol messages.

    A concrete kind declares itself once, on its class: :func:`wire_schema`
    names its append-only kind byte, the annotations its fields' wire
    types, from which ``size_bytes()`` — the exact serialized frame size
    used by the resource model — and the body codec are generated.
    """

    dot: WireDot

    def wire_size(self) -> int:
        """:meth:`size_bytes` memoised per instance.

        Messages are immutable, so the frame size is computed once and
        reused; the network charges broadcasts through this, so a message
        fanned out to many destinations pays the size arithmetic once.
        """
        cached = self.__dict__.get("_wire_size")
        if cached is None:
            cached = self.size_bytes()
            self.__dict__["_wire_size"] = cached
        return cached

    @property
    def kind(self) -> str:
        """Short message-kind name (the class name)."""
        return type(self).__name__


@wire_schema(1)
@dataclass(frozen=True)
class MSubmit(Message):
    """Client-facing submission forwarded to the per-partition coordinators."""

    command: WireCommand
    quorums: QuorumMap = field(default_factory=dict)


@wire_schema(2)
@dataclass(frozen=True)
class MPropose(Message):
    """Coordinator -> fast quorum: carry the payload and a timestamp proposal."""

    command: WireCommand
    quorums: QuorumMap
    timestamp: Svarint


@wire_schema(3)
@dataclass(frozen=True)
class MProposeAck(Message):
    """Fast-quorum process -> coordinator: timestamp proposal (plus the
    promises issued while computing it, piggybacked as in §3.2).

    The attached promise is not a field: it is ``<sender, timestamp>`` of
    this very ack, which the receiver files under ``proposals[sender]``.
    ``detached`` is range-encoded (``PromiseRangeWire``): the proposal's
    clock jump issues one contiguous run of detached promises, so the ack
    carries ``{sender: ((lo, hi),)}``.
    """

    timestamp: Svarint
    detached: PromiseRanges = field(default_factory=dict)


@wire_schema(4)
@dataclass(frozen=True)
class MPayload(Message):
    """Coordinator -> processes outside the fast quorum: payload only."""

    command: WireCommand
    quorums: QuorumMap


@wire_schema(5)
@dataclass(frozen=True)
class MCommit(Message):
    """Commit notification with the (per-partition) committed timestamp.

    The piggybacked promises are what the fast quorum issued while
    proposing: ``attached`` is the coordinator's ``process -> proposed
    timestamp`` map (one attached promise per quorum member), ``detached``
    everything the members skipped, range-encoded per issuing process
    (``PromiseRangeWire``).
    """

    timestamp: Svarint
    partition: Uvarint = 0
    attached: TimestampMap = field(default_factory=dict)
    detached: PromiseRanges = field(default_factory=dict)


@wire_schema(6)
@dataclass(frozen=True)
class MConsensus(Message):
    """Flexible-Paxos phase-2 message on the slow path / during recovery."""

    timestamp: Svarint
    ballot: Svarint


@wire_schema(7)
@dataclass(frozen=True)
class MConsensusAck(Message):
    """Acceptance of an :class:`MConsensus` proposal."""

    ballot: Svarint


@wire_schema(8)
@dataclass(frozen=True)
class MBump(Message):
    """Fast-quorum process -> co-located replicas of the other partitions:
    bump their clocks to this proposal (multi-partition optimisation, §4)."""

    timestamp: Svarint


@wire_schema(9)
@dataclass(frozen=True)
class MPromises(Message):
    """Periodic broadcast of issued promises (Algorithm 2, line 45).

    ``dot`` is unused for this message kind (promises are not tied to one
    command); a sentinel dot identifying the sender is used instead.

    A process only ever broadcasts its own promises, so the issuer is the
    sender and is not repeated per promise: ``attached`` maps each dot to
    the ascending timestamps the sender attached to it.  ``detached`` is
    range-encoded (``PromiseRangeWire``): detached promises are issued by
    clock jumps and therefore arrive as contiguous runs, so the broadcast
    carries ``(lo, hi)`` intervals straight from the sender's tracker.
    """

    detached: PromiseRanges = field(default_factory=dict)
    attached: AttachedMap = field(default_factory=dict)


@wire_schema(10)
@dataclass(frozen=True)
class MStable(Message):
    """Per-partition stability notification for a multi-partition command."""

    partition: Uvarint = 0


@wire_schema(11)
@dataclass(frozen=True)
class MRec(Message):
    """Recovery phase-1 message (Algorithm 4)."""

    ballot: Svarint


@wire_schema(12)
@dataclass(frozen=True)
class MRecAck(Message):
    """Reply to :class:`MRec` carrying the local timestamp, phase and the
    ballot at which a consensus value was last accepted."""

    timestamp: Svarint
    phase: PhaseByte
    accepted_ballot: Svarint
    ballot: Svarint


@wire_schema(13)
@dataclass(frozen=True)
class MRecNAck(Message):
    """Negative acknowledgement telling the recovering leader to retry with a
    higher ballot (Algorithm 6, liveness mechanism)."""

    ballot: Svarint


@wire_schema(14)
@dataclass(frozen=True)
class MCommitRequest(Message):
    """Ask a process that already committed ``dot`` to re-send its payload
    and commit information (Algorithm 6, liveness mechanism)."""


@wire_schema(33)
@dataclass(frozen=True)
class MExecutedClock(Message):
    """Periodic globally-executed watermark exchange (epoch-2 GC).

    ``clock`` maps each source to the sender's executed frontier ``n`` for
    it: every dot of the source's chain at the partition up to ``n`` has
    executed at the sender (``repro.core.gc``).  Each process takes, per
    source, the minimum frontier announced by *all* partition peers (itself
    included) as the globally-executed watermark and drops the protocol
    bookkeeping of every command at or below it — fantoch's ``GCTrack``
    exchange.  Crashed peers
    are deliberately *not* excluded from the minimum: a lagging replica may
    still need commit information, so GC simply stalls while a peer is down
    (safe, and bounded again once it restarts — restarts preserve process
    state in this deployment model).  ``dot`` is a sender-identifying
    sentinel, as in :class:`MPromises`.
    """

    clock: ClockMap = field(default_factory=dict)


@wire_schema(34)
@dataclass(frozen=True)
class MDeliveryAck(Message):
    """Acknowledge delivery of one tracked critical message.

    The reliable-delivery layer (:mod:`repro.reliability`) retransmits
    commit broadcasts and cross-partition stability notifications until
    the receiver acknowledges them.  ``dot`` is the acknowledged message's
    dot and ``kind_id`` its wire kind byte, together naming the exact
    retransmit-buffer entry to retire; ``epoch`` is the acker's recovery
    epoch (acks from before a restart are stale).
    """

    kind_id: Uvarint = 0
    epoch: Uvarint = 0


class Need(IntEnum):
    """The ingredient a command is missing before it can execute here.

    FPaxos has no promises and no stability: in its ``MRepairRequest`` the
    values only tell two requests apart.  ``COMMIT`` asks for every decided
    slot past ``frontier``; ``PROMISES`` asks for a gap, the slots past
    ``frontier`` below ``dot``'s, which the requester holds.
    """

    COMMIT = 0
    PROMISES = 1
    STABLE = 2


@wire_schema(36)
@dataclass(frozen=True)
class MRepairRequest(Message):
    """Ask a peer for the ingredient ``dot`` is missing at the requester.

    The happy path sends commits, promises and cross-partition stability
    notifications exactly once, so a lost copy is only ever replaced when
    the blocked side pulls it again (:mod:`repro.core.repair`).  The reply
    reuses the ordinary payloads.  :attr:`Need.COMMIT`: ``MPayload`` +
    ``MCommit`` if a Tempo receiver committed ``dot``; from an Atlas /
    EPaxos / Janus* one, ``MDepCommit`` for each dot of ``dot``'s source
    it committed above ``frontier`` up to ``dot``; from the FPaxos leader,
    ``MDecided`` for each slot it holds above ``frontier``, the requester's
    applied prefix.  :attr:`Need.STABLE`:
    ``MStable`` if it stabilised (or already collected) ``dot``.
    :attr:`Need.PROMISES`: an ``MPromises`` with everything the receiver
    issued above ``frontier`` — the requester's contiguous frontier of the
    receiver's promises — plus the payload and commit of its committed
    commands attached above it; from the FPaxos leader, ``MDecided`` for
    each slot above ``frontier`` below ``dot``'s (a gap the requester holds
    ``dot`` after).  Tempo's other requests leave ``frontier`` 0.
    """

    need: Uvarint
    frontier: Uvarint = 0


@wire_schema(16)
@dataclass(frozen=True)
class ClientReply(Message):
    """Process -> client: the command was executed; return values omitted."""

    result: ReplyResult = None
