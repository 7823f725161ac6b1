"""Canonical sample messages, one per registered wire kind.

Shared by the round-trip tests and the codec microbenchmark: the samples
are deliberately *representative* of the traffic the fig5/fig6 experiments
generate (100-byte payloads, single-partition fast quorums, a couple of
dependencies / piggybacked promises).

One kind has a second sample: ``MPropose/links`` carries a cross-partition
command whose source last minted over partition 1 at sequence 30 (its
chain link, ``Command.links``), the one layout the plain samples leave out.

Everything here is deterministic — same instances, same bytes, every call —
which is what lets ``tests/test_core/wire_frames.json`` pin every frame byte
for byte.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.base import MBatch
from repro.core.commands import Command
from repro.core.identifiers import Dot, intern_dot
from repro.core.messages import (
    ClientReply,
    MBump,
    MCommit,
    MCommitRequest,
    MConsensus,
    MConsensusAck,
    MDeliveryAck,
    MExecutedClock,
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
from repro.protocols.dep_messages import (
    MAccept,
    MAccepted,
    MCaesarCommit,
    MCaesarPropose,
    MCaesarProposeAck,
    MDecided,
    MDepAccept,
    MDepAcceptAck,
    MDepCommit,
    MForward,
    MPreAccept,
    MPreAcceptAck,
)


def _dot(source: int = 2, sequence: int = 37) -> Dot:
    return intern_dot(source, sequence)


def _command(payload_size: int = 100) -> Command:
    return Command.write(_dot(), ["key-0"], payload_size=payload_size, client_id=7)


def sample_messages(payload_size: int = 100) -> Dict[str, object]:
    """One representative instance per registered kind, keyed by kind name,
    plus ``MPropose/links``."""
    dot = _dot()
    command = _command(payload_size)
    quorums: Dict[int, Tuple[int, ...]] = {0: (0, 2, 3)}
    deps = frozenset({intern_dot(0, 11), intern_dot(1, 29)})
    attached = {2: 41}
    detached = {2: ((38, 40),)}
    samples = {
        "MSubmit": MSubmit(dot, command, quorums),
        "MPropose": MPropose(dot, command, quorums, 41),
        "MProposeAck": MProposeAck(dot, 41, detached),
        "MPayload": MPayload(dot, command, quorums),
        "MCommit": MCommit(dot, 41, 0, attached, detached),
        "MConsensus": MConsensus(dot, 41, 3),
        "MConsensusAck": MConsensusAck(dot, 3),
        "MBump": MBump(dot, 41),
        "MPromises": MPromises(
            dot,
            detached={2: ((38, 44), (46, 47))},
            attached={intern_dot(2, 36): (37,)},
        ),
        "MStable": MStable(dot, 0),
        "MRec": MRec(dot, 5),
        "MRecAck": MRecAck(dot, 41, Phase.PROPOSE, 0, 5),
        "MRecNAck": MRecNAck(dot, 5),
        "MCommitRequest": MCommitRequest(dot),
        "MDeliveryAck": MDeliveryAck(dot, kind_id=5, epoch=1),
        "MRepairRequest": MRepairRequest(dot, Need.PROMISES, frontier=17),
        "MExecutedClock": MExecutedClock(dot, clock={0: 12, 1: 9, 2: 36}),
        "ClientReply": ClientReply(dot, result={"key-0": str(dot)}),
        "MPreAccept": MPreAccept(dot, command, deps, 4),
        "MPreAcceptAck": MPreAcceptAck(dot, deps, 4),
        "MDepAccept": MDepAccept(dot, command, deps, 4, 3),
        "MDepAcceptAck": MDepAcceptAck(dot, 3),
        "MDepCommit": MDepCommit(dot, command, deps, 4),
        "MCaesarPropose": MCaesarPropose(dot, command, (41, 2)),
        "MCaesarProposeAck": MCaesarProposeAck(dot, deps),
        "MCaesarCommit": MCaesarCommit(dot, command, (53, 2), deps),
        "MForward": MForward(dot, command),
        "MAccept": MAccept(dot, command, 37, 3),
        "MAccepted": MAccepted(dot, 37, 3),
        "MDecided": MDecided(dot, command, 37),
    }
    linked = Command.write(
        dot,
        ["key-0", "key-1"],
        payload_size=payload_size,
        client_id=7,
        links=((1, 30),),
    )
    samples["MPropose/links"] = MPropose(
        dot, linked, {0: (0, 2, 3), 1: (1, 4, 5)}, 41
    )
    samples["MBatch"] = MBatch(
        (samples["MCommit"], samples["MStable"], samples["MConsensusAck"])
    )
    return samples
