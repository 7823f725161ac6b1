"""Unit tests for protocol messages (sizes and structure)."""

from __future__ import annotations

import pytest

from repro.core.commands import Command
from repro.core.identifiers import Dot
from repro.core.messages import (
    ClientReply,
    MBump,
    MCommit,
    MCommitRequest,
    MConsensus,
    MConsensusAck,
    MPayload,
    MPromises,
    MPropose,
    MProposeAck,
    MRec,
    MRecAck,
    MRecNAck,
    MStable,
    MSubmit,
)
from repro.core.phases import Phase
from repro.wire import registered_types


def _command(payload=100):
    return Command.write(Dot(0, 1), ["k"], payload_size=payload)


class TestSizes:
    def test_payload_bearing_messages_scale_with_payload(self):
        small = MPropose(Dot(0, 1), _command(100), {0: (0, 1)}, 1)
        large = MPropose(Dot(0, 1), _command(4096), {0: (0, 1)}, 1)
        # Epoch-2: sizes are exact frame lengths, so the delta includes the
        # wider payload-length varint and frame-length prefix, not just the
        # payload bytes themselves.
        assert large.size_bytes() - small.size_bytes() >= 4096 - 100

    def test_commit_does_not_carry_the_payload(self):
        commit = MCommit(Dot(0, 1), timestamp=4)
        propose = MPropose(Dot(0, 1), _command(4096), {0: (0, 1)}, 1)
        assert commit.size_bytes() < propose.size_bytes()

    def test_promises_size_scales_with_promise_count(self):
        empty = MPromises(Dot(0, 1))
        loaded = MPromises(Dot(0, 1), detached={0: ((1, 10),)})
        assert loaded.size_bytes() > empty.size_bytes()

    def test_range_encoded_detached_charges_per_wire_span(self):
        """Epoch-2: ranges are charged as the codec encodes them — per
        ``(lo, hi)`` span, not per logical promise — so a fragmented set of
        the same promises genuinely costs more bytes."""
        as_range = MPromises(Dot(0, 1), detached={0: ((1, 10),)})
        split = MPromises(Dot(0, 1), detached={0: ((1, 4), (6, 11))})
        assert as_range.size_bytes() < split.size_bytes()

    def test_all_message_types_report_positive_sizes(self):
        samples = [
            MSubmit(Dot(0, 1), _command(), {0: (0, 1)}),
            MPropose(Dot(0, 1), _command(), {0: (0, 1)}, 3),
            MProposeAck(Dot(0, 1), 3),
            MPayload(Dot(0, 1), _command(), {0: (0, 1)}),
            MCommit(Dot(0, 1), 3),
            MConsensus(Dot(0, 1), 3, 1),
            MConsensusAck(Dot(0, 1), 1),
            MBump(Dot(0, 1), 3),
            MPromises(Dot(0, 1)),
            MStable(Dot(0, 1), 0),
            MRec(Dot(0, 1), 7),
            MRecAck(Dot(0, 1), 3, Phase.PROPOSE, 0, 7),
            MRecNAck(Dot(0, 1), 7),
            MCommitRequest(Dot(0, 1)),
            ClientReply(Dot(0, 1)),
        ]
        for message in samples:
            assert message.size_bytes() > 0

    def test_registry_lists_every_tempo_message(self):
        # Algorithms 1-6's fourteen, the three liveness/GC additions and the
        # client reply: what core/messages.py declares, all registered.
        names = {
            cls.__name__
            for cls in registered_types()
            if cls.__module__ == "repro.core.messages"
        }
        assert names == {
            "MSubmit", "MPropose", "MProposeAck", "MPayload", "MCommit",
            "MConsensus", "MConsensusAck", "MBump", "MPromises", "MStable",
            "MRec", "MRecAck", "MRecNAck", "MCommitRequest",
            "MExecutedClock", "MDeliveryAck", "MRepairRequest", "ClientReply",
        }


class TestStructure:
    def test_kind_is_class_name(self):
        assert MCommit(Dot(0, 1), 1).kind == "MCommit"

    def test_messages_are_immutable(self):
        message = MCommit(Dot(0, 1), 1)
        with pytest.raises(Exception):
            message.timestamp = 2  # type: ignore[misc]

    def test_propose_ack_carries_piggybacked_promises(self):
        # The skipped run rides along as a range; the attached promise is
        # <sender, timestamp> of the ack itself and is not a field.
        ack = MProposeAck(Dot(0, 1), timestamp=5, detached={1: ((3, 4),)})
        assert ack.detached == {1: ((3, 4),)}
        assert [name for name, _ in MProposeAck.WIRE_FIELDS] == [
            "dot",
            "timestamp",
            "detached",
        ]

    def test_rec_ack_carries_phase_and_accepted_ballot(self):
        ack = MRecAck(Dot(0, 1), timestamp=4, phase=Phase.RECOVER_R, accepted_ballot=0, ballot=8)
        assert ack.phase is Phase.RECOVER_R
        assert ack.accepted_ballot == 0
