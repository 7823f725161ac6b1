"""Unit tests for the retransmit buffer (reliable-delivery layer)."""

from __future__ import annotations

import pytest

from repro.core.base import MBatch
from repro.core.commands import Command
from repro.core.identifiers import Dot
from repro.core.messages import MCommit, MDeliveryAck, MStable
from repro.protocols.dep_messages import MCaesarCommit, MDepCommit
from repro.reliability import (
    DEFAULT_BACKOFF_BASE_MS,
    DEFAULT_MAX_ATTEMPTS,
    RetransmitBuffer,
)
from repro.wire import TYPE_TO_KIND, decode, encode, has_codec


def pending_keys(buffer):
    """The live (destination, kind id, dot) keys, in track order."""
    return list(buffer._entries)


def _tracked_messages():
    """One message of each kind the protocols hand to ``track``."""
    dot = Dot(0, 1)
    command = Command.write(dot, ["k"])
    return (
        MCommit(dot, timestamp=3, partition=0),
        MStable(dot, partition=0),
        MDepCommit(dot, command, frozenset()),
        MCaesarCommit(dot, command, (1, 0), frozenset()),
    )


class TestTrackedKindPins:
    def test_tracked_kind_ids_match_the_wire_registry(self):
        # An entry is filed under the kind byte of the message's class —
        # the byte the receiver's MDeliveryAck names.
        buffer = RetransmitBuffer(0)
        for message in _tracked_messages():
            buffer.track([1], message, now=0.0)
            kind = TYPE_TO_KIND[type(message)]
            assert pending_keys(buffer)[-1] == (1, kind, message.dot)
            assert buffer.record_ack(1, kind, message.dot, epoch=0)

    def test_every_tracked_kind_is_registered(self):
        # A re-send and its ack cross the wire: the tracked kinds and the
        # ack itself all decode at the receiver.
        for message in _tracked_messages() + (MDeliveryAck(Dot(0, 1), 5, 1),):
            assert has_codec(type(message))
            assert decode(encode(message)) == message


class TestTrack:
    def test_track_registers_every_non_self_destination(self):
        buffer = RetransmitBuffer(0)
        commit = MCommit(Dot(0, 1), timestamp=3, partition=0)
        assert buffer.track([0, 1, 2], commit, now=0.0) == 2
        assert buffer.pending() == 2
        assert buffer.stats()["tracked"] == 2

    def test_rebroadcast_does_not_reset_the_budget(self):
        buffer = RetransmitBuffer(0)
        commit = MCommit(Dot(0, 1), timestamp=3, partition=0)
        buffer.track([1], commit, now=0.0)
        assert buffer.track([1], commit, now=100.0) == 0
        assert buffer.pending() == 1

    def test_distinct_kinds_for_the_same_dot_are_distinct_entries(self):
        buffer = RetransmitBuffer(0)
        dot = Dot(0, 1)
        buffer.track([1], MCommit(dot, timestamp=3, partition=0), now=0.0)
        buffer.track([1], MStable(dot, partition=0), now=0.0)
        assert buffer.pending() == 2

    def test_untracked_kinds_are_rejected(self):
        # An ack names the tracked message by kind byte: a message whose
        # class declares none (the batch envelope) cannot be tracked.
        buffer = RetransmitBuffer(0)
        batch = MBatch((MStable(Dot(0, 1), partition=0),))
        with pytest.raises(ValueError, match="declares no wire kind"):
            buffer.track([1], batch, now=0.0)

    def test_constructor_validates_budget_parameters(self):
        with pytest.raises(ValueError):
            RetransmitBuffer(0, backoff_base_ms=0.0)
        with pytest.raises(ValueError):
            RetransmitBuffer(0, max_attempts=0)


class TestAcks:
    def _tracked(self):
        buffer = RetransmitBuffer(0)
        commit = MCommit(Dot(0, 1), timestamp=3, partition=0)
        buffer.track([1, 2], commit, now=0.0)
        return buffer, commit

    def test_ack_retires_exactly_one_destination(self):
        buffer, commit = self._tracked()
        kind = MCommit.WIRE_KIND
        assert buffer.record_ack(1, kind, commit.dot, epoch=0)
        assert buffer.pending() == 1
        assert (1, kind, commit.dot) not in pending_keys(buffer)
        assert (2, kind, commit.dot) in pending_keys(buffer)

    def test_duplicate_ack_is_harmless(self):
        buffer, commit = self._tracked()
        kind = MCommit.WIRE_KIND
        assert buffer.record_ack(1, kind, commit.dot, epoch=0)
        assert not buffer.record_ack(1, kind, commit.dot, epoch=0)
        assert buffer.stats()["acked"] == 1

    def test_stale_epoch_acks_are_ignored(self):
        buffer, commit = self._tracked()
        kind = MCommit.WIRE_KIND
        # Peer 1 restarts into epoch 2; a late ack from epoch 1 must not
        # retire an entry re-tracked afterwards.
        assert buffer.record_ack(1, kind, commit.dot, epoch=2)
        buffer.track([1], MStable(commit.dot, partition=0), now=0.0)
        stable_kind = MStable.WIRE_KIND
        assert not buffer.record_ack(1, stable_kind, commit.dot, epoch=1)
        assert buffer.stats()["stale_acks"] == 1
        assert (1, stable_kind, commit.dot) in pending_keys(buffer)
        # The current epoch's ack still works.
        assert buffer.record_ack(1, stable_kind, commit.dot, epoch=2)

    def test_acked_entries_are_never_resent(self):
        buffer, commit = self._tracked()
        kind = MCommit.WIRE_KIND
        buffer.record_ack(1, kind, commit.dot, epoch=0)
        buffer.record_ack(2, kind, commit.dot, epoch=0)
        assert buffer.due(1e9) == []
        assert buffer.stats()["resends"] == 0


class TestBackoffSchedule:
    def test_nothing_is_due_before_the_backoff_base(self):
        buffer = RetransmitBuffer(0)
        commit = MCommit(Dot(0, 1), timestamp=3, partition=0)
        buffer.track([1], commit, now=0.0)
        assert buffer.due(DEFAULT_BACKOFF_BASE_MS - 1.0) == []
        assert buffer.due(DEFAULT_BACKOFF_BASE_MS) == [(1, commit)]

    def test_backoff_doubles_per_attempt(self):
        buffer = RetransmitBuffer(0, backoff_base_ms=100.0, max_attempts=3)
        commit = MCommit(Dot(0, 1), timestamp=3, partition=0)
        buffer.track([1], commit, now=0.0)
        # Attempt 1 at +100; rescheduled to now + 100 * 2^1.
        assert buffer.due(100.0) == [(1, commit)]
        assert buffer.due(299.0) == []
        # Attempt 2 at 100 + 200; rescheduled to now + 100 * 2^2.
        assert buffer.due(300.0) == [(1, commit)]
        assert buffer.due(699.0) == []
        assert buffer.due(700.0) == [(1, commit)]
        assert buffer.stats()["resends"] == 3

    def test_budget_exhaustion_expires_the_entry(self):
        buffer = RetransmitBuffer(0, backoff_base_ms=1.0, max_attempts=2)
        commit = MCommit(Dot(0, 1), timestamp=3, partition=0)
        buffer.track([1], commit, now=0.0)
        assert buffer.due(1e6) == [(1, commit)]
        assert buffer.due(2e6) == [(1, commit)]
        # Third wake-up: over budget - dropped, not re-sent.
        assert buffer.due(3e6) == []
        assert buffer.pending() == 0
        assert buffer.stats() == {
            "tracked": 1,
            "acked": 0,
            "resends": 2,
            "expired": 1,
            "stale_acks": 0,
            "pending": 0,
        }

    def test_default_budget_is_bounded(self):
        # The whole point of the layer: a handful of re-sends, not a storm.
        assert DEFAULT_MAX_ATTEMPTS <= 8
        buffer = RetransmitBuffer(0)
        commit = MCommit(Dot(0, 1), timestamp=3, partition=0)
        buffer.track([1, 2], commit, now=0.0)
        sends = 0
        for step in range(1, 101):
            # Each wake-up is far past every rescheduled due time, so the
            # only thing capping the sends is the per-entry budget.
            sends += len(buffer.due(step * 1e6))
        assert sends == 2 * DEFAULT_MAX_ATTEMPTS
        assert buffer.pending() == 0

    def test_due_drains_in_deterministic_order(self):
        buffer = RetransmitBuffer(0)
        first = MCommit(Dot(0, 1), timestamp=3, partition=0)
        second = MCommit(Dot(0, 2), timestamp=4, partition=0)
        buffer.track([2, 1], first, now=0.0)
        buffer.track([1], second, now=0.0)
        # Same due time: track order breaks the tie.
        assert buffer.due(DEFAULT_BACKOFF_BASE_MS) == [
            (2, first),
            (1, first),
            (1, second),
        ]
