"""Unit tests for the retransmit buffer (reliable-delivery layer)."""

from __future__ import annotations

import pytest

from repro.core.identifiers import Dot
from repro.core.messages import MCommit, MRepairRequest, MStable, Need
from repro.protocols.dep_messages import MCaesarCommit, MDepCommit
from repro.reliability import (
    DEFAULT_BACKOFF_BASE_MS,
    DEFAULT_MAX_ATTEMPTS,
    TRACKED_KIND_IDS,
    RetransmitBuffer,
)
from repro.wire import TYPE_TO_KIND


class TestTrackedKindPins:
    def test_tracked_kind_ids_match_the_wire_registry(self):
        # The reliability package sits below repro.wire in the import
        # order, so it pins the kind bytes; they must stay in lockstep
        # with the registry (which is append-only).
        for type_, kind in TYPE_TO_KIND.items():
            if type_.__name__ in TRACKED_KIND_IDS:
                assert TRACKED_KIND_IDS[type_.__name__] == kind

    def test_every_tracked_kind_is_registered(self):
        registered = {type_.__name__ for type_ in TYPE_TO_KIND}
        assert set(TRACKED_KIND_IDS) <= registered

    def test_tracked_set_is_exactly_the_critical_commit_and_stable_kinds(self):
        assert set(TRACKED_KIND_IDS) == {
            MCommit.__name__,
            MStable.__name__,
            MDepCommit.__name__,
            MCaesarCommit.__name__,
        }


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
        buffer = RetransmitBuffer(0)
        request = MRepairRequest(Dot(0, 1), Need.STABLE)
        with pytest.raises(ValueError, match="not a tracked message kind"):
            buffer.track([1], request, now=0.0)

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
        kind = TRACKED_KIND_IDS["MCommit"]
        assert buffer.record_ack(1, kind, commit.dot, epoch=0)
        assert buffer.pending() == 1
        assert (1, kind, commit.dot) not in buffer.pending_keys()
        assert (2, kind, commit.dot) in buffer.pending_keys()

    def test_duplicate_ack_is_harmless(self):
        buffer, commit = self._tracked()
        kind = TRACKED_KIND_IDS["MCommit"]
        assert buffer.record_ack(1, kind, commit.dot, epoch=0)
        assert not buffer.record_ack(1, kind, commit.dot, epoch=0)
        assert buffer.stats()["acked"] == 1

    def test_stale_epoch_acks_are_ignored(self):
        buffer, commit = self._tracked()
        kind = TRACKED_KIND_IDS["MCommit"]
        # Peer 1 restarts into epoch 2; a late ack from epoch 1 must not
        # retire an entry re-tracked afterwards.
        assert buffer.record_ack(1, kind, commit.dot, epoch=2)
        buffer.track([1], MStable(commit.dot, partition=0), now=0.0)
        stable_kind = TRACKED_KIND_IDS["MStable"]
        assert not buffer.record_ack(1, stable_kind, commit.dot, epoch=1)
        assert buffer.stats()["stale_acks"] == 1
        assert (1, stable_kind, commit.dot) in buffer.pending_keys()
        # The current epoch's ack still works.
        assert buffer.record_ack(1, stable_kind, commit.dot, epoch=2)

    def test_acked_entries_are_never_resent(self):
        buffer, commit = self._tracked()
        kind = TRACKED_KIND_IDS["MCommit"]
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
