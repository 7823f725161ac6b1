"""Unit tests for the execution-trace consistency checker.

Each invariant of :mod:`repro.analysis.consistency` is exercised with a
hand-built trace: a minimal clean trace, then one trace per violation code
(execute-twice, order-divergence within and across partitions,
timestamp-order, timestamp-divergence, real-time-order, liveness) plus the
edge cases that must NOT trip the checker (single-dot overlaps, replicas of
different partitions without a partitioner, unreplied windows).
"""

from __future__ import annotations

import pytest

from repro.analysis.consistency import check_run
from repro.analysis.trace import ExecutionTraceRecorder, ReplicaState, TraceEvent
from repro.core.commands import Partitioner
from repro.core.identifiers import intern_dot


def _event(
    process_id,
    dot,
    keys=("k",),
    timestamp=None,
    partition=0,
    time=0.0,
    write_keys=None,
):
    # write_keys=None is the conservative default: every key is a write.
    return TraceEvent(
        process_id=process_id,
        partition=partition,
        dot=dot,
        keys=tuple(keys),
        timestamp=timestamp,
        time=time,
        write_keys=write_keys if write_keys is None else tuple(write_keys),
    )


def _recorder(events, partitions=None):
    recorder = ExecutionTraceRecorder()
    for event in events:
        recorder.events_by_process.setdefault(event.process_id, []).append(event)
        recorder.partitions.setdefault(event.process_id, event.partition)
    if partitions:
        recorder.partitions.update(partitions)
    return recorder


D1 = intern_dot(0, 1)
D2 = intern_dot(1, 1)
D3 = intern_dot(2, 1)


class TestCleanTraces:
    def test_empty_trace_is_ok(self):
        report = _recorder([]).check()
        assert report.ok
        assert report.events == 0

    def test_agreeing_replicas_are_ok(self):
        events = []
        for process_id in (0, 1, 2):
            events.append(_event(process_id, D1, timestamp=1))
            events.append(_event(process_id, D2, timestamp=2))
        report = _recorder(events).check()
        assert report.ok
        assert report.events == 6
        assert report.commands == 2

    def test_summary_mentions_counts(self):
        report = _recorder([_event(0, D1)]).check()
        assert "1 executions" in report.summary()
        assert report.ok


class TestAtMostOnce:
    def test_duplicate_execution_is_flagged(self):
        report = _recorder([_event(0, D1), _event(0, D1)]).check()
        codes = [violation.code for violation in report.violations]
        assert "execute-twice" in codes

    def test_same_dot_on_two_replicas_is_fine(self):
        report = _recorder([_event(0, D1), _event(1, D1)]).check()
        assert report.ok


class TestOrderAgreement:
    def test_divergent_per_key_order_is_flagged(self):
        events = [
            _event(0, D1),
            _event(0, D2),
            _event(1, D2),
            _event(1, D1),
        ]
        report = _recorder(events).check()
        codes = [violation.code for violation in report.violations]
        assert "order-divergence" in codes

    def test_single_common_dot_is_not_compared(self):
        # Run-end cutoffs leave suffixes unexecuted; one shared identifier
        # carries no order information.
        events = [_event(0, D1), _event(0, D2), _event(1, D2)]
        report = _recorder(events).check()
        assert report.ok

    def test_replicas_of_different_partitions_are_not_compared(self):
        events = [
            _event(0, D1, partition=0),
            _event(0, D2, partition=0),
            _event(1, D2, partition=1),
            _event(1, D1, partition=1),
        ]
        report = _recorder(events).check()
        assert report.ok

    def test_disjoint_keys_are_not_compared(self):
        events = [
            _event(0, D1, keys=("a",)),
            _event(0, D2, keys=("a",)),
            _event(1, D2, keys=("b",)),
            _event(1, D1, keys=("b",)),
        ]
        report = _recorder(events).check()
        assert report.ok


class TestConflictAwareness:
    """Read-read pairs are not conflicts (§3.3) and carry no order
    obligation — the read/write-aware dependency protocols record no edge
    between two reads, so their replicas may interleave them freely (the
    trace checker caught exactly this as a false positive on Janus* under
    the YCSB+T workload of fig9)."""

    def test_swapped_reads_are_not_a_divergence(self):
        events = [
            _event(0, D1, write_keys=()),
            _event(0, D2, write_keys=()),
            _event(1, D2, write_keys=()),
            _event(1, D1, write_keys=()),
        ]
        report = _recorder(events).check()
        assert report.ok

    def test_swapped_read_write_pair_is_flagged(self):
        events = [
            _event(0, D1, write_keys=()),
            _event(0, D2, write_keys=("k",)),
            _event(1, D2, write_keys=("k",)),
            _event(1, D1, write_keys=()),
        ]
        report = _recorder(events).check()
        codes = [violation.code for violation in report.violations]
        assert "order-divergence" in codes

    def test_read_between_swapped_positions_of_agreeing_writes(self):
        # Writes agree (D1 then D3) but the read D2 sees 0 writes on one
        # replica and 2 on the other: a read-write inversion.
        events = [
            _event(0, D1, write_keys=("k",)),
            _event(0, D3, write_keys=("k",)),
            _event(0, D2, write_keys=()),
            _event(1, D2, write_keys=()),
            _event(1, D1, write_keys=("k",)),
            _event(1, D3, write_keys=("k",)),
        ]
        report = _recorder(events).check()
        codes = [violation.code for violation in report.violations]
        assert "order-divergence" in codes

    def test_read_timestamps_may_interleave(self):
        # Two reads out of timestamp order: not a conflict, not a violation.
        events = [
            _event(0, D1, timestamp=5, write_keys=()),
            _event(0, D2, timestamp=3, write_keys=()),
        ]
        report = _recorder(events).check()
        assert report.ok

    def test_read_executed_after_write_with_smaller_timestamp_is_flagged(self):
        events = [
            _event(0, D1, timestamp=5, write_keys=("k",)),
            _event(0, D2, timestamp=3, write_keys=()),
        ]
        report = _recorder(events).check()
        codes = [violation.code for violation in report.violations]
        assert "timestamp-order" in codes

    def test_real_time_order_ignores_read_read_pairs(self):
        recorder = _recorder(
            [
                _event(0, D2, write_keys=(), time=10.0),
                _event(0, D1, write_keys=(), time=11.0),
            ]
        )
        recorder.note_submit(D1, ("k",), 0.0)
        recorder.note_reply(D1, 1.0)
        # D2 submitted after D1's reply but executed first: fine for reads.
        recorder.note_submit(D2, ("k",), 5.0)
        recorder.note_reply(D2, 6.0)
        assert recorder.check().ok

    def test_real_time_order_still_applies_to_writes(self):
        recorder = _recorder(
            [
                _event(0, D2, write_keys=("k",), time=10.0),
                _event(0, D1, write_keys=("k",), time=11.0),
            ]
        )
        recorder.note_submit(D1, ("k",), 0.0)
        recorder.note_reply(D1, 1.0)
        recorder.note_submit(D2, ("k",), 5.0)
        recorder.note_reply(D2, 6.0)
        report = recorder.check()
        codes = [violation.code for violation in report.violations]
        assert "real-time-order" in codes


class TestTimestampInvariants:
    def test_timestamp_inversion_is_flagged(self):
        # The footprint of premature stability: a smaller committed
        # timestamp executed after a larger one on the same replica.
        events = [_event(0, D1, timestamp=5), _event(0, D2, timestamp=3)]
        report = _recorder(events).check()
        codes = [violation.code for violation in report.violations]
        assert "timestamp-order" in codes

    def test_equal_timestamp_lower_dot_is_flagged(self):
        # Ties break by identifier: (3, D1) must execute before (3, D2).
        events = [_event(0, D2, timestamp=3), _event(0, D1, timestamp=3)]
        report = _recorder(events).check()
        codes = [violation.code for violation in report.violations]
        assert "timestamp-order" in codes

    def test_untimestamped_events_skip_the_check(self):
        # Dependency-ordered protocols carry no agreed timestamp.
        events = [_event(0, D1, timestamp=None), _event(0, D2, timestamp=None)]
        report = _recorder(events).check()
        assert report.ok

    def test_timestamp_divergence_is_flagged(self):
        events = [_event(0, D1, timestamp=4), _event(1, D1, timestamp=7)]
        report = _recorder(events).check()
        codes = [violation.code for violation in report.violations]
        assert "timestamp-divergence" in codes

    def test_caesar_tuple_timestamps_are_supported(self):
        events = [
            _event(0, D1, timestamp=(1, 0)),
            _event(0, D2, timestamp=(2, 1)),
            _event(1, D1, timestamp=(1, 0)),
            _event(1, D2, timestamp=(2, 1)),
        ]
        report = _recorder(events).check()
        assert report.ok


class TestRealTimeOrder:
    def test_inverted_real_time_order_is_flagged(self):
        # D1 completed at its client before D2 was submitted, yet the
        # replica executed D2 first.
        recorder = _recorder([_event(0, D2), _event(0, D1)])
        recorder.note_submit(D1, ["k"], 0.0)
        recorder.note_reply(D1, 1.0)
        recorder.note_submit(D2, ["k"], 2.0)
        recorder.note_reply(D2, 3.0)
        report = recorder.check()
        codes = [violation.code for violation in report.violations]
        assert "real-time-order" in codes

    def test_concurrent_commands_may_execute_either_way(self):
        # Overlapping windows: no real-time constraint.
        recorder = _recorder([_event(0, D2), _event(0, D1)])
        recorder.note_submit(D1, ["k"], 0.0)
        recorder.note_reply(D1, 5.0)
        recorder.note_submit(D2, ["k"], 2.0)
        recorder.note_reply(D2, 3.0)
        assert recorder.check().ok

    def test_unreplied_window_is_no_constraint(self):
        # A command with no recorded reply (run-end cutoff) cannot have
        # happened-before anything.
        recorder = _recorder([_event(0, D2), _event(0, D1)])
        recorder.note_submit(D1, ["k"], 0.0)
        recorder.note_submit(D2, ["k"], 2.0)
        recorder.note_reply(D2, 3.0)
        assert recorder.check().ok

    def test_reply_at_time_zero_counts(self):
        # replied_at=0.0 is falsy but is a real reply time; the checker
        # must not confuse it with "no reply recorded".
        recorder = _recorder([_event(0, D2), _event(0, D1)])
        recorder.note_submit(D1, ["k"], -1.0)
        recorder.note_reply(D1, 0.0)
        recorder.note_submit(D2, ["k"], 1.0)
        recorder.note_reply(D2, 2.0)
        report = recorder.check()
        codes = [violation.code for violation in report.violations]
        assert "real-time-order" in codes


class TestRecorderWiring:
    def test_attach_records_live_executions(self):
        from repro.core.commands import Partitioner
        from repro.core.config import ProtocolConfig
        from repro.core.process import TempoProcess
        from repro.simulator.inline import InlineNetwork

        config = ProtocolConfig(num_processes=3, faults=1)
        processes = [
            TempoProcess(process_id, config, partitioner=Partitioner(1))
            for process_id in range(3)
        ]
        recorder = ExecutionTraceRecorder().attach(processes)
        network = InlineNetwork(processes)
        command = processes[0].new_command(["k"])
        processes[0].submit(command, 0.0)
        network.step(0.0)
        network.settle(rounds=20)
        assert recorder.event_count() == 3
        report = recorder.check()
        report.raise_if_violations()
        # Tempo events carry the committed (integer) timestamp.
        for events in recorder.events_by_process.values():
            assert events[0].timestamp is not None

    def test_raise_if_violations_raises(self):
        report = _recorder([_event(0, D1), _event(0, D1)]).check()
        with pytest.raises(AssertionError, match="execute-twice"):
            report.raise_if_violations()


def _codes(report):
    return [violation.code for violation in report.violations]


class TestTotalOrder:
    """``TOTAL_TIMESTAMP_ORDER`` widens the order rows from conflicting
    pairs to every pair of a partition's commands."""

    def test_disjoint_keys_are_compared_under_a_total_order(self):
        events = [
            _event(0, D1, keys=("a",)),
            _event(0, D2, keys=("b",)),
            _event(1, D2, keys=("b",)),
            _event(1, D1, keys=("a",)),
        ]
        recorder = _recorder(events)
        assert recorder.check().ok
        recorder.total_order = True
        assert "order-divergence" in _codes(recorder.check())

    def test_swapped_reads_diverge_under_a_total_order(self):
        events = [
            _event(0, D1, write_keys=()),
            _event(0, D2, write_keys=()),
            _event(1, D2, write_keys=()),
            _event(1, D1, write_keys=()),
        ]
        recorder = _recorder(events)
        recorder.total_order = True
        assert "order-divergence" in _codes(recorder.check())

    def test_timestamps_must_rise_across_keys_under_a_total_order(self):
        recorder = _recorder(
            [_event(0, D1, keys=("a",), timestamp=5), _event(0, D2, keys=("b",), timestamp=3)]
        )
        assert recorder.check().ok
        recorder.total_order = True
        assert _codes(recorder.check()) == ["timestamp-order"]


class TestCrossPartitionOrder:
    """With the deployment's partitioner, replicas of different partitions
    must order the commands they share alike on the keys each owns."""

    PARTITIONER = Partitioner(2, explicit={"x": 0, "y": 1, "z": 1})

    def _trace(self, shard_1_order, keys=("x", "y"), write_keys=None):
        events = [
            _event(0, dot, keys=keys, write_keys=write_keys) for dot in (D1, D2)
        ] + [
            _event(1, dot, keys=keys, partition=1, write_keys=write_keys)
            for dot in shard_1_order
        ]
        recorder = _recorder(events)
        recorder.partitioner = self.PARTITIONER
        return recorder

    def test_opposite_orders_at_two_partitions_are_flagged(self):
        report = self._trace([D2, D1]).check()
        assert _codes(report) == ["order-divergence"]
        assert report.violations[0].detail.startswith("replicas disagree on the order")

    def test_agreeing_partitions_are_ok(self):
        assert self._trace([D1, D2]).check().ok

    def test_a_partition_owns_only_its_keys(self):
        # Both commands meet on x (partition 0) and on different keys of
        # partition 1, so partition 1 may order them either way.
        events = [
            _event(0, D1, keys=("x", "y")),
            _event(0, D2, keys=("x", "z")),
            _event(1, D2, keys=("x", "z"), partition=1),
            _event(1, D1, keys=("x", "y"), partition=1),
        ]
        recorder = _recorder(events)
        recorder.partitioner = self.PARTITIONER
        assert recorder.check().ok

    def test_reads_on_both_partitions_are_no_conflict(self):
        assert self._trace([D2, D1], write_keys=()).check().ok


def _replica(alive=True, pending=(), committed=()):
    return ReplicaState(alive, tuple(pending), tuple(committed))


class TestLiveness:
    def _recorder(self, events, replicas, partitions=None):
        recorder = _recorder(events, partitions)
        for process_id, state in replicas.items():
            recorder.replicas[process_id] = state
            recorder.partitions.setdefault(process_id, 0)
            recorder.events_by_process.setdefault(process_id, [])
        return recorder

    def test_without_replica_states_the_row_does_not_run(self):
        report = _recorder([_event(0, D1)]).check()
        assert report.stuck is None and report.converged

    def test_replicas_that_executed_the_same_commands_converge(self):
        recorder = self._recorder(
            [_event(0, D1), _event(1, D1)], {0: _replica(), 1: _replica()}
        )
        report = recorder.check()
        assert report.ok and report.stuck == 0
        assert "liveness: converged, 0 stuck" in report.summary()

    def test_a_command_a_peer_executed_is_owed(self):
        recorder = self._recorder(
            [_event(0, D1), _event(0, D2), _event(1, D1)],
            {0: _replica(), 1: _replica()},
        )
        report = recorder.check()
        assert _codes(report) == ["liveness"] and not report.converged
        assert "process 1 never executed ['1.1']" in report.violations[0].detail

    def test_a_crashed_replica_owes_nothing(self):
        recorder = self._recorder(
            [_event(0, D1), _event(0, D2), _event(1, D1)],
            {0: _replica(), 1: _replica(alive=False)},
        )
        assert recorder.check().converged

    def test_other_partitions_owe_nothing(self):
        recorder = self._recorder(
            [_event(0, D1), _event(1, D2, partition=1)],
            {0: _replica(), 1: _replica()},
        )
        assert recorder.check().converged

    def test_committed_unexecuted_and_pending_commands_are_stuck(self):
        recorder = self._recorder(
            [_event(0, D1), _event(1, D1)],
            {0: _replica(committed=(D1, D2)), 1: _replica(pending=(D3,))},
        )
        report = recorder.check()
        assert report.stuck == 2
        details = [violation.detail for violation in report.violations]
        # D2 committed at 0 is owed at both; 1 also still holds D3.
        assert details == [
            "process 0 never executed ['1.1']",
            "process 1 never executed ['1.1']",
        ]

    def test_pending_alone_is_a_violation(self):
        recorder = self._recorder([_event(0, D1)], {0: _replica(pending=(D2,))})
        report = recorder.check()
        assert report.stuck == 1
        assert report.violations[0].detail == "process 0 still holds pending ['1.1']"

    def test_expected_commands_are_owed_unless_their_submitter_crashed(self):
        recorder = self._recorder([], {0: _replica(), 1: _replica(alive=False)})
        expected = {D1: frozenset({0}), D2: frozenset({0})}
        report = check_run(recorder, expected=expected)
        assert "['0.1', '1.1']" in report.violations[0].detail
        report = check_run(recorder, expected=expected, crashed=frozenset({1}))
        assert "['0.1']" in report.violations[0].detail

    def test_expected_commands_are_owed_only_where_they_access(self):
        recorder = self._recorder(
            [], {0: _replica(), 1: _replica()}, partitions={0: 0, 1: 1}
        )
        report = check_run(recorder, expected={D1: frozenset({1})})
        assert [violation.detail for violation in report.violations] == [
            "process 1 never executed ['0.1']"
        ]

    def test_liveness_alone_does_not_raise(self):
        recorder = self._recorder([], {0: _replica(pending=(D1,))})
        report = recorder.check()
        assert not report.converged
        report.raise_if_violations()
        recorder.events_by_process[0] = [_event(0, D2), _event(0, D2)]
        with pytest.raises(AssertionError, match="execute-twice") as raised:
            recorder.check().raise_if_violations()
        assert "[liveness]" not in str(raised.value)
