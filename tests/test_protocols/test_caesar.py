"""Tests for the Caesar baseline (timestamps + dependencies + wait condition)."""

from __future__ import annotations

from repro.simulator.inline import RecordingNetwork


class TestBasics:
    def test_unique_timestamps(self, make_cluster):
        cluster = make_cluster("caesar")
        commands = [cluster.submit(i % 5, ["hot"]) for i in range(8)]
        cluster.settle(rounds=25)
        reference = cluster.processes[0]
        timestamps = [reference._info[c.dot].timestamp for c in commands]
        assert len(set(timestamps)) == len(timestamps)

    def test_fast_quorum_is_three_quarters_rounded_up(self, make_cluster):
        cluster = make_cluster("caesar", r=5, f=1)
        assert len(cluster.processes[0]._fast_quorum()) == 4

    def test_commands_execute_everywhere_in_timestamp_order(self, make_cluster):
        cluster = make_cluster("caesar")
        commands = [cluster.submit(i % 5, ["hot"]) for i in range(8)]
        cluster.settle(rounds=30)
        for command in commands:
            assert cluster.executed_everywhere(command)
        assert cluster.consistent_order(commands)

    def test_non_conflicting_commands_commit_without_blocking(self, make_cluster):
        cluster = make_cluster("caesar")
        cluster.submit(0, ["a"])
        cluster.submit(1, ["b"])
        cluster.settle()
        assert cluster.processes[0].blocked_replies_ever == 0

    def test_stores_converge(self, make_cluster):
        cluster = make_cluster("caesar")
        for index in range(9):
            cluster.submit(index % 5, ["hot" if index % 2 else f"k{index}"])
        cluster.settle(rounds=30)
        assert cluster.stores_converged()


class TestWaitCondition:
    def test_reply_blocks_on_higher_timestamp_uncommitted_conflict(self, make_cluster):
        """A replica that knows a higher-timestamp, uncommitted conflicting
        command delays its reply (the §3.3 blocking behaviour)."""
        cluster = make_cluster("caesar", r=3, f=1)
        a, b, c = cluster.processes
        # b submits a conflicting command first (higher timestamp at b).
        cmd_b = b.new_command(["hot"])
        b.submit(cmd_b, 0.0)
        # a submits with a lower timestamp; deliver a's proposal to b before
        # b's command commits.
        cmd_a = a.new_command(["hot"])
        # Make a's timestamp smaller than b's by construction.
        a.clock = 0
        b.clock = 10
        a.submit(cmd_a, 0.0)
        from repro.protocols.dep_messages import MCaesarPropose

        info_a = a._info[cmd_a.dot]
        b.deliver(0, MCaesarPropose(cmd_a.dot, cmd_a, info_a.timestamp), 0.0)
        assert b.blocked_count() >= 1

    def test_blocked_reply_is_released_after_commit(self, make_cluster):
        cluster = make_cluster("caesar", r=3, f=1)
        for index in range(4):
            cluster.submit(index % 3, ["hot"])
        cluster.settle(rounds=30)
        # Everything eventually commits, so nothing stays blocked.
        for process in cluster.processes:
            assert process.blocked_count() == 0

    def test_blocking_is_recorded_under_contention(self, make_cluster):
        cluster = make_cluster("caesar", r=3, f=1)
        # Submit conflicting commands concurrently (no delivery in between):
        # each replica sees its own uncommitted higher-timestamp command when
        # the others' lower-timestamp proposals arrive, so replies block.
        for index in range(6):
            cluster.submit(index % 3, ["hot"])
        cluster.settle(rounds=30)
        blocked_total = sum(p.blocked_replies_ever for p in cluster.processes)
        assert blocked_total > 0

    def test_execution_waits_for_smaller_timestamp_dependencies(self, make_cluster):
        cluster = make_cluster("caesar", r=3, f=1)
        first = cluster.submit(0, ["hot"])
        second = cluster.submit(1, ["hot"])
        # Settle for less than a gc_interval (25 ticks): the timestamps are
        # read off the records, which the watermark GC drops after that.
        cluster.settle(rounds=20)
        reference = cluster.processes[2]
        executed = [
            dot for dot in reference.executed_dots() if dot in (first.dot, second.dot)
        ]
        assert len(executed) == 2
        timestamps = {
            dot: reference._info[dot].timestamp for dot in (first.dot, second.dot)
        }
        assert executed == sorted(executed, key=lambda dot: timestamps[dot])
