"""Pruning semantics of the bounded conflict-tracking structures.

The dependency layer and Caesar prune executed/committed commands out of
their per-key live window (``KeyConflicts``' live flags / ``_known_per_key``)
while keeping an archive so emitted dependency sets still cover the full
history.  These tests pin down the three contracts of that scheme:

1. live sets shrink as commands execute (no monotonic growth; peak size
   bounded by in-flight commands),
2. emitted dependency sets are unchanged by pruning (the archive is
   unioned back in),
3. late (re)delivered messages referencing pruned dots are handled exactly
   as before pruning existed.

The archive only lives until the watermark GC collects it, one
``gc_interval`` after the commands executed everywhere, so the inline tests
settle for less than that and inspect the window in between
(``tests/test_core/test_gc.py`` covers what happens after).
"""

from __future__ import annotations

import pytest

from repro.analysis.consistency import check_run
from repro.analysis.trace import ExecutionTraceRecorder
from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.protocols.dep_messages import (
    MCaesarPropose,
    MDepCommit,
    MPreAccept,
)


#: Settle rounds tick one millisecond apart: stay below ``gc_interval`` (25).
SETTLE_ROUNDS = 20


def drive_hot_key_traffic(cluster, count: int = 10, key: str = "hot"):
    """Submit ``count`` conflicting commands round-robin and settle."""
    assert SETTLE_ROUNDS < cluster.config.gc_interval
    commands = [cluster.submit(index % 5, [key]) for index in range(count)]
    cluster.settle(rounds=SETTLE_ROUNDS)
    return commands


class TestDependencyPruning:
    def test_executed_commands_leave_the_live_sets(self, make_cluster):
        cluster = make_cluster("atlas")
        commands = drive_hot_key_traffic(cluster)
        for process in cluster.processes:
            for command in commands:
                assert process.status_of(command.dot) == "execute"
            footprint = process.conflict_footprint()
            assert footprint["live"] == 0, footprint
            assert footprint["archived"] >= len(commands)
            # The live high-water mark stayed below the full history.
            assert footprint["peak_live"] <= len(commands)

    def test_emitted_dependencies_still_cover_pruned_history(self, make_cluster):
        """Pruning must not change what _conflicts_of computes: a new
        conflicting command still depends on the executed (pruned) ones."""
        cluster = make_cluster("atlas")
        commands = drive_hot_key_traffic(cluster, count=6)
        follow_up = cluster.submit(0, ["hot"])
        cluster.settle(rounds=SETTLE_ROUNDS)
        coordinator = cluster.processes[0]
        dependencies = coordinator.committed_dependencies(follow_up.dot)
        for command in commands:
            assert command.dot in dependencies

    def test_late_commit_redelivery_for_pruned_dot_is_ignored(self, make_cluster):
        cluster = make_cluster("atlas")
        commands = drive_hot_key_traffic(cluster, count=4)
        target = cluster.processes[1]
        executed_before = len(target.executed)
        record = target.info(commands[0].dot)
        message = MDepCommit(
            commands[0].dot, record.command, record.dependencies, record.sequence
        )
        target.on_message(0, message, 999.0)
        assert len(target.executed) == executed_before
        assert target.conflict_footprint()["live"] == 0

    def test_late_preaccept_for_pruned_dot_is_ignored(self, make_cluster):
        cluster = make_cluster("atlas")
        commands = drive_hot_key_traffic(cluster, count=4)
        target = cluster.processes[2]
        executed_before = len(target.executed)
        record = target.info(commands[1].dot)
        message = MPreAccept(commands[1].dot, record.command, frozenset(), 1)
        target.on_message(0, message, 999.0)
        assert len(target.executed) == executed_before
        assert target.conflict_footprint()["live"] == 0

    def test_preaccept_referencing_pruned_dependencies_recovers(self, make_cluster):
        """A fresh command whose carried dependencies mention executed
        (locally pruned) dots must still commit and execute."""
        cluster = make_cluster("atlas")
        commands = drive_hot_key_traffic(cluster, count=4)
        follow_up = cluster.submit(3, ["hot"])
        cluster.settle(rounds=SETTLE_ROUNDS)
        for process in cluster.processes:
            assert process.status_of(follow_up.dot) == "execute"
        assert cluster.consistent_order(commands + [follow_up])
        assert cluster.stores_converged()


class TestSequenceFloor:
    """A key's sequence floor lives in its summary and dies with it
    ("Dependency layer" in ``docs/conflict_pruning.md``)."""

    @pytest.mark.parametrize("protocol", ["atlas", "epaxos"])
    def test_a_collected_keys_floor_goes_and_order_still_agrees(
        self, make_cluster, protocol
    ):
        cluster = make_cluster(protocol)
        processes = cluster.processes
        recorder = ExecutionTraceRecorder().attach(processes)
        submitted = {}
        #: Each replica's ``(dot, sequence)`` as it executes: the GC drops
        #: the records soon after.
        sequences = {process.process_id: [] for process in processes}
        for process in processes:
            process.add_execution_listener(
                lambda _, dot, command, now, process=process: sequences[
                    process.process_id
                ].append((dot, process._info[dot].sequence))
            )

        def submit(process_id, keys, now):
            command = processes[process_id].new_command(keys)
            processes[process_id].submit(command, now)
            submitted[command.dot] = frozenset({0})
            return command

        # Key "a"'s only command takes sequence 4 from "c"'s history...
        for _ in range(3):
            submit(0, ["c"], 0.0)
        lone = submit(0, ["a", "c"], 0.0)
        assert processes[0]._info[lone.dot].sequence == 4
        # ...and once it is collected everywhere, "a" has no summary and so
        # no floor.
        now = 3 * cluster.config.gc_interval
        cluster.network.settle(rounds=int(now))
        for process in processes:
            assert lone.dot not in process._info
            assert process.status_of(lone.dot) == "execute"
            assert "a" not in process._conflict_index

        # "b" holds a floor of 2, its commands executed but not collected.
        for _ in range(2):
            submit(1, ["b"], now)
        cluster.network.settle(now=now, rounds=SETTLE_ROUNDS)
        now += SETTLE_ROUNDS
        for process in processes:
            assert process._conflict_index["b"].floor == 2

        # The next command on "a" gets one above the floor of its other
        # key, not above the dropped 4.  A concurrent command on "b" from
        # replica 1 (both fast quorums hold both coordinators) lands
        # in one component with it, where the sequences order the two.
        follow_up = submit(0, ["a", "b"], now)
        submit(1, ["b"], now)
        assert processes[0]._info[follow_up.dot].sequence == 3
        cluster.network.settle(now=now, rounds=SETTLE_ROUNDS)
        report = check_run(recorder.snapshot(processes), expected=submitted)
        report.raise_if_violations()
        assert not report.stuck
        # Every replica executed the same sequences in the same order.
        assert len({tuple(executed) for executed in sequences.values()}) == 1
        assert len(sequences[0]) == len(submitted)
        assert all(process.max_component_size() == 2 for process in processes)


class TestCaesarPruning:
    def test_committed_commands_leave_known_per_key(self, make_cluster):
        cluster = make_cluster("caesar")
        commands = drive_hot_key_traffic(cluster)
        for process in cluster.processes:
            live = sum(len(bucket) for bucket in process._known_per_key.values())
            assert live == 0, process._known_per_key
            archived = sum(
                len(bucket) for bucket in process._committed_per_key.values()
            )
            assert archived >= len(commands)
            assert process.peak_live_per_key <= len(commands)

    def test_reply_dependencies_still_cover_pruned_history(self, make_cluster):
        cluster = make_cluster("caesar")
        commands = drive_hot_key_traffic(cluster, count=6)
        follow_up = cluster.submit(0, ["hot"])
        cluster.settle(rounds=SETTLE_ROUNDS)
        record = cluster.processes[0]._info[follow_up.dot]
        for command in commands:
            assert command.dot in record.dependencies

    def test_late_propose_for_committed_dot_is_ignored(self, make_cluster):
        cluster = make_cluster("caesar")
        commands = drive_hot_key_traffic(cluster, count=4)
        target = cluster.processes[1]
        record = target._info[commands[0].dot]
        executed_before = len(target.executed)
        message = MCaesarPropose(commands[0].dot, record.command, (999, 0))
        target.on_message(0, message, 999.0)
        assert len(target.executed) == executed_before
        # The committed dot must not re-enter the live sets.
        live = sum(len(bucket) for bucket in target._known_per_key.values())
        assert live == 0


class TestBoundedUnderContention:
    """Peak live-set sizes stay bounded by in-flight commands under the
    fig6 contended workload — the structures no longer grow with history."""

    def run_contended(
        self, protocol: str, faults: int = 1, conflict_rate: float = 0.30,
        duration_ms: float = 2_000.0,
    ) -> tuple:
        config = ExperimentConfig(
            protocol=protocol,
            num_sites=5,
            faults=faults,
            clients_per_site=8,
            conflict_rate=conflict_rate,
            duration_ms=duration_ms,
            warmup_ms=300.0,
            seed=1,
        )
        result = run_experiment(config)
        return config, result

    def test_dependency_live_sets_bounded_by_in_flight(self):
        config, result = self.run_contended("atlas")
        in_flight_bound = config.total_clients()
        assert result.completed > 300
        for process in result.deployment.processes:
            footprint = process.conflict_footprint()
            # Closed-loop clients each keep one command in flight; the live
            # window additionally covers commands committed elsewhere but
            # not yet executed here, hence the slack factor.
            assert footprint["peak_live"] <= 2 * in_flight_bound, footprint
            # The executed history dwarfs the live window: growth went to
            # the archive and from there to the watermark GC, not to the
            # scanned-per-command live sets.
            assert process.gc.collected_count > 3 * footprint["peak_live"], footprint

    def test_caesar_live_sets_bounded_by_in_flight(self):
        config, result = self.run_contended(
            "caesar", faults=2, conflict_rate=0.15, duration_ms=3_000.0
        )
        in_flight_bound = config.total_clients()
        assert result.completed > 150
        for process in result.deployment.processes:
            assert process.peak_live_per_key <= 2 * in_flight_bound
            assert process.gc.collected_count > 3 * process.peak_live_per_key
