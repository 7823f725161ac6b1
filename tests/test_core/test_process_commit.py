"""Tests of the Tempo commit protocol (Algorithm 1/5): fast path, slow path,
timestamp agreement."""

from __future__ import annotations

import pytest

from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.phases import Phase
from repro.core.process import TempoProcess
from repro.simulator.inline import RecordingNetwork


def build_cluster(r=5, f=1, **kwargs):
    config = ProtocolConfig(num_processes=r, faults=f)
    partitioner = Partitioner(1)
    processes = [
        TempoProcess(process_id, config, partitioner=partitioner, **kwargs)
        for process_id in range(r)
    ]
    return processes, RecordingNetwork(processes)


class TestFastPath:
    def test_uncontended_command_commits_on_fast_path(self):
        processes, network = build_cluster()
        command = processes[0].new_command(["x"])
        processes[0].submit(command, 0.0)
        network.settle()
        kinds = {kind for _, _, kind in network.log}
        assert "MConsensus" not in kinds
        assert processes[0].committed_timestamp(command.dot) is not None

    def test_f1_always_takes_fast_path_even_under_contention(self):
        processes, network = build_cluster(r=5, f=1)
        commands = []
        for index in range(10):
            process = processes[index % 5]
            command = process.new_command(["hot"])
            process.submit(command, 0.0)
            commands.append(command)
        network.settle(rounds=15)
        kinds = [kind for _, _, kind in network.log]
        assert "MConsensus" not in kinds
        for command in commands:
            assert processes[0].committed_timestamp(command.dot) is not None

    def test_f2_may_take_slow_path_under_contention(self):
        processes, network = build_cluster(r=5, f=2)
        for index in range(12):
            process = processes[index % 5]
            command = process.new_command(["hot"])
            process.submit(command, 0.0)
        network.settle(rounds=20)
        kinds = [kind for _, _, kind in network.log]
        # With concurrent conflicting submissions and f=2, at least one
        # command should need consensus (proposal mismatch).
        assert "MConsensus" in kinds
        # And everything still commits.
        assert not processes[0].pending_dots()

    def test_commit_message_reaches_every_process(self):
        processes, network = build_cluster()
        command = processes[2].new_command(["y"])
        processes[2].submit(command, 0.0)
        network.settle()
        for process in processes:
            assert process.committed_timestamp(command.dot) is not None


class TestTimestampAgreement:
    def test_property1_same_timestamp_everywhere(self):
        processes, network = build_cluster(r=5, f=2)
        commands = []
        for index in range(15):
            process = processes[index % 5]
            command = process.new_command(["hot" if index % 2 == 0 else f"k{index}"])
            process.submit(command, 0.0)
            commands.append(command)
        network.settle(rounds=20)
        for command in commands:
            timestamps = {
                process.committed_timestamp(command.dot) for process in processes
            }
            timestamps.discard(None)
            assert len(timestamps) == 1, f"conflicting timestamps for {command.dot}"

    def test_conflicting_commands_get_distinct_timestamp_id_pairs(self):
        processes, network = build_cluster()
        first = processes[0].new_command(["x"])
        second = processes[1].new_command(["x"])
        processes[0].submit(first, 0.0)
        processes[1].submit(second, 0.0)
        network.settle()
        pair_first = (processes[0].committed_timestamp(first.dot), first.dot)
        pair_second = (processes[0].committed_timestamp(second.dot), second.dot)
        assert pair_first != pair_second


class TestSlowPath:
    def test_slow_path_commits_with_agreed_timestamp(self):
        # Force a slow path: f=2 and clocks arranged so the max proposal is
        # unique (Table 1, example b).
        processes, network = build_cluster(r=5, f=2)
        coordinator = processes[0]
        quorum = coordinator.quorum_system.fast_quorum(0, 0)
        others = [p for p in quorum if p != 0]
        processes[others[0]].order.bump(6)
        processes[others[1]].order.bump(10)
        processes[others[2]].order.bump(5)
        coordinator.order.bump(5)
        command = coordinator.new_command(["x"])
        coordinator.submit(command, 0.0)
        network.settle(rounds=15)
        kinds = [kind for _, _, kind in network.log]
        assert "MConsensus" in kinds and "MConsensusAck" in kinds
        timestamps = {
            process.committed_timestamp(command.dot) for process in processes
        }
        timestamps.discard(None)
        assert timestamps == {11}

    def test_slow_quorum_is_f_plus_one(self):
        processes, network = build_cluster(r=5, f=2)
        coordinator = processes[0]
        quorum = coordinator.quorum_system.fast_quorum(0, 0)
        others = [p for p in quorum if p != 0]
        processes[others[0]].order.bump(6)
        processes[others[1]].order.bump(10)
        processes[others[2]].order.bump(5)
        command = coordinator.new_command(["x"])
        coordinator.submit(command, 0.0)
        network.settle(rounds=15)
        consensus_targets = {
            destination
            for _, destination, kind in network.log
            if kind == "MConsensus"
        }
        # MConsensus goes to the whole partition; acks from f+1 suffice, and
        # the command commits.
        assert len(consensus_targets) >= processes[0].config.slow_quorum_size
        assert coordinator.committed_timestamp(command.dot) is not None


class TestPhases:
    def test_payload_processes_record_payload_phase(self):
        processes, network = build_cluster(r=5, f=1)
        command = processes[0].new_command(["x"])
        processes[0].submit(command, 0.0)
        network.step(0.0)  # deliver MPropose / MPayload only
        quorum = set(processes[0].quorum_system.fast_quorum(0, 0))
        outside = [p for p in range(5) if p not in quorum]
        for process_id in outside:
            assert processes[process_id].phase_of(command.dot) in (
                Phase.PAYLOAD,
                Phase.COMMIT,
            )

    def test_duplicate_propose_is_ignored(self):
        processes, network = build_cluster()
        command = processes[0].new_command(["x"])
        processes[0].submit(command, 0.0)
        network.settle()
        # Replay an MPropose after commit: the phase precondition rejects it.
        from repro.core.messages import MPropose

        before = processes[1].order.clock
        processes[1].deliver(
            0,
            MPropose(command.dot, command, {0: tuple(processes[0].quorum_system.fast_quorum(0, 0))}, 1),
            0.0,
        )
        assert processes[1].order.clock == before
        assert processes[1].phase_of(command.dot) in (Phase.COMMIT, Phase.EXECUTE)

    def test_new_command_mints_unique_dots(self):
        processes, _ = build_cluster()
        dots = {processes[0].new_command(["x"]).dot for _ in range(10)}
        assert len(dots) == 10

    def test_submit_requires_replicating_an_accessed_partition(self):
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=2)

        class _Partitioner(Partitioner):
            def __init__(self):
                super().__init__(num_partitions=2)

            def partition_of(self, key):
                return 1

        process = TempoProcess(0, config, partitioner=_Partitioner())
        command = process.new_command(["only-on-partition-1"])
        with pytest.raises(ValueError):
            process.submit(command, 0.0)
