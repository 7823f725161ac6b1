"""Tests for Janus* (dependency-based partial replication)."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.kvstore.store import KeyValueStore
from repro.protocols.janus import JanusProcess
from repro.simulator.inline import InlineNetwork, RecordingNetwork


class PrefixPartitioner(Partitioner):
    def __init__(self, partitions: int) -> None:
        super().__init__(num_partitions=partitions)

    def partition_of(self, key: str) -> int:
        if key.startswith("s") and "-" in key:
            return int(key[1:key.index("-")])
        return 0


def build_cluster(shards=2, r=3, f=1):
    config = ProtocolConfig(num_processes=r, faults=f, num_partitions=shards)
    partitioner = PrefixPartitioner(shards)
    stores: Dict[int, KeyValueStore] = {}
    processes: List[JanusProcess] = []
    for process_id in range(config.total_processes()):
        store = KeyValueStore(config.partition_of_process(process_id))
        stores[process_id] = store
        processes.append(
            JanusProcess(
                process_id, config, partitioner=partitioner, apply_fn=store.apply
            )
        )
    return config, partitioner, stores, processes, InlineNetwork(processes)


class TestSingleShard:
    def test_behaves_like_atlas_on_one_shard(self):
        config, _, stores, processes, network = build_cluster(shards=1)
        command = processes[0].new_command(["s0-x"])
        processes[0].submit(command, 0.0)
        network.settle()
        for process in processes:
            assert command.dot in process.executed_dots()


class TestMultiShard:
    def test_cross_shard_command_executes_at_both_shards(self):
        config, _, stores, processes, network = build_cluster()
        command = processes[0].new_command(["s0-a", "s1-b"])
        processes[0].submit(command, 0.0)
        network.settle(rounds=25)
        shards_executed = {
            process.partition
            for process in processes
            if command.dot in process.executed_dots()
        }
        assert shards_executed == {0, 1}

    def test_only_local_keys_are_applied_to_each_shard_store(self):
        config, _, stores, processes, network = build_cluster()
        command = processes[0].new_command(["s0-a", "s1-b"])
        processes[0].submit(command, 0.0)
        network.settle(rounds=25)
        shard0_store = stores[0]
        shard1_store = stores[3]
        assert shard0_store.get("s0-a") is not None
        assert shard0_store.get("s1-b") is None
        assert shard1_store.get("s1-b") is not None
        assert shard1_store.get("s0-a") is None

    def test_commit_is_broadcast_to_every_process(self):
        """Janus* is non-genuine: commits are disseminated system-wide."""
        config, _, _, processes, _ = build_cluster()
        network = RecordingNetwork(processes)
        command = processes[0].new_command(["s0-a", "s1-b"])
        processes[0].submit(command, 0.0)
        network.settle(rounds=25)
        commit_destinations = {
            destination
            for _, destination, kind in network.log
            if kind == "MDepCommit"
        }
        # Every other process receives the commit (self-delivery is local).
        assert commit_destinations == set(range(1, config.total_processes()))

    def test_cross_shard_conflicting_commands_are_ordered_consistently(self):
        config, _, _, processes, network = build_cluster()
        first = processes[0].new_command(["s0-x", "s1-x"])
        second = processes[1].new_command(["s0-x", "s1-x"])
        processes[0].submit(first, 0.0)
        processes[1].submit(second, 0.0)
        network.settle(rounds=30)
        dots = {first.dot, second.dot}
        orders = set()
        for process in processes:
            executed = [dot for dot in process.executed_dots() if dot in dots]
            if len(executed) == 2:
                orders.add(tuple(executed))
        assert len(orders) == 1

    def test_dependencies_span_shards(self):
        config, _, _, processes, network = build_cluster()
        first = processes[0].new_command(["s1-x"])
        # Submitted by a shard-0 process but only accessing shard 1: allowed
        # for Janus* (the coordinator need not replicate the shard).
        processes[3].submit(first, 0.0)
        network.settle(rounds=20)
        second = processes[0].new_command(["s0-y", "s1-x"])
        processes[0].submit(second, 0.0)
        network.settle(rounds=20)
        deps = processes[0].committed_dependencies(second.dot)
        assert first.dot in deps

    def test_mixed_workload_all_commands_execute(self):
        config, _, _, processes, network = build_cluster(shards=3)
        commands = []
        for index in range(9):
            submitter = processes[index % len(processes)]
            if index % 3 == 0:
                keys = [f"s{index % 3}-k", f"s{(index + 1) % 3}-k"]
            else:
                keys = [f"s{index % 3}-k{index}"]
            command = submitter.new_command(keys)
            submitter.submit(command, 0.0)
            commands.append(command)
        network.settle(rounds=40)
        for command in commands:
            accessed = {
                int(key[1:key.index("-")]) for key in command.keys
            }
            for process in processes:
                if process.partition in accessed:
                    assert command.dot in process.executed_dots()


class TestCrossShardLoss:
    """Lost pre-accept acks of a cross-shard command are re-solicited from
    the quorums of *every* accessed shard (the round's stored targets), not
    from the coordinator's own shard only."""

    @pytest.mark.parametrize("cross_shard_only", [False, True])
    def test_lossy_preaccept_acks_leave_no_cross_shard_command_stuck(
        self, cross_shard_only
    ):
        from repro.cluster.config import ExperimentConfig
        from repro.cluster.runner import run_experiment
        from repro.faults.plan import FaultPlan, TargetedLoss

        loss = TargetedLoss(
            800, 1400, "MPreAcceptAck", probability=0.3,
            cross_shard_only=cross_shard_only,
        )
        result = run_experiment(
            ExperimentConfig(
                protocol="janus",
                num_sites=3,
                num_shards=2,
                keys_per_command=2,
                clients_per_site=4,
                duration_ms=2000,
                fault_plan=FaultPlan([loss]),
                record_execution_trace=True,
            )
        )
        assert result.trace_report.stuck == 0
        assert result.completed == result.submitted > 0
        assert result.stats["sent:MPreAccept"] > 0


class TestCrossShardCommitLoss:
    """A commit every replica of one shard lost is pulled from the other
    shard, which keeps the record until every process executed the dot."""

    @pytest.mark.parametrize("probability", [1.0, 0.3])
    def test_lost_cross_shard_commits_are_pulled_back(self, probability):
        from repro.cluster.config import ExperimentConfig
        from repro.cluster.runner import run_experiment
        from repro.faults.plan import FaultPlan, TargetedLoss

        loss = TargetedLoss(
            800, 1400, "MDepCommit", probability=probability, cross_shard_only=True
        )
        result = run_experiment(
            ExperimentConfig(
                protocol="janus",
                num_sites=3,
                num_shards=2,
                keys_per_command=2,
                clients_per_site=4,
                duration_ms=3000,
                fault_plan=FaultPlan([loss]),
                record_execution_trace=True,
            )
        )
        assert result.trace_report.stuck == 0
        assert result.trace_report.converged
        assert result.completed == result.submitted > 0
        assert result.stats["sent:MRepairRequest"] > 0
        assert result.stats.get("retransmit_tracked", 0) == 0
