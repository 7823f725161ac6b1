"""Tests of the multi-partition protocol (Algorithm 3): max-of-commits,
MStable exchange, MBump optimisation."""

from __future__ import annotations

import pytest

from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.process import TempoProcess
from repro.kvstore.store import KeyValueStore
from repro.simulator.inline import RecordingNetwork


class PrefixPartitioner(Partitioner):
    """Keys ``pN-...`` map to partition N."""

    def __init__(self, partitions: int) -> None:
        super().__init__(num_partitions=partitions)

    def partition_of(self, key: str) -> int:
        if key.startswith("p") and "-" in key:
            return int(key[1:key.index("-")])
        return 0


def build_cluster(partitions=2, r=3, f=1):
    config = ProtocolConfig(num_processes=r, faults=f, num_partitions=partitions)
    partitioner = PrefixPartitioner(partitions)
    stores = {}
    processes = []
    for process_id in range(config.total_processes()):
        store = KeyValueStore(config.partition_of_process(process_id))
        stores[process_id] = store
        processes.append(
            TempoProcess(process_id, config, partitioner=partitioner, apply_fn=store.apply)
        )
    return config, processes, stores, RecordingNetwork(processes)


class TestMultiPartitionCommit:
    def test_final_timestamp_is_max_over_partitions(self):
        config, processes, _, network = build_cluster()
        # Skew the clocks of partition 1 so its proposal dominates.
        for process in processes:
            if process.partition == 1:
                process.order.bump(50)
        command = processes[0].new_command(["p0-a", "p1-b"])
        processes[0].submit(command, 0.0)
        network.settle(rounds=20)
        final = processes[0].committed_timestamp(command.dot)
        assert final is not None and final >= 51

    def test_all_partition_replicas_agree_on_final_timestamp(self):
        config, processes, _, network = build_cluster()
        command = processes[0].new_command(["p0-a", "p1-b"])
        processes[0].submit(command, 0.0)
        network.settle(rounds=20)
        timestamps = {
            process.committed_timestamp(command.dot)
            for process in processes
            if process.committed_timestamp(command.dot) is not None
        }
        assert len(timestamps) == 1

    def test_mbump_messages_are_sent_for_multi_partition_commands(self):
        config, processes, _, network = build_cluster()
        command = processes[0].new_command(["p0-a", "p1-b"])
        processes[0].submit(command, 0.0)
        network.settle(rounds=20)
        kinds = {kind for _, _, kind in network.log}
        assert "MBump" in kinds
        assert "MStable" in kinds

    def test_single_partition_commands_do_not_send_mbump(self):
        config, processes, _, network = build_cluster()
        command = processes[0].new_command(["p0-a"])
        processes[0].submit(command, 0.0)
        network.settle(rounds=20)
        kinds = {kind for _, _, kind in network.log}
        assert "MBump" not in kinds


class TestMultiPartitionExecution:
    def test_execution_happens_at_every_accessed_partition_only(self):
        config, processes, _, network = build_cluster(partitions=3)
        command = processes[0].new_command(["p0-a", "p2-b"])
        processes[0].submit(command, 0.0)
        network.settle(rounds=25)
        executed_partitions = {
            process.partition
            for process in processes
            if command.dot in process.executed_dots()
        }
        assert executed_partitions == {0, 2}

    def test_cross_partition_ordering_is_consistent(self):
        """Two commands accessing the same two partitions execute in the
        same relative order at both partitions (the Ordering property)."""
        config, processes, _, network = build_cluster()
        first = processes[0].new_command(["p0-x", "p1-x"])
        second = processes[4].new_command(["p0-x", "p1-x"])
        processes[0].submit(first, 0.0)
        processes[4].submit(second, 0.0)
        network.settle(rounds=25)
        orders = set()
        for process in processes:
            executed = [
                dot
                for dot in process.executed_dots()
                if dot in (first.dot, second.dot)
            ]
            if len(executed) == 2:
                orders.add(tuple(executed))
        assert len(orders) == 1

    def test_multi_partition_command_blocks_until_remote_partition_is_stable(self):
        config, processes, _, network = build_cluster()
        command = processes[0].new_command(["p0-a", "p1-b"])
        processes[0].submit(command, 0.0)
        # Only deliver a couple of rounds: commit may be reached, but the
        # MStable exchange needs the stability detection of both partitions.
        network.step(0.0)
        network.step(0.0)
        assert command.dot not in processes[0].executed_dots()
        network.settle(rounds=25)
        assert command.dot in processes[0].executed_dots()

    def test_mixed_single_and_multi_partition_commands_all_execute(self):
        config, processes, stores, network = build_cluster()
        commands = []
        for index in range(8):
            if index % 3 == 0:
                submitter = processes[0]
                command = submitter.new_command(["p0-x", "p1-y"])
            elif index % 3 == 1:
                submitter = processes[1]
                command = submitter.new_command(["p0-x"])
            else:
                submitter = processes[4]
                command = submitter.new_command(["p1-y"])
            submitter.submit(command, 0.0)
            commands.append((submitter, command))
        network.settle(rounds=30)
        for submitter, command in commands:
            assert command.dot in submitter.executed_dots()


class TestChainLinks:
    def test_links_of_a_source_alternating_single_and_cross_shard(self):
        # Process 0 replicates partition 0.  A link is stated only where the
        # last command minted over a partition is not the sequence before:
        # partition 0 never needs one, partition 1 whenever single-shard
        # commands came in between.
        _, processes, _, _ = build_cluster()
        shapes = [
            ["p0-a"],
            ["p0-a", "p1-b"],
            ["p0-a"],
            ["p0-a"],
            ["p0-a", "p1-b"],
            ["p0-a", "p1-b"],
            ["p0-a"],
            ["p0-a", "p1-b"],
        ]
        commands = [processes[0].new_command(keys) for keys in shapes]
        assert [command.dot.sequence for command in commands] == list(range(1, 9))
        assert [command.links for command in commands] == [
            (),
            ((1, 0),),
            (),
            (),
            ((1, 2),),
            (),
            (),
            ((1, 6),),
        ]
        assert [command.previous(0) for command in commands] == list(range(8))
        cross = [command for command in commands if len(command.keys) == 2]
        assert [command.previous(1) for command in cross] == [0, 2, 5, 6]

    def test_a_shard_1_replica_executes_linked_chains_out_of_order(self):
        # Source 0's cross-shard commands (sequences 2, 5, 6, 8) are its
        # chain at partition 1, which executes them in timestamp order, not
        # sequence order.  The at-most-once check never fires, and the
        # sequences the links skip leave no hole: each source ends as one
        # range.
        _, processes, _, _ = build_cluster()
        replica = processes[3]
        assert replica.partition == 1
        shapes = [["p0-a"], ["p0-a", "p1-b"], ["p0-a"], ["p0-a"]]
        shapes += [["p0-a", "p1-b"], ["p0-a", "p1-b"], ["p0-a"], ["p0-a", "p1-b"]]
        chain = [
            command
            for command in (processes[0].new_command(keys) for keys in shapes)
            if len(command.keys) == 2
        ]
        local = [processes[4].new_command(["p1-b"]) for _ in range(3)]
        order = [chain[2], local[2], chain[0], chain[3], local[0], chain[1], local[1]]
        for command in order:
            replica._execute_command(command.dot, command, 0.0)
        assert replica.executed == [command.dot for command in order]
        assert replica.chains.clock() == {0: 8, 4: 3}
        assert replica.memory_footprint()["executed_ranges"] == 2
        with pytest.raises(ValueError):
            replica._execute_command(chain[1].dot, chain[1], 0.0)

    def test_a_single_partition_deployment_mints_no_links(self):
        _, processes, _, _ = build_cluster(partitions=1)
        commands = [processes[0].new_command([f"k{index}"]) for index in range(3)]
        assert [command.links for command in commands] == [(), (), ()]
        assert processes[0]._chain_tails == {}
