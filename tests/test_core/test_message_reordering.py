"""Regression tests for out-of-order and duplicate message delivery.

The simulator delivers messages with heterogeneous latencies, so handlers
must tolerate commits arriving before payloads, duplicated commits,
promises referring to unknown commands, and stale recovery traffic.
"""

from __future__ import annotations

from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.messages import (
    MCommit,
    MCommitRequest,
    MPayload,
    MPromises,
    MPropose,
    MRepairRequest,
    MStable,
    Need,
)
from repro.core.phases import Phase
from repro.core.process import TempoProcess
from repro.core.identifiers import Dot
from repro.simulator.inline import InlineNetwork
from tests.conftest import phase_of


def build(r=3):
    config = ProtocolConfig(num_processes=r, faults=1)
    partitioner = Partitioner(1)
    processes = [
        TempoProcess(process_id, config, partitioner=partitioner)
        for process_id in range(r)
    ]
    return processes, InlineNetwork(processes)


class TestOutOfOrderDelivery:
    def test_commit_before_payload_is_buffered_until_the_payload_arrives(self):
        processes, _ = build()
        target = processes[2]
        coordinator = processes[0]
        command = coordinator.new_command(["x"])
        quorums = {0: tuple(coordinator.quorum_system.fast_quorum(0, 0))}
        # Commit arrives first (e.g. reordered by the network).
        target.deliver(0, MCommit(command.dot, timestamp=7, partition=0), 0.0)
        assert target.committed_timestamp(command.dot) is None
        # Payload arrives later: the buffered commit completes immediately.
        target.deliver(0, MPayload(command.dot, command, quorums), 0.0)
        assert target.committed_timestamp(command.dot) == 7

    def test_duplicate_commit_does_not_change_the_timestamp(self):
        processes, network = build()
        command = processes[0].new_command(["x"])
        processes[0].submit(command, 0.0)
        network.settle()
        first = processes[1].committed_timestamp(command.dot)
        processes[1].deliver(0, MCommit(command.dot, timestamp=99, partition=0), 0.0)
        assert processes[1].committed_timestamp(command.dot) == first

    def test_stable_before_commit_is_remembered(self):
        processes, _ = build()
        target = processes[1]
        coordinator = processes[0]
        command = coordinator.new_command(["x"])
        quorums = {0: tuple(coordinator.quorum_system.fast_quorum(0, 0))}
        target.deliver(2, MStable(command.dot, partition=0), 0.0)
        assert command.dot not in target.executed_dots()
        # Later payload + commit + local stability complete the execution.
        target.deliver(0, MPayload(command.dot, command, quorums), 0.0)
        target.deliver(0, MCommit(command.dot, timestamp=1, partition=0,
                                  attached={0: 1, 2: 1}), 0.0)
        target.stability_check(0.0)
        assert command.dot in target.executed_dots()

    def test_propose_after_recovery_is_rejected(self):
        processes, _ = build()
        target = processes[1]
        coordinator = processes[0]
        command = coordinator.new_command(["x"])
        quorums = {0: tuple(coordinator.quorum_system.fast_quorum(0, 0))}
        target.deliver(0, MPayload(command.dot, command, quorums), 0.0)
        from repro.core.messages import MRec

        target.deliver(2, MRec(command.dot, 10), 0.0)
        assert phase_of(target, command.dot) is Phase.RECOVER_R
        clock_before = target.order.clock
        target.deliver(0, MPropose(command.dot, command, quorums, 1), 0.0)
        # The MPropose precondition (phase = start) fails: no new proposal.
        assert target.order.clock == clock_before
        assert phase_of(target, command.dot) is Phase.RECOVER_R


class TestUnknownCommands:
    """An attached promise may be the first a replica hears of a command.
    Its MCommit is pushed by exactly one sender, so the healthy path asks
    nobody; a copy that never arrives is the repair pass's to pull, once
    per recovery-timeout window."""

    WINDOW = 500.0  # ProtocolConfig.recovery_timeout

    @staticmethod
    def asked(target, kind):
        return [
            (envelope.destination, envelope.message.dot)
            for envelope in target.drain_outbox()
            if isinstance(envelope.message, kind)
        ]

    def test_attached_promises_for_unknown_commands_wait_for_the_repair_pass(self):
        processes, _ = build()
        target = processes[1]
        ghost = Dot(0, 42)
        message = MPromises(
            Dot(2, 1),
            detached={},
            attached={ghost: (5,)},
        )
        target.deliver(2, message, 0.0)
        # Buffered, not counted (Algorithm 2, line 47), and nothing asked.
        assert target.order._buffered[ghost] == [(2, 5)]
        assert target.order.frontier(2) == 0
        assert target.drain_outbox() == []
        assert target.blocked_on(self.WINDOW - 5.0) == []
        assert target.blocked_on(self.WINDOW) == [(Need.COMMIT, ghost, 0.0)]
        target.tick(self.WINDOW)
        assert self.asked(target, MRepairRequest) == [(0, ghost), (2, ghost)]

    def test_commit_request_for_unknown_command_is_ignored(self):
        processes, _ = build()
        target = processes[1]
        target.deliver(2, MCommitRequest(Dot(0, 99)), 0.0)
        assert target.drain_outbox() == []

    def test_commit_request_is_sent_only_once_per_window_by_the_repair_pass(self):
        processes, _ = build()
        target = processes[1]
        ghost = Dot(0, 43)
        message = MPromises(
            Dot(2, 1), attached={ghost: (6,)}
        )
        target.deliver(2, message, 0.0)
        target.deliver(2, message, 5.0)  # repeated mention: the clock keeps running
        assert self.asked(target, MCommitRequest) == []
        rounds = []
        for tick in range(1, 2 * int(self.WINDOW / 5.0)):
            target.tick(tick * 5.0)
            if self.asked(target, MRepairRequest):
                rounds.append(tick * 5.0)
        assert rounds == [self.WINDOW]
        target.tick(2 * self.WINDOW)
        assert self.asked(target, MRepairRequest) == [(0, ghost), (2, ghost)]

    def test_detached_promises_from_unknown_processes_are_harmless(self):
        processes, _ = build()
        target = processes[0]
        message = MPromises(Dot(2, 1), detached={2: ((1, 2),)})
        target.deliver(2, message, 0.0)
        assert target.order.frontier(2) == 2


class TestAckBroadcastEquivalence:
    def test_same_timestamps_with_and_without_the_optimisation(self):
        """The ack-broadcast optimisation must not change decisions."""
        def run(ack_broadcast):
            config = ProtocolConfig(num_processes=5, faults=2)
            partitioner = Partitioner(1)
            processes = [
                TempoProcess(
                    process_id, config, partitioner=partitioner,
                    ack_broadcast=ack_broadcast,
                )
                for process_id in range(5)
            ]
            network = InlineNetwork(processes)
            commands = []
            for index in range(8):
                process = processes[index % 5]
                command = process.new_command(["hot"])
                process.submit(command, 0.0)
                commands.append(command)
                network.step(0.0)
            network.settle(rounds=25)
            return {
                command.dot: processes[0].committed_timestamp(command.dot)
                for command in commands
            }

        with_opt = run(True)
        without_opt = run(False)
        assert with_opt == without_opt
