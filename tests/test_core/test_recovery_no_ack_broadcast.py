"""Recovery tests with the ack-broadcast optimisation disabled.

Without ack broadcast, only the coordinator learns the fast-quorum
proposals, so crashing it before it sends MCommit genuinely requires the
recovery protocol (Algorithm 4) to make progress.  These tests exercise the
two cases of the MRecAck handler (initial coordinator replied / did not
reply) and the adoption of previously accepted consensus values.
"""

from __future__ import annotations

from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.messages import MConsensus, MRec
from repro.core.process import TempoProcess
from repro.simulator.inline import RecordingNetwork


def build_cluster(r=5, f=1):
    config = ProtocolConfig(num_processes=r, faults=f)
    partitioner = Partitioner(1)
    processes = [
        TempoProcess(
            process_id,
            config,
            partitioner=partitioner,
            ack_broadcast=False,
        )
        for process_id in range(r)
    ]
    return processes, RecordingNetwork(processes)


def crash(processes, victim):
    processes[victim].crash()
    processes[victim].outbox.clear()
    for process in processes:
        process.set_alive_view(victim, False)


class TestRecoveryWithoutAckBroadcast:
    def test_crash_before_commit_requires_and_completes_recovery(self):
        processes, network = build_cluster()
        coordinator = processes[0]
        command = coordinator.new_command(["x"])
        coordinator.submit(command, 0.0)
        network.step(0.0)  # MPropose reaches the quorum
        crash(processes, 0)
        # Nothing can commit without recovery: acks only target process 0.
        network.settle(rounds=5)
        assert all(
            processes[i].committed_timestamp(command.dot) is None for i in range(1, 5)
        )
        processes[1].recover(command.dot, 0.0)
        network.settle(rounds=20)
        recovery_kinds = {kind for _, _, kind in network.log}
        assert "MRec" in recovery_kinds and "MRecAck" in recovery_kinds
        committed = {
            processes[i].committed_timestamp(command.dot) for i in range(1, 5)
        }
        committed.discard(None)
        assert len(committed) == 1
        for i in range(1, 5):
            assert command.dot in processes[i].executed_dots()

    def test_case2_recovers_the_fast_path_timestamp(self):
        """Initial coordinator missing, all intersection members in
        recover-p: the recovered timestamp must equal the max proposal of
        the surviving fast-quorum members (Property 4)."""
        processes, network = build_cluster()
        coordinator = processes[0]
        quorum = coordinator.quorum_system.fast_quorum(0, 0)
        others = [p for p in quorum if p != 0]
        processes[others[0]].order.bump(9)
        processes[others[1]].order.bump(4)
        command = coordinator.new_command(["x"])
        coordinator.submit(command, 0.0)
        network.step(0.0)
        crash(processes, 0)
        processes[1].recover(command.dot, 0.0)
        network.settle(rounds=20)
        committed = {
            processes[i].committed_timestamp(command.dot) for i in range(1, 5)
        }
        committed.discard(None)
        assert committed == {10}  # max(9+1, 4+1, coordinator's 1)

    def test_case1_coordinator_replies_so_any_majority_max_works(self):
        """If the initial coordinator itself replies to MRec, it cannot have
        taken the fast path, and recovery may choose the majority max."""
        processes, network = build_cluster()
        coordinator = processes[0]
        command = coordinator.new_command(["x"])
        coordinator.submit(command, 0.0)
        # Do not deliver anything: only the coordinator knows the command
        # (phase propose at the coordinator via self-delivery).
        for process in processes:
            process.outbox.clear()
        # The other processes learn the payload out of band (the periodic
        # MPayload re-broadcast of §B) and one of them starts recovery with
        # the coordinator still alive.
        from repro.core.messages import MPayload

        quorums = {0: tuple(coordinator.quorum_system.fast_quorum(0, 0))}
        for process in processes[1:]:
            process.deliver(0, MPayload(command.dot, command, quorums), 0.0)
        processes[1].recover(command.dot, 0.0)
        network.settle(rounds=20)
        committed = {
            process.committed_timestamp(command.dot)
            for process in processes
            if process.committed_timestamp(command.dot) is not None
        }
        assert len(committed) == 1

    def test_consensus_value_from_older_ballot_is_adopted(self):
        """A value accepted in consensus survives recovery (Invariant 7)."""
        processes, network = build_cluster(r=5, f=2)
        coordinator = processes[0]
        quorum = coordinator.quorum_system.fast_quorum(0, 0)
        others = [p for p in quorum if p != 0]
        processes[others[0]].order.bump(6)
        processes[others[1]].order.bump(10)
        processes[others[2]].order.bump(5)
        command = coordinator.new_command(["x"])
        coordinator.submit(command, 0.0)
        network.step(0.0)  # propose
        network.step(0.0)  # acks -> slow path MConsensus sent
        network.step(0.0)  # consensus accepted at f+1
        crash(processes, 0)
        processes[1].recover(command.dot, 0.0)
        network.settle(rounds=25)
        committed = {
            processes[i].committed_timestamp(command.dot) for i in range(1, 5)
        }
        committed.discard(None)
        assert committed == {11}

    def test_stale_ballot_consensus_is_rejected_with_nack(self):
        processes, network = build_cluster()
        coordinator = processes[0]
        command = coordinator.new_command(["x"])
        coordinator.submit(command, 0.0)
        network.step(0.0)
        target = processes[1]
        target.deliver(2, MRec(command.dot, 12), 0.0)
        target.drain_outbox()
        target.deliver(3, MConsensus(command.dot, 99, 3), 0.0)
        nacks = [
            envelope
            for envelope in target.drain_outbox()
            if type(envelope.message).__name__ == "MRecNAck"
        ]
        assert nacks and nacks[0].message.ballot == 12

    def test_competing_recoveries_still_agree(self):
        """Two processes both try to recover; ballots ensure a single
        decision (Property 1)."""
        processes, network = build_cluster()
        coordinator = processes[0]
        command = coordinator.new_command(["x"])
        coordinator.submit(command, 0.0)
        network.step(0.0)
        crash(processes, 0)
        processes[1].recover(command.dot, 0.0)
        processes[2].recover(command.dot, 0.0)
        network.settle(rounds=30)
        committed = {
            processes[i].committed_timestamp(command.dot) for i in range(1, 5)
        }
        committed.discard(None)
        assert len(committed) == 1
