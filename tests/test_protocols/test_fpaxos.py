"""Tests for the FPaxos (leader-based) baseline."""

from __future__ import annotations

from repro.simulator.inline import RecordingNetwork


class TestLeadership:
    def test_rank_zero_is_the_default_leader(self, make_cluster):
        cluster = make_cluster("fpaxos")
        assert cluster.processes[0].is_leader()
        assert not cluster.processes[1].is_leader()
        assert cluster.processes[3].leader == 0


class TestOrdering:
    def test_all_commands_execute_in_slot_order_everywhere(self, make_cluster):
        cluster = make_cluster("fpaxos")
        commands = [cluster.submit(i % 5, ["hot"]) for i in range(10)]
        cluster.settle(rounds=20)
        orders = {tuple(process.executed_dots()) for process in cluster.processes}
        assert len(orders) == 1
        assert len(list(orders)[0]) == len(commands)
        # Every submitted command was answered, so no submit bookkeeping is
        # left behind.
        assert all(not process._submitted_here for process in cluster.processes)

    def test_non_leader_submissions_are_forwarded(self, make_cluster):
        cluster = make_cluster("fpaxos")
        cluster.network = RecordingNetwork(cluster.processes)
        cluster.submit(3, ["x"])
        cluster.network.settle()
        kinds = [kind for _, _, kind in cluster.network.log]
        assert "MForward" in kinds

    def test_leader_submissions_are_not_forwarded(self, make_cluster):
        cluster = make_cluster("fpaxos")
        cluster.network = RecordingNetwork(cluster.processes)
        cluster.submit(0, ["x"])
        cluster.network.settle()
        kinds = [kind for _, _, kind in cluster.network.log]
        assert "MForward" not in kinds

    def test_phase2_uses_f_plus_one_acceptors(self, make_cluster):
        cluster = make_cluster("fpaxos", f=1)
        cluster.network = RecordingNetwork(cluster.processes)
        cluster.submit(0, ["x"])
        cluster.network.settle()
        accept_targets = {
            destination for _, destination, kind in cluster.network.log if kind == "MAccept"
        }
        # The leader self-delivers its own accept; one other acceptor needed.
        assert len(accept_targets) == cluster.config.slow_quorum_size - 1

    def test_decided_log_is_contiguous_and_applied_in_order(self, make_cluster):
        cluster = make_cluster("fpaxos")
        for index in range(6):
            cluster.submit(index % 5, [f"k{index}"])
        cluster.settle(rounds=20)
        for process in cluster.processes:
            assert process.applied_up_to() == 6
            assert process.log_length() == 6

    def test_stores_converge(self, make_cluster):
        cluster = make_cluster("fpaxos")
        for index in range(8):
            cluster.submit(index % 5, ["hot"])
        cluster.settle(rounds=20)
        assert cluster.stores_converged()

    def test_stale_ballot_accept_is_ignored(self, make_cluster):
        from repro.core.commands import Command
        from repro.core.identifiers import Dot
        from repro.protocols.dep_messages import MAccept

        cluster = make_cluster("fpaxos")
        follower = cluster.processes[1]
        follower.ballot = 5
        command = Command.write(Dot(0, 99), ["x"])
        follower.deliver(0, MAccept(command.dot, command, 1, 2), 0.0)
        assert not [
            envelope
            for envelope in follower.drain_outbox()
            if type(envelope.message).__name__ == "MAccepted"
        ]
