"""Tests for the FPaxos (leader-based) baseline."""

from __future__ import annotations

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.faults import FaultPlan, FlakyLink
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

    def test_the_leader_forgets_a_decided_slot(self, make_cluster):
        # The decided log holds the command; the proposal and its acks are
        # read only until the slot is decided.
        cluster = make_cluster("fpaxos")
        commands = [cluster.submit(i % 5, [f"k{i % 2}"]) for i in range(10)]
        cluster.settle(rounds=20)
        leader = cluster.processes[0]
        assert leader.applied_up_to() == len(commands)
        assert leader._proposals == {} and leader._accept_acks == {}
        assert all(not process.pending_dots() for process in cluster.processes)

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


class TestLiveness:
    def test_a_stall_under_loss_is_counted(self):
        # One second of 1 % loss on every link loses a message of some slot
        # for good (FPaxos has no repair), and every slot after it waits.
        # The accepted and decided slots left unapplied are the stuck count.
        result = run_experiment(
            ExperimentConfig(
                protocol="fpaxos",
                num_sites=5,
                faults=1,
                clients_per_site=8,
                conflict_rate=0.15,
                duration_ms=3_000.0,
                seed=1,
                fault_plan=FaultPlan([FlakyLink(500.0, 1_500.0, drop_probability=0.01)]),
                record_execution_trace=True,
            )
        )
        report = result.trace_report
        assert result.completed < result.submitted
        assert not report.converged and report.stuck > 0, report.summary()
