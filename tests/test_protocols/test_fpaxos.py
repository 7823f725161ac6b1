"""Tests for the FPaxos (leader-based) baseline."""

from __future__ import annotations

import pytest

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.core.commands import Command
from repro.core.identifiers import Dot
from repro.faults import Crash, FaultPlan, FlakyLink
from repro.protocols.dep_messages import MAccept, MForward
from repro.protocols.fpaxos import SlotLog
from repro.simulator.inline import RecordingNetwork


class TestLeadership:
    def test_rank_zero_is_the_default_leader(self, make_cluster):
        cluster = make_cluster("fpaxos")
        assert cluster.processes[0].is_leader()
        assert not cluster.processes[1].is_leader()
        assert cluster.processes[3].leader == 0


def held_slots(process) -> int:
    """The decided slots ``process`` holds."""
    return len(process.log)


class TestOrdering:
    def test_all_commands_execute_in_slot_order_everywhere(self, make_cluster):
        cluster = make_cluster("fpaxos")
        commands = [cluster.submit(i % 5, ["hot"]) for i in range(10)]
        cluster.settle(rounds=20)
        orders = {tuple(process.executed_dots()) for process in cluster.processes}
        assert len(orders) == 1
        assert len(list(orders)[0]) == len(commands)

    def test_the_leader_forgets_a_decided_slot(self, make_cluster):
        # The phase-2 state goes at the decision; the leader keeps the
        # decided slot until every replica announced it applied, and a
        # follower does not keep it past applying it.
        cluster = make_cluster("fpaxos")
        commands = [cluster.submit(i % 5, [f"k{i % 2}"]) for i in range(10)]
        cluster.settle(rounds=20)
        leader, *followers = cluster.processes
        assert leader.log.applied == len(commands)
        assert leader._proposals == {}
        assert held_slots(leader) == len(commands)
        assert [held_slots(follower) for follower in followers] == [0, 0, 0, 0]
        assert all(not process.pending_dots() for process in cluster.processes)
        cluster.network.settle(now=20.0, rounds=2 * int(cluster.config.gc_interval))
        assert held_slots(leader) == 0
        assert leader.memory_footprint()["records"] == 0

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
            assert process.log.applied == 6
            assert held_slots(process) == (6 if process.is_leader() else 0)

    def test_stores_converge(self, make_cluster):
        cluster = make_cluster("fpaxos")
        for index in range(8):
            cluster.submit(index % 5, ["hot"])
        cluster.settle(rounds=20)
        assert cluster.stores_converged()
        assert cluster.stores[0].get("hot") is not None  # applied, not just empty

    def test_stale_ballot_accept_is_ignored(self, make_cluster):
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

    def test_a_command_forwarded_again_is_ordered_once(self, make_cluster):
        # The minter forwards again when it hears nothing for a window; the
        # leader drops a command it proposed, holds or collected.
        cluster = make_cluster("fpaxos")
        leader = cluster.processes[0]
        command = cluster.submit(3, ["x"])
        forward = MForward(command.dot, command)
        leader.deliver(3, forward, 0.0)  # before the first copy
        cluster.settle(rounds=5)
        leader.deliver(3, forward, 5.0)  # decided and held
        cluster.network.settle(now=5.0, rounds=2 * int(cluster.config.gc_interval))
        assert leader.gc.collected(command.dot)
        leader.deliver(3, forward, 60.0)  # collected
        cluster.network.settle(now=60.0, rounds=5)
        assert all(process.executed == [command.dot] for process in cluster.processes)


def command(sequence: int) -> Command:
    return Command.write(Dot(1, sequence), ["k"])


class TestSlotLog:
    """The ordering seam's contract on FPaxos's log: ``commit`` files a
    decided slot, ``advance`` hands out the contiguous run past the applied
    prefix, ``blockers`` names the first missing slot, ``forget`` drops an
    applied slot."""

    @pytest.mark.parametrize(
        "decided, advanced, applied, blockers",
        [
            # In order: each commit is applicable at once.
            ([1, 2, 3], [1, 2, 3], 3, {}),
            # Slot 1 missing: nothing applies, and 2 and 3 wait for it.
            ([2, 3], [], 0, {2: [1], 3: [1]}),
            # The gap closes: the whole run applies in slot order.
            ([3, 2, 1], [1, 2, 3], 3, {}),
            # A repeated decision is filed once.
            ([1, 1, 3], [1], 1, {3: [2]}),
        ],
    )
    def test_contract(self, decided, advanced, applied, blockers):
        log = SlotLog()
        handed = []
        for slot in decided:
            log.commit(slot, command(slot))
            handed += [ready.dot.sequence for ready in log.advance()]
        assert handed == advanced
        assert log.applied == applied
        assert {dot.sequence: log.blockers(dot) for dot in log if log.blockers(dot)} == blockers
        assert log.blockers(Dot(1, 99)) == []

    def test_forget_drops_applied_slots_only(self):
        log = SlotLog()
        for slot in (1, 2, 4):
            log.commit(slot, command(slot))
        log.advance()
        log.forget(Dot(1, 1))
        assert len(log) == 2 and Dot(1, 1) not in log
        assert [slot for slot, _ in log.decided_above(1)] == [2, 4]
        with pytest.raises(AssertionError):
            log.forget(Dot(1, 4))
        log.commit(1, command(1))  # a late duplicate of a forgotten slot
        assert Dot(1, 1) not in log


def finding3_cell(seed: int, plan: FaultPlan = None):
    """Finding 3's cell: the fig6 shape, 8 clients/site, 15 % conflicts,
    3 000 ms plus the runner's drain, trace-checked."""
    return run_experiment(
        ExperimentConfig(
            protocol="fpaxos",
            num_sites=5,
            faults=1,
            clients_per_site=8,
            conflict_rate=0.15,
            duration_ms=3_000.0,
            seed=seed,
            fault_plan=plan,
            record_execution_trace=True,
        )
    )


class TestLiveness:
    @pytest.mark.parametrize("seed", [1, 3])
    def test_one_second_of_loss_converges(self, seed):
        # 1 % loss on every link for one second loses MDecided, MAccept,
        # MAccepted and MForward copies; the blocked side pulls each one.
        # Without the pull, seed 1 completed 150 of 190 (207 stuck) and
        # seed 3 197 of 237 (201 stuck).
        result = finding3_cell(
            seed, FaultPlan([FlakyLink(500.0, 1_500.0, drop_probability=0.01)])
        )
        report = result.trace_report
        assert report.converged and report.stuck == 0, report.summary()
        assert result.completed == result.submitted
        assert result.stats["sent:MRepairRequest"] > 0
        assert result.stats["live_records"] == 0

    def test_a_healthy_run_never_pulls(self):
        result = finding3_cell(1)
        assert result.trace_report.converged
        assert result.completed == result.submitted == 816
        assert "sent:MRepairRequest" not in result.stats
        assert result.stats["sent:MForward"] == 480  # one per non-leader command
        assert result.stats["live_records"] == 0

    @pytest.mark.xfail(
        strict=True,
        reason="no leader failover (ROADMAP 4(c)): with the leader's site "
        "down, nothing is ordered",
    )
    def test_the_leader_site_crashing_stalls_the_partition(self):
        result = finding3_cell(1, FaultPlan([Crash(1_000.0, site_rank=0)]))
        assert result.trace_report.converged, result.trace_report.summary()
