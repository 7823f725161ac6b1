"""Tests of the Tempo recovery protocol (Algorithm 4) and failure handling."""

from __future__ import annotations

from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.phases import Phase
from repro.core.process import TempoProcess
from repro.kvstore.store import KeyValueStore
from repro.simulator.inline import InlineNetwork, RecordingNetwork


def build_cluster(r=5, f=1):
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
            )
        )
    return processes, stores, InlineNetwork(processes)


def crash_and_update_views(processes, network, victim):
    processes[victim].crash()
    for process in processes:
        process.set_alive_view(victim, False)


def submit_and_crash_before_commit(processes, network, coordinator_id=0, key="x"):
    """Submit a command at ``coordinator_id`` and crash it before any
    MCommit is delivered, leaving the command pending at the other
    replicas."""
    coordinator = processes[coordinator_id]
    command = coordinator.new_command([key])
    coordinator.submit(command, 0.0)
    # Deliver the MPropose/MPayload round only, then crash the coordinator
    # so its MCommit (not yet sent or queued afterwards) never arrives.
    network.step(0.0)
    crash_and_update_views(processes, network, coordinator_id)
    # Drop whatever the crashed coordinator still had queued.
    processes[coordinator_id].outbox.clear()
    return command


class TestBallots:
    def test_initial_ballot_is_rank_plus_one(self):
        processes, _, _ = build_cluster()
        assert processes[0]._own_ballot() == 1
        assert processes[3]._own_ballot() == 4

    def test_recovery_ballots_are_above_r_and_owned_by_recoverer(self):
        processes, _, _ = build_cluster()
        process = processes[2]
        ballot = process._next_recovery_ballot(0)
        assert ballot > 5
        assert process.ballot_owner_rank(ballot) == 2
        higher = process._next_recovery_ballot(ballot)
        assert higher > ballot
        assert process.ballot_owner_rank(higher) == 2

    def test_ballot_owner_rank_round_robin(self):
        processes, _, _ = build_cluster()
        process = processes[0]
        assert process.ballot_owner_rank(1) == 0
        assert process.ballot_owner_rank(5) == 4
        assert process.ballot_owner_rank(6) == 0
        assert process.ballot_owner_rank(8) == 2


class TestRecoveryAfterCoordinatorCrash:
    def test_command_is_recovered_and_executed_without_the_coordinator(self):
        processes, _, network = build_cluster(r=5, f=1)
        command = submit_and_crash_before_commit(processes, network)
        # The leader (lowest-id alive process, i.e. process 1) recovers.
        recoverer = processes[1]
        recoverer.recover(command.dot, 0.0)
        network.settle(rounds=20)
        for process in processes[1:]:
            assert process.committed_timestamp(command.dot) is not None
            assert command.dot in process.executed_dots()

    def test_recovered_timestamp_matches_potential_fast_path_value(self):
        """Property 4: if the coordinator could have taken the fast path,
        recovery must choose the same (max) timestamp."""
        processes, _, network = build_cluster(r=5, f=1)
        # Give the fast-quorum members distinct clocks so the max is known.
        quorum = processes[0].quorum_system.fast_quorum(0, 0)
        others = [p for p in quorum if p != 0]
        processes[others[0]].order.bump(7)
        processes[others[1]].order.bump(3)
        command = submit_and_crash_before_commit(processes, network)
        expected = 8  # max(1, 7+1, 3+1)
        recoverer = processes[1]
        recoverer.recover(command.dot, 0.0)
        network.settle(rounds=20)
        committed = {
            process.committed_timestamp(command.dot)
            for process in processes[1:]
        }
        committed.discard(None)
        assert committed == {expected}

    def test_recovery_with_f2_and_two_failures(self):
        processes, _, network = build_cluster(r=5, f=2)
        command = submit_and_crash_before_commit(processes, network)
        # Crash one more fast-quorum member (f = 2 tolerates it).
        quorum = processes[0].quorum_system.fast_quorum(0, 0)
        second_victim = [p for p in quorum if p != 0][0]
        crash_and_update_views(processes, network, second_victim)
        processes[second_victim].outbox.clear()
        alive = [p for p in processes if p.alive]
        recoverer = min(alive, key=lambda p: p.process_id)
        recoverer.recover(command.dot, 0.0)
        network.settle(rounds=25)
        for process in alive:
            assert process.committed_timestamp(command.dot) is not None

    def test_non_leader_does_not_start_recovery_spontaneously(self):
        processes, _, network = build_cluster()
        command = submit_and_crash_before_commit(processes, network)
        # Process 3 is not the leader (process 1 is), so the periodic check
        # must not trigger recovery from it.
        assert not processes[3]._should_attempt_recovery(command.dot)
        assert processes[1]._should_attempt_recovery(command.dot)

    def test_recovery_is_idempotent(self):
        processes, _, network = build_cluster()
        command = submit_and_crash_before_commit(processes, network)
        recoverer = processes[1]
        recoverer.recover(command.dot, 0.0)
        network.settle(rounds=15)
        first = recoverer.committed_timestamp(command.dot)
        # A second recovery attempt (e.g. spurious timeout) must not change
        # the decision.
        recoverer.recover(command.dot, 0.0)
        network.settle(rounds=15)
        assert recoverer.committed_timestamp(command.dot) == first


class TestRecoveryAfterSlowPathAcceptance:
    def test_recovery_adopts_value_accepted_in_consensus(self):
        """If a quorum accepted a consensus proposal before the coordinator
        crashed, recovery must choose that same timestamp (Invariant 7)."""
        processes, _, network = build_cluster(r=5, f=2)
        coordinator = processes[0]
        quorum = coordinator.quorum_system.fast_quorum(0, 0)
        others = [p for p in quorum if p != 0]
        # Force a slow path: unique max proposal.
        processes[others[0]].order.bump(6)
        processes[others[1]].order.bump(10)
        processes[others[2]].order.bump(5)
        command = coordinator.new_command(["x"])
        coordinator.submit(command, 0.0)
        # Run propose + acks + the MConsensus round, then crash the
        # coordinator before it broadcasts MCommit.
        network.step(0.0)   # propose/payload
        network.step(0.0)   # acks -> coordinator sends MConsensus
        network.step(0.0)   # consensus accepted at replicas
        crash_and_update_views(processes, network, 0)
        processes[0].outbox.clear()
        recoverer = processes[1]
        recoverer.recover(command.dot, 0.0)
        network.settle(rounds=25)
        committed = {
            process.committed_timestamp(command.dot) for process in processes[1:]
        }
        committed.discard(None)
        assert committed == {11}


class TestRecoveryHandlers:
    def test_mrec_from_lower_ballot_gets_nack(self):
        processes, _, network = build_cluster()
        command = submit_and_crash_before_commit(processes, network)
        target = processes[1]
        from repro.core.messages import MRec, MRecNAck

        # First a high ballot...
        target.deliver(2, MRec(command.dot, 12), 0.0)
        target.drain_outbox()
        # ...then a lower one: it must be rejected with an MRecNAck.
        target.deliver(3, MRec(command.dot, 7), 0.0)
        nacks = [
            envelope
            for envelope in target.drain_outbox()
            if isinstance(envelope.message, MRecNAck)
        ]
        assert nacks and nacks[0].message.ballot == 12

    def test_mrec_on_committed_command_is_ignored(self):
        processes, _, network = build_cluster()
        command = processes[0].new_command(["x"])
        processes[0].submit(command, 0.0)
        network.settle()
        from repro.core.messages import MRec

        target = processes[1]
        target.deliver(2, MRec(command.dot, 20), 0.0)
        replies = [
            envelope
            for envelope in target.drain_outbox()
            if type(envelope.message).__name__ in ("MRecAck", "MRecNAck")
        ]
        assert not replies

    def test_payload_phase_process_computes_proposal_during_recovery(self):
        processes, _, network = build_cluster()
        command = submit_and_crash_before_commit(processes, network)
        # A process outside the fast quorum is in the payload phase.
        quorum = set(processes[0].quorum_system.fast_quorum(0, 0))
        outsider = next(p for p in processes[1:] if p.process_id not in quorum)
        assert outsider.phase_of(command.dot) is Phase.PAYLOAD
        from repro.core.messages import MRec

        outsider.deliver(1, MRec(command.dot, 11), 0.0)
        assert outsider.phase_of(command.dot) is Phase.RECOVER_R
        assert outsider.info(command.dot).timestamp > 0

    def test_propose_phase_process_moves_to_recover_p(self):
        processes, _, network = build_cluster()
        command = submit_and_crash_before_commit(processes, network)
        quorum = [p for p in processes[0].quorum_system.fast_quorum(0, 0) if p != 0]
        member = processes[quorum[0]]
        assert member.phase_of(command.dot) is Phase.PROPOSE
        from repro.core.messages import MRec

        member.deliver(1, MRec(command.dot, 11), 0.0)
        assert member.phase_of(command.dot) is Phase.RECOVER_P


class TestLivenessMechanisms:
    def test_commit_request_resends_payload_and_commit(self):
        processes, _, network = build_cluster()
        command = processes[0].new_command(["x"])
        processes[0].submit(command, 0.0)
        network.settle()
        from repro.core.messages import MCommit, MCommitRequest, MPayload

        replier = processes[1]
        replier.deliver(4, MCommitRequest(command.dot), 0.0)
        replies = replier.drain_outbox()
        kinds = [type(envelope.message) for envelope in replies]
        assert MPayload in kinds and MCommit in kinds

    def test_recovery_timeout_triggers_leader_recovery(self):
        processes, _, network = build_cluster()
        command = submit_and_crash_before_commit(processes, network)
        leader = processes[1]
        # Simulate the passage of time past the recovery timeout.
        leader.tick(leader.config.recovery_timeout + 1_000.0)
        network.run(leader.config.recovery_timeout + 1_000.0)
        network.settle(rounds=20)
        assert leader.committed_timestamp(command.dot) is not None

    def test_crashed_process_ignores_messages(self):
        processes, _, network = build_cluster()
        command = processes[0].new_command(["x"])
        processes[0].crash()
        before = dict(processes[0].message_counts)
        processes[0].deliver(1, command, 0.0)
        assert processes[0].message_counts == before
