"""The fast-path ``MCommit`` relay at process level (``docs/commit_relay.md``).

Healthy path: every process of ``I_c`` outside a partition's fast quorum
receives that partition's ``MCommit`` exactly once per dot, from the sender
the plan names, and nobody asks for anything.  Failure path: the relayed
copy has one sender, so losing it — or the relayer, after it self-committed
— costs the target one ``recovery_timeout`` until the repair pass's
``COMMIT`` round pulls it, and never more.
"""

from __future__ import annotations

from collections import Counter
from typing import List

import pytest

from repro.cluster.replicas import build_replicas
from repro.core.base import Envelope
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot
from repro.core.messages import (
    MCommit,
    MCommitRequest,
    MPayload,
    MPromises,
    MProposeAck,
    MRec,
    MRepairRequest,
    Need,
)
from repro.core.phases import Phase
from repro.experiments.scenarios import WORST_CELL_TAIL_BOUND_MS
from repro.simulator.inline import InlineNetwork
from repro.simulator.latency import EC2_REGIONS, ec2_latency_matrix
from tests.conftest import TempoCluster
from tests.test_core.test_repair import TICK, WINDOW, Drive


def ec2_cluster(faults: int = 1) -> TempoCluster:
    """Five replicas whose quorums and relay plan go by the paper's EC2
    latencies (by rank distance the f = 1 coordinator serves everybody)."""
    matrix = ec2_latency_matrix()
    latencies = {
        a: {b: matrix.latency(site_a, site_b) for b, site_b in enumerate(EC2_REGIONS)}
        for a, site_a in enumerate(EC2_REGIONS)
    }
    return TempoCluster(num_processes=5, faults=faults, latencies=latencies)


def watch(network: InlineNetwork, lose=lambda envelope: False) -> List[Envelope]:
    """Every envelope the network drains from now on (kept or lost)."""
    seen: List[Envelope] = []

    def hook(envelopes: List[Envelope]) -> List[Envelope]:
        seen.extend(envelopes)
        return [envelope for envelope in envelopes if not lose(envelope)]

    network.set_reorder(hook)
    return seen


def commits(seen: List[Envelope], dot) -> List[Envelope]:
    return [e for e in seen if isinstance(e.message, MCommit) and e.message.dot == dot]


def planned_sends(cluster: TempoCluster, dot, partition: int) -> Counter:
    """``(sender, target)`` pairs of ``partition``'s fast-path MCommit of
    ``dot`` (the coordinator's self-addressed copy never leaves it)."""
    source = cluster.process(dot.source)
    quorums = source._info[dot].quorums
    plan = source.quorum_system.commit_relays(
        quorums[partition], source._targets_for(quorums)
    )
    return Counter(
        (sender, target) for sender, share in plan.items() for target in share
    )


class TestHealthyPath:
    @pytest.mark.parametrize("faults", [1, 2])
    @pytest.mark.parametrize("coordinator", range(5))
    def test_every_outsider_gets_one_commit_from_its_planned_sender(
        self, faults, coordinator
    ):
        cluster = ec2_cluster(faults)
        seen = watch(cluster.network)
        command = cluster.submit(coordinator, ["x"])
        cluster.run()
        sent = Counter((e.sender, e.destination) for e in commits(seen, command.dot))
        assert sent == planned_sends(cluster, command.dot, 0)
        for process in cluster.processes:
            assert process.committed_timestamp(command.dot) is not None
            assert "MCommitRequest" not in process.message_counts

    def test_two_shard_dot_is_relayed_once_per_partition(self, cluster_2x3):
        cluster = cluster_2x3
        seen = watch(cluster.network)
        command = cluster.submit(0, ["p0-a", "p1-a"])
        cluster.run()
        dot = command.dot
        for partition in (0, 1):
            sent = Counter(
                (e.sender, e.destination)
                for e in commits(seen, dot)
                if e.message.partition == partition
            )
            assert sent == planned_sends(cluster, dot, partition)
            # The member, not only the coordinator, relays this partition.
            coordinator = cluster.process(0)._info[dot].quorums[partition][0]
            assert any(sender != coordinator for sender, _ in sent)
        cluster.settle()
        assert cluster.executed_everywhere(dot)

    def test_duplicate_ack_on_a_dot_still_in_propose_does_not_relay_twice(
        self, cluster_2x3
    ):
        """A two-shard dot stays in PROPOSE at a member that self-committed
        its own partition until the other partition reports; a duplicate
        ack re-enters ``_local_fast_commit`` there and must not re-send."""
        cluster = cluster_2x3
        member = cluster.process(1)  # partition 0's quorum from process 0 is (0, 1)
        seen = watch(
            cluster.network,
            lose=lambda e: isinstance(e.message, MCommit)
            and e.message.partition == 1
            and e.destination == 1,
        )
        command = cluster.submit(0, ["p0-a", "p1-a"])
        cluster.run()
        dot = command.dot
        assert member.phase_of(dot) is Phase.PROPOSE
        assert member._info[dot].partition_commits.keys() == {0}
        relayed = [e for e in commits(seen, dot) if e.sender == 1]
        assert relayed and {e.message.partition for e in relayed} == {0}

        ack = next(
            e for e in seen if isinstance(e.message, MProposeAck) and e.destination == 1
        )
        member.drain_outbox()
        member.deliver(ack.sender, ack.message, 0.0)
        assert member.phase_of(dot) is Phase.PROPOSE
        assert not [e for e in member.drain_outbox() if isinstance(e.message, MCommit)]

    def test_without_the_ack_broadcast_the_coordinator_sends_everything(self):
        config = ProtocolConfig(num_processes=5, faults=1)
        processes = build_replicas("tempo", config, ack_broadcast=False).processes
        network = InlineNetwork(processes)
        seen = watch(network)
        command = processes[3].new_command(["x"])
        processes[3].submit(command, 0.0)
        network.run()
        sent = sorted((e.sender, e.destination) for e in commits(seen, command.dot))
        assert sent == [(3, target) for target in range(5) if target != 3]

    def test_the_slow_path_keeps_the_full_broadcast(self):
        """f = 2 and two concurrent conflicting commands: one of them misses
        the fast-path condition, so its outcome is known to the consensus
        leader alone and goes coordinator -> everyone."""
        cluster = TempoCluster(num_processes=5, faults=2)
        seen = watch(cluster.network)
        first = cluster.submit(0, ["hot"])
        second = cluster.submit(2, ["hot"])
        cluster.run()
        slow = [
            command.dot
            for command in (first, second)
            if cluster.process(command.dot.source).message_counts.get("MConsensusAck")
        ]
        assert slow, "the schedule no longer drives a command onto the slow path"
        for dot in slow:
            sent = sorted((e.sender, e.destination) for e in commits(seen, dot))
            assert sent == [
                (dot.source, target) for target in range(5) if target != dot.source
            ]


class TestOneSenderFailureModel:
    """Loss or crash of the single sender costs one window, never safety."""

    def outsider_and_relayer(self, cluster: TempoCluster, coordinator: int = 0):
        quorums = cluster.process(coordinator).quorum_system
        quorum = quorums.fast_quorum(coordinator, 0)
        plan = quorums.commit_relays(quorum, range(cluster.config.num_processes))
        relayer = next(m for m in quorum if m != coordinator and plan[m])
        return cluster.process(plan[relayer][0]), cluster.process(relayer)

    def converges_through_one_commit_round(self, drive: Drive, dot) -> None:
        victim = drive.victim
        assert dot not in victim.executed_dots()
        drive.run(until=2 * WINDOW)
        assert dot in victim.executed_dots()
        # Exactly one repair round, for this dot's commit, one window in.
        assert set(drive.rounds) == {(Need.COMMIT, dot)}
        (asked_at,) = drive.rounds[(Need.COMMIT, dot)]
        assert WINDOW <= asked_at <= WINDOW + 2 * TICK
        assert asked_at <= WORST_CELL_TAIL_BOUND_MS
        for process in drive.cluster.processes:
            if process.alive:
                assert process.blocked_on(float("inf")) == []
                assert "MCommitRequest" not in process.message_counts

    def test_a_dropped_relay_copy_is_pulled_by_the_commit_round(self):
        cluster = ec2_cluster()
        victim, relayer = self.outsider_and_relayer(cluster)
        drive = Drive(
            cluster,
            victim,
            lambda e, now: now < WINDOW
            and isinstance(e.message, MCommit)
            and (e.sender, e.destination) == (relayer.process_id, victim.process_id),
        )
        command = cluster.submit(0, ["x"])
        cluster.run()
        self.converges_through_one_commit_round(drive, command.dot)

    def test_a_relayer_crashed_after_self_committing_is_covered_too(self):
        cluster = ec2_cluster()
        victim, relayer = self.outsider_and_relayer(cluster)

        def crash_before_the_send(envelope: Envelope, now: float) -> bool:
            if envelope.sender != relayer.process_id or not relayer.alive:
                return not relayer.alive and envelope.sender == relayer.process_id
            if isinstance(envelope.message, MCommit):
                relayer.crash()
                return True
            return False

        drive = Drive(cluster, victim, crash_before_the_send)
        command = cluster.submit(0, ["x"])
        cluster.run()
        assert not relayer.alive
        assert relayer.committed_timestamp(command.dot) is not None
        self.converges_through_one_commit_round(drive, command.dot)
        executed = {
            tuple(p.executed_dots()) for p in cluster.processes if p.alive
        }
        assert executed == {(command.dot,)}

    def test_recovery_phase_records_still_ask_committed_peers(self):
        """The one MCommitRequest left: a record in a recovery phase waits
        on MRec, which committed peers ignore (§B.1)."""
        cluster = TempoCluster(num_processes=3, faults=1)
        target = cluster.process(2)
        command = cluster.process(0).new_command(["x"])
        quorums = {0: (0, 1)}
        target.deliver(0, MPayload(command.dot, command, quorums), 0.0)
        target.deliver(1, MRec(command.dot, 5), 0.0)
        assert target.phase_of(command.dot) is Phase.RECOVER_R
        target.drain_outbox()
        promises = MPromises(
            Dot(1, 1), attached={command.dot: (1,)}
        )
        for _ in range(2):  # asked once, not once per MPromises
            target.deliver(1, promises, 0.0)
        asked = [
            (e.destination, e.message.dot)
            for e in target.drain_outbox()
            if isinstance(e.message, MCommitRequest)
        ]
        assert asked == [(0, command.dot), (1, command.dot)]
        assert not any(
            isinstance(e.message, MRepairRequest) for e in target.drain_outbox()
        )
