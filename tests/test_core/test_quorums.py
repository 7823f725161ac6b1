"""Unit tests for the quorum system."""

from __future__ import annotations

import pytest

from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.messages import MPropose, MSubmit
from repro.core.process import TempoProcess
from repro.core.quorums import QuorumSystem


def latency_table(num_processes: int, sites_latency):
    """Build a symmetric process-level latency table from per-rank rows."""
    table = {}
    for a in range(num_processes):
        table[a] = {}
        for b in range(num_processes):
            table[a][b] = sites_latency[a][b]
    return table


class TestFastQuorums:
    def test_includes_coordinator_first(self):
        config = ProtocolConfig(num_processes=5, faults=1)
        quorums = QuorumSystem(config)
        quorum = quorums.fast_quorum(2, 0)
        assert quorum[0] == 2
        assert len(quorum) == config.fast_quorum_size

    def test_members_belong_to_partition(self):
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=2)
        quorums = QuorumSystem(config)
        quorum = quorums.fast_quorum(4, 1)
        assert set(quorum) <= set(config.processes_of_partition(1))

    def test_latency_aware_choice_prefers_closest(self):
        config = ProtocolConfig(num_processes=5, faults=1)
        # Process 0 is 10ms from 4, 50ms from 1, 100ms from the rest.
        latencies = {
            a: {b: 100.0 for b in range(5)} for a in range(5)
        }
        latencies[0][4] = 10.0
        latencies[0][1] = 50.0
        quorums = QuorumSystem(config, latencies=latencies)
        assert quorums.fast_quorum(0, 0) == [0, 4, 1]

    def test_coordinator_must_replicate_partition(self):
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=2)
        quorums = QuorumSystem(config)
        with pytest.raises(ValueError):
            quorums.fast_quorum(0, 1)


class TestCoordinators:
    def test_coordinator_is_submitter_when_it_replicates_the_partition(self):
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=2)
        quorums = QuorumSystem(config)
        assert quorums.coordinator_for(4, 1) == 4

    def test_coordinator_is_colocated_replica_for_other_partitions(self):
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=2)
        quorums = QuorumSystem(config)
        # Process 1 (rank 1 of partition 0) -> rank-1 replica of partition 1.
        assert quorums.coordinator_for(1, 1) == 4

    def test_coordinators_for_multiple_partitions(self):
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=3)
        quorums = QuorumSystem(config)
        coordinators = quorums.coordinators_for(0, [0, 1, 2])
        assert coordinators == {0: 0, 1: 3, 2: 6}

    def test_fast_quorums_mapping_covers_all_partitions(self):
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=2)
        quorums = QuorumSystem(config)
        mapping = quorums.fast_quorums(0, [0, 1])
        assert set(mapping) == {0, 1}
        for partition, quorum in mapping.items():
            assert set(quorum) <= set(config.processes_of_partition(partition))
            assert len(quorum) == config.fast_quorum_size

    def test_submit_sends_the_fast_quorums_of_its_suspicion(self):
        """``fast_quorums`` is the one copy of Algorithm 1's ``Q``: a
        suspected member is skipped, and the ``MSubmit`` a ``TempoProcess``
        holding the same suspicion sends carries exactly that map."""
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=2)
        suspected = frozenset({1, 4})
        expected = QuorumSystem(config).fast_quorums(0, [0, 1], suspected)
        assert expected == {0: (0, 2), 1: (3, 5)}
        process = TempoProcess(
            0, config, partitioner=Partitioner(2, explicit={"a": 0, "b": 1})
        )
        for suspect in suspected:
            process.set_alive_view(suspect, False)
        process.submit(process.new_command(["a", "b"]), 0.0)
        sent = process.drain_outbox()
        # Process 0 handles its own copy inline; its MPropose goes to the
        # rest of its quorum only.
        for kind, destination in ((MSubmit, 3), (MPropose, 2)):
            envelopes = [e for e in sent if type(e.message) is kind]
            assert [e.destination for e in envelopes] == [destination]
            assert envelopes[0].message.quorums == expected


#: ``commit_relays(fast_quorum(c), I_c)`` on the paper's five EC2 sites
#: (ireland, n-california, singapore, canada, sao-paulo), per f and
#: coordinator c: sender -> the processes it serves.  Pinned literally so a
#: change to distances or tie-breaking cannot move the plan silently.
EC2_RELAYS = {
    1: {
        0: {0: [], 3: [], 1: [2, 4]},
        1: {1: [], 3: [], 0: [2, 4]},
        2: {2: [], 1: [], 0: [3, 4]},
        3: {3: [2, 4], 0: [], 1: []},
        4: {4: [], 3: [1], 0: [2]},
    },
    2: {
        0: {0: [], 3: [2], 1: [], 4: []},
        1: {1: [], 3: [4], 0: [], 2: []},
        2: {2: [], 1: [], 0: [], 3: [4]},
        3: {3: [2], 0: [], 1: [], 4: []},
        4: {4: [], 3: [2], 0: [], 1: []},
    },
}


def ec2_quorum_system(**config):
    from repro.cluster.config import ExperimentConfig
    from repro.cluster.runner import _Deployment

    return _Deployment(ExperimentConfig(protocol="tempo", **config)).quorum_system


class TestCommitRelays:
    """The fast-path ``MCommit`` relay plan (``docs/commit_relay.md``)."""

    @pytest.mark.parametrize("faults", [1, 2])
    def test_plan_on_the_ec2_sites_is_the_pinned_table(self, faults):
        quorums = ec2_quorum_system(faults=faults)
        for coordinator in range(5):
            quorum = quorums.fast_quorum(coordinator, 0)
            plan = quorums.commit_relays(quorum, range(5))
            assert plan == EC2_RELAYS[faults][coordinator]

    def test_rank_distance_three_replicas_the_member_relays(self):
        quorums = QuorumSystem(ProtocolConfig(num_processes=3, faults=1))
        assert quorums.commit_relays([0, 1], range(3)) == {0: [], 1: [2]}
        assert quorums.commit_relays([1, 0], range(3)) == {1: [], 0: [2]}
        assert quorums.commit_relays([2, 0], range(3)) == {2: [], 0: [1]}

    def test_two_shard_plan_covers_the_other_shard(self):
        """3 sites x 2 shards: ``I_c`` is all six processes.  The coordinator
        keeps only its co-located replica of the other shard (0.25 ms away);
        the one member, which holds the outcome a quorum round trip earlier
        than the coordinator, serves everybody else."""
        quorums = ec2_quorum_system(faults=1, num_sites=3, num_shards=2)
        assert quorums.commit_relays([0, 1], range(6)) == {0: [3], 1: [2, 4, 5]}
        assert quorums.commit_relays([4, 3], range(6)) == {4: [1], 3: [0, 2, 5]}
        assert quorums.commit_relays([5, 4], range(6)) == {5: [2], 4: [0, 1, 3]}

    @pytest.mark.parametrize("faults", [1, 2])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_every_outsider_has_exactly_one_sender(self, faults, shards):
        quorums = ec2_quorum_system(faults=faults, num_shards=shards)
        everyone = range(5 * shards)
        for coordinator in everyone:
            quorum = quorums.fast_quorum(coordinator, coordinator // 5)
            plan = quorums.commit_relays(quorum, everyone)
            assert set(plan) == set(quorum)
            served = sorted(target for share in plan.values() for target in share)
            assert served == sorted(set(everyone) - set(quorum))

    def test_ties_go_to_the_coordinator_then_the_lowest_id(self):
        # Uniform distances: a member learns at 2 (c -> k -> m) and the
        # coordinator at 2 as well, so every target is a tie.
        latencies = {a: {b: 0.0 if a == b else 1.0 for b in range(5)} for a in range(5)}
        quorums = QuorumSystem(
            ProtocolConfig(num_processes=5, faults=1), latencies=latencies
        )
        assert quorums.commit_relays([2, 0, 1], range(5)) == {2: [3, 4], 0: [], 1: []}
        # With the coordinator's own link slower the members tie: lowest id.
        for member in (0, 1):
            latencies[2][member] = latencies[member][2] = 3.0
        assert quorums.commit_relays([2, 1, 0], range(5)) == {2: [], 1: [], 0: [3, 4]}


#: ``fast_quorum(c, 0, {s})`` on the five EC2 sites, per f, coordinator c and
#: the one suspected site s: the nearest unsuspected peers in ``(distance,
#: id)`` order.  Pinned literally, like the healthy lists.
EC2_SUSPECTED = {
    1: {
        0: {1: [0, 3, 4], 2: [0, 3, 1], 3: [0, 1, 4], 4: [0, 3, 1]},
        1: {0: [1, 3, 2], 2: [1, 3, 0], 3: [1, 0, 2], 4: [1, 3, 0]},
        2: {0: [2, 1, 3], 1: [2, 0, 3], 3: [2, 1, 0], 4: [2, 1, 0]},
        3: {0: [3, 1, 4], 1: [3, 0, 4], 2: [3, 0, 1], 4: [3, 0, 1]},
        4: {0: [4, 3, 1], 1: [4, 3, 0], 2: [4, 3, 0], 3: [4, 0, 1]},
    },
    2: {
        0: {1: [0, 3, 4, 2], 2: [0, 3, 1, 4], 3: [0, 1, 4, 2], 4: [0, 3, 1, 2]},
        1: {0: [1, 3, 2, 4], 2: [1, 3, 0, 4], 3: [1, 0, 2, 4], 4: [1, 3, 0, 2]},
        2: {0: [2, 1, 3, 4], 1: [2, 0, 3, 4], 3: [2, 1, 0, 4], 4: [2, 1, 0, 3]},
        3: {0: [3, 1, 4, 2], 1: [3, 0, 4, 2], 2: [3, 0, 1, 4], 4: [3, 0, 1, 2]},
        4: {0: [4, 3, 1, 2], 1: [4, 3, 0, 2], 2: [4, 3, 0, 1], 3: [4, 0, 1, 2]},
    },
}


class TestSuspectedQuorums:
    """A new command's quorum avoids what its coordinator suspects
    (``docs/fault_injection.md``, "Failure detector")."""

    @pytest.mark.parametrize("faults", [1, 2])
    def test_one_suspect_on_the_ec2_sites_is_the_pinned_table(self, faults):
        quorums = ec2_quorum_system(faults=faults)
        for coordinator, by_suspect in EC2_SUSPECTED[faults].items():
            for suspect, expected in by_suspect.items():
                quorum = quorums.fast_quorum(coordinator, 0, frozenset({suspect}))
                assert quorum == expected, (coordinator, suspect)
                assert suspect not in quorum

    def test_too_few_live_peers_falls_back_to_the_cached_quorum(self):
        quorums = QuorumSystem(ProtocolConfig(num_processes=5, faults=2))
        cached = quorums.fast_quorum(0, 0)
        assert cached == [0, 1, 4, 2]
        # Two suspects leave two live peers; the quorum needs three.
        assert quorums.fast_quorum(0, 0, frozenset({1, 4})) is cached
        # One suspect leaves three: exactly enough.
        assert quorums.fast_quorum(0, 0, frozenset({1})) == [0, 4, 2, 3]
        three = QuorumSystem(ProtocolConfig(num_processes=3, faults=1))
        assert three.closest(0, 2, frozenset({1, 2})) is three.closest(0, 2)

    def test_a_suspect_outside_the_quorum_returns_the_cached_list(self):
        quorums = ec2_quorum_system(faults=1)
        cached = quorums.fast_quorum(0, 0)
        assert cached == [0, 3, 1]
        for suspect in (2, 4):
            assert quorums.fast_quorum(0, 0, frozenset({suspect})) is cached
        assert quorums.fast_quorum(0, 0, frozenset()) is cached
        # The suspect-avoiding list is never cached in its place.
        assert quorums.fast_quorum(0, 0, frozenset({3})) == [0, 1, 4]
        assert quorums.fast_quorum(0, 0) is cached
