"""Unit tests for the protocol configuration and deployment helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.config import ProtocolConfig
from repro.core.quorums import QuorumSystem


class TestQuorumSizes:
    @pytest.mark.parametrize(
        "r,f,fast,slow,recovery",
        [
            (3, 1, 2, 2, 2),
            (5, 1, 3, 2, 4),
            (5, 2, 4, 3, 3),
            (7, 1, 4, 2, 6),
            (7, 3, 6, 4, 4),
        ],
    )
    def test_quorum_sizes_match_paper(self, r, f, fast, slow, recovery):
        config = ProtocolConfig(num_processes=r, faults=f)
        assert config.fast_quorum_size == fast
        assert config.slow_quorum_size == slow
        assert config.recovery_quorum_size == recovery

    @pytest.mark.parametrize("r,expected", [(3, 2), (5, 3), (7, 4)])
    def test_majority(self, r, expected):
        assert ProtocolConfig(num_processes=r, faults=1).majority == expected

    def test_epaxos_and_caesar_quorums_for_five_processes(self):
        config = ProtocolConfig(num_processes=5, faults=1)
        assert config.epaxos_fast_quorum_size == 3
        assert config.caesar_fast_quorum_size == 4

    def test_rejects_f_above_flexible_paxos_bound(self):
        with pytest.raises(ValueError):
            ProtocolConfig(num_processes=5, faults=3)

    def test_rejects_zero_faults(self):
        with pytest.raises(ValueError):
            ProtocolConfig(num_processes=5, faults=0)

    @given(st.integers(min_value=3, max_value=15), st.integers(min_value=1, max_value=7))
    def test_fast_quorum_always_at_least_majority(self, r, f):
        if f > (r - 1) // 2:
            return
        config = ProtocolConfig(num_processes=r, faults=f)
        assert config.fast_quorum_size >= config.majority
        assert config.slow_quorum_size <= config.recovery_quorum_size


class TestProcessLayout:
    def test_processes_of_partition(self):
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=2)
        assert config.processes_of_partition(0) == [0, 1, 2]
        assert config.processes_of_partition(1) == [3, 4, 5]

    def test_partition_of_process_inverse(self):
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=4)
        for partition in range(4):
            for process in config.processes_of_partition(partition):
                assert config.partition_of_process(process) == partition

    def test_rank_and_site(self):
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=2)
        assert config.rank_in_partition(4) == 1
        assert config.site_of_process(4) == 1

    def test_colocated_processes(self):
        # Co-location is what the coordinator choice computes: a rank-1
        # submitter's coordinators are the rank-1 replicas of every shard.
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=3)
        coordinators = QuorumSystem(config).coordinators_for(1, [0, 1, 2])
        assert coordinators == {0: 1, 1: 4, 2: 7}
        assert {config.site_of_process(p) for p in coordinators.values()} == {1}

    def test_total_processes(self):
        config = ProtocolConfig(num_processes=5, faults=2, num_partitions=6)
        assert config.total_processes() == 30

    def test_out_of_range_lookups_raise(self):
        config = ProtocolConfig(num_processes=3, faults=1)
        with pytest.raises(ValueError):
            config.processes_of_partition(1)
        with pytest.raises(ValueError):
            config.partition_of_process(3)
