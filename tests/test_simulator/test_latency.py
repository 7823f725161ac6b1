"""Unit tests for the EC2 latency data (Table 2) and latency matrices."""

from __future__ import annotations

import pytest

from repro.simulator.latency import (
    EC2_PING_LATENCIES,
    EC2_REGIONS,
    LatencyMatrix,
    ec2_latency_matrix,
    uniform_latency_matrix,
)


class TestTable2Data:
    def test_all_five_regions_present(self):
        assert set(EC2_REGIONS) == {
            "ireland",
            "n-california",
            "singapore",
            "canada",
            "sao-paulo",
        }

    def test_ping_matrix_is_symmetric(self):
        for a in EC2_REGIONS:
            for b in EC2_REGIONS:
                assert EC2_PING_LATENCIES[a][b] == EC2_PING_LATENCIES[b][a]

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("ireland", "n-california", 141.0),
            ("ireland", "singapore", 186.0),
            ("ireland", "canada", 72.0),
            ("ireland", "sao-paulo", 183.0),
            ("n-california", "singapore", 181.0),
            ("n-california", "canada", 78.0),
            ("n-california", "sao-paulo", 190.0),
            ("singapore", "canada", 221.0),
            ("singapore", "sao-paulo", 338.0),
            ("canada", "sao-paulo", 123.0),
        ],
    )
    def test_values_match_table2(self, a, b, expected):
        assert EC2_PING_LATENCIES[a][b] == expected

    def test_ping_range_matches_paper_statement(self):
        """§6.2: average ping latencies range from 72ms to 338ms."""
        cross = [
            EC2_PING_LATENCIES[a][b]
            for a in EC2_REGIONS
            for b in EC2_REGIONS
            if a != b
        ]
        assert min(cross) == 72.0
        assert max(cross) == 338.0


class TestLatencyMatrix:
    def test_one_way_is_half_the_ping(self):
        matrix = ec2_latency_matrix()
        assert matrix.latency("ireland", "canada") == 36.0
        assert matrix.rtt("ireland", "canada") == 72.0

    def test_local_latency_is_small(self):
        matrix = ec2_latency_matrix()
        assert matrix.latency("ireland", "ireland") < 1.0

    def test_closest_sites_for_ireland(self):
        matrix = ec2_latency_matrix()
        assert matrix.closest_sites("ireland", 2) == ["canada", "n-california"]

    def test_quorum_latency_matches_fast_path_expectations(self):
        matrix = ec2_latency_matrix()
        # Fast quorum of size 3 for Ireland: {Ireland, Canada, N.California};
        # the round trip is bounded by the farthest member.
        assert matrix.quorum_latency("ireland", 3) == pytest.approx(141.0)
        assert matrix.quorum_latency("canada", 3) == pytest.approx(78.0)
        assert matrix.quorum_latency("singapore", 3) == pytest.approx(186.0)

    def test_quorum_of_one_is_free(self):
        matrix = ec2_latency_matrix()
        assert matrix.quorum_latency("ireland", 1) == 0.0

    def test_missing_entries_are_rejected(self):
        with pytest.raises(ValueError):
            LatencyMatrix(sites=["a", "b"], one_way={"a": {"a": 1.0}})

    def test_uniform_matrix(self):
        matrix = uniform_latency_matrix(["x", "y", "z"], one_way_ms=10.0)
        assert matrix.latency("x", "y") == 10.0
        assert matrix.rtt("x", "z") == 20.0
        assert matrix.latency("x", "x") < 10.0

    def test_subset_of_regions(self):
        matrix = ec2_latency_matrix(["ireland", "canada", "n-california"])
        assert set(matrix.sites) == {"ireland", "canada", "n-california"}
