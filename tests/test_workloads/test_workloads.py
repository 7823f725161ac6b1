"""Tests for the microbenchmark and YCSB+T workloads."""

from __future__ import annotations

import pytest

from repro.kvstore.sharding import ShardMap
from repro.simulator.rng import SeededRng
from repro.workloads.micro import MicroWorkload
from repro.workloads.ycsbt import YcsbTWorkload


class TestMicroWorkload:
    def test_zero_conflict_rate_never_picks_the_hot_key(self):
        workload = MicroWorkload(client_id=1, conflict_rate=0.0, rng=SeededRng(1))
        keys = [key for _ in range(200) for key in workload.next_keys()]
        assert "key-0" not in keys

    def test_full_conflict_rate_always_picks_the_hot_key(self):
        workload = MicroWorkload(client_id=1, conflict_rate=1.0, rng=SeededRng(1))
        for _ in range(50):
            assert workload.next_keys() == ["key-0"]

    def test_conflict_rate_is_approximately_respected(self):
        workload = MicroWorkload(client_id=3, conflict_rate=0.1, rng=SeededRng(7))
        draws = 5000
        hot = sum(1 for _ in range(draws) if workload.next_keys() == ["key-0"])
        assert 0.07 <= hot / draws <= 0.13

    def test_private_keys_are_unique_per_client(self):
        workload = MicroWorkload(client_id=5, conflict_rate=0.0, rng=SeededRng(1))
        keys = [workload.next_keys()[0] for _ in range(100)]
        assert len(set(keys)) == 100
        assert all(key.startswith("key-c5-") for key in keys)

    def test_issues_writes_only(self):
        workload = MicroWorkload(client_id=1, rng=SeededRng(1))
        reference = SeededRng(1)
        assert not workload.next_is_read()
        assert workload.rng.uniform() == reference.uniform()

    def test_multi_key_commands_deduplicate_keys(self):
        workload = MicroWorkload(
            client_id=1, conflict_rate=1.0, keys_per_command=3, rng=SeededRng(1)
        )
        assert workload.next_keys() == ["key-0"]

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroWorkload(client_id=0, conflict_rate=2.0)
        with pytest.raises(ValueError):
            MicroWorkload(client_id=0, keys_per_command=0)


class TestYcsbT:
    def test_two_distinct_keys_per_transaction(self):
        workload = YcsbTWorkload(
            client_id=1, shard_map=ShardMap(2), zipf=0.5, rng=SeededRng(2)
        )
        for _ in range(50):
            keys = workload.next_keys()
            assert len(keys) == 2 and len(set(keys)) == 2

    def test_read_only_workload_never_writes(self):
        workload = YcsbTWorkload(
            client_id=1, shard_map=ShardMap(2), write_ratio=0.0, rng=SeededRng(3)
        )
        assert all(workload.next_is_read() for _ in range(100))

    def test_higher_zipf_concentrates_on_popular_keys(self):
        low = YcsbTWorkload(
            client_id=1, shard_map=ShardMap(2), zipf=0.1, keys_per_shard=500,
            rng=SeededRng(4),
        )
        high = YcsbTWorkload(
            client_id=1, shard_map=ShardMap(2), zipf=0.99, keys_per_shard=500,
            rng=SeededRng(4),
        )

        def popular_fraction(workload):
            hits = 0
            for _ in range(500):
                for key in workload.next_keys():
                    if int(key[4:]) < 20:
                        hits += 1
            return hits

        assert popular_fraction(high) > popular_fraction(low)

    def test_write_ratio_validation(self):
        with pytest.raises(ValueError):
            YcsbTWorkload(client_id=1, shard_map=ShardMap(2), write_ratio=1.5)
