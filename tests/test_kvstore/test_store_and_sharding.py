"""Tests for the key-value store and the shard map."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.core.commands import Command, Partitioner
from repro.core.identifiers import Dot
from repro.kvstore.sharding import ShardMap
from repro.kvstore.store import KeyValueStore


class TestKeyValueStore:
    def test_write_then_read(self):
        store = KeyValueStore()
        store.apply(Command.write(Dot(0, 1), ["k"]))
        result = store.apply(Command.read(Dot(0, 2), ["k"]))
        assert result["k"] == str(Dot(0, 1))

    def test_read_of_absent_key_returns_none(self):
        store = KeyValueStore()
        result = store.apply(Command.read(Dot(0, 1), ["missing"]))
        assert result["missing"] is None

    def test_snapshot_is_a_copy(self):
        store = KeyValueStore()
        store.apply(Command.write(Dot(0, 1), ["k"]))
        snapshot = store.snapshot()
        snapshot["k"] = "tampered"
        assert store.get("k") != "tampered"

    def test_stores_are_equal_when_their_contents_are(self):
        first, second = KeyValueStore(), KeyValueStore()
        assert first == second
        first.apply(Command.write(Dot(0, 1), ["k"]))
        assert first != second
        second.apply(Command.write(Dot(0, 1), ["k"]))
        assert first == second
        second.apply(Command.write(Dot(0, 2), ["k"]))
        assert first != second
        assert first != first.snapshot()

    def test_len_counts_keys(self):
        store = KeyValueStore()
        store.apply(Command.write(Dot(0, 1), ["a", "b", "c"]))
        assert len(store) == 3

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=30))
    def test_last_writer_wins_per_key(self, keys):
        store = KeyValueStore()
        last = {}
        for index, key in enumerate(keys, start=1):
            command = Command.write(Dot(0, index), [key])
            store.apply(command)
            last[key] = str(command.dot)
        for key, value in last.items():
            assert store.get(key) == value


class TestShardMap:
    def test_numeric_keys_round_robin(self):
        shards = ShardMap(4)
        assert shards.partition_of("user8") == 0
        assert shards.partition_of("user9") == 1
        assert shards.partition_of("user10") == 2
        assert shards.partition_of("user11") == 3

    def test_key_for_is_inverse_of_shard_of_key(self):
        shards = ShardMap(6, keys_per_shard=100)
        for shard in range(6):
            for index in (0, 5, 99):
                key = shards.key_for(shard, index)
                assert shards.partition_of(key) == shard

    def test_total_keys(self):
        assert ShardMap(2, keys_per_shard=1000).total_keys() == 2000

    def test_distribution_is_roughly_uniform_for_sequential_keys(self):
        shards = ShardMap(4)
        keys = [f"user{index}" for index in range(400)]
        histogram = Counter(shards.partition_of(key) for key in keys)
        assert histogram == {shard: 100 for shard in range(4)}

    def test_partitioner_adapter(self):
        shards = ShardMap(3)
        assert isinstance(shards, Partitioner)
        assert shards.num_partitions == shards.num_shards == 3
        assert shards.partition_of("user4") == 1
        # One shard is full replication: every key in partition 0.
        assert ShardMap(1).partition_of("user4") == 0
        shards.assign("user4", 2)
        assert shards.partition_of("user4") == 2

    def test_shards_of_keys(self):
        shards = ShardMap(4)
        command = Command.write(Dot(0, 1), ["user0", "user1", "user4"])
        assert command.partitions(shards) == {0, 1}

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ShardMap(0)
        shards = ShardMap(2, keys_per_shard=10)
        with pytest.raises(ValueError):
            shards.key_for(5, 0)
        with pytest.raises(ValueError):
            shards.key_for(0, 100)

    def test_non_numeric_keys_are_hashed_stably(self):
        shards = ShardMap(5)
        assert shards.partition_of("alpha") == shards.partition_of("alpha")
        assert 0 <= shards.partition_of("alpha") < 5
