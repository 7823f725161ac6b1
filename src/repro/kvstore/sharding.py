"""Shard and partition mapping for partial replication (§6.4).

The paper defines a *shard* as a set of partitions co-located on the same
machine; each YCSB key is its own partition and each shard holds 1M keys.
This module provides the mapping from keys to partitions to shards that the
partial-replication experiments and the Janus*/Tempo multi-partition
deployments use.
"""

from __future__ import annotations

from repro.core.commands import Partitioner, stable_hash


class ShardMap(Partitioner):
    """Maps keys onto shards: the partitioner of every cluster deployment.

    In this reproduction a *partition* (in the protocol sense) corresponds to
    one shard: the protocol state machine per shard orders all keys of that
    shard.  This matches how the paper's implementation co-locates the
    partitions of a shard in one protocol instance per machine.
    """

    def __init__(self, num_shards: int, keys_per_shard: int = 1_000_000) -> None:
        super().__init__(num_shards)
        if keys_per_shard < 1:
            raise ValueError("keys_per_shard must be >= 1")
        self.keys_per_shard = keys_per_shard

    @property
    def num_shards(self) -> int:
        return self.num_partitions

    def partition_of(self, key: str) -> int:
        """Shard holding ``key``.

        A key pinned with :meth:`assign` stays where it was pinned.
        YCSB-style keys (``user<number>``) are mapped round-robin by their
        numeric suffix so that load spreads uniformly; other keys fall back
        to the stable string hash.
        """
        if key in self._explicit:
            return self._explicit[key]
        if self.num_partitions == 1:
            return 0
        digits = "".join(ch for ch in key if ch.isdigit())
        if digits:
            return int(digits) % self.num_partitions
        return stable_hash(key) % self.num_partitions

    def key_for(self, shard: int, index: int) -> str:
        """The ``index``-th key of ``shard`` (inverse of :meth:`partition_of`)."""
        if not 0 <= shard < self.num_shards:
            raise ValueError("shard out of range")
        if not 0 <= index < self.keys_per_shard:
            raise ValueError("index out of range")
        return f"user{index * self.num_shards + shard}"

    def total_keys(self) -> int:
        return self.num_shards * self.keys_per_shard
