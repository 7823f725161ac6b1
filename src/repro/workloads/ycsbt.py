"""YCSB+T workload for the partial-replication experiments (§6.4).

Clients submit transactions that access two keys picked at random following
the YCSB access pattern (a zipfian distribution over the key space).  The
paper uses three YCSB mixes for Janus*:

* workload C — read-only (w = 0 %), the best case for Janus*;
* workload B — read-heavy (w = 5 % writes);
* workload A — update-heavy (w = 50 % writes);

and two contention levels, ``zipf = 0.5`` and ``zipf = 0.7``.  Tempo does
not distinguish reads from writes, so a single Tempo workload covers all
mixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.kvstore.sharding import ShardMap
from repro.simulator.rng import SeededRng, ZipfSampler

#: Keys per transaction: the paper's YCSB+T transactions access two.
KEYS_PER_TRANSACTION = 2


@dataclass
class YcsbTWorkload:
    """Two-key zipfian transactions over a sharded key space."""

    client_id: int
    shard_map: ShardMap
    zipf: float = 0.5
    write_ratio: float = 0.05
    keys_per_shard: int = 10_000
    payload_size: int = 100
    rng: Optional[SeededRng] = None
    _sampler: Optional[ZipfSampler] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        if self.rng is None:
            self.rng = SeededRng(seed=self.client_id + 1)
        total_keys = min(
            self.shard_map.total_keys(),
            self.keys_per_shard * self.shard_map.num_shards,
        )
        self._sampler = ZipfSampler(total_keys, self.zipf, rng=self.rng)

    def next_keys(self) -> List[str]:
        """Keys accessed by the next transaction (popularity-ranked)."""
        assert self._sampler is not None
        indices = self._sampler.sample_distinct(KEYS_PER_TRANSACTION)
        return [f"user{index}" for index in indices]

    def next_is_read(self) -> bool:
        """Whether the next transaction is read-only."""
        assert self.rng is not None
        return self.rng.uniform() >= self.write_ratio
