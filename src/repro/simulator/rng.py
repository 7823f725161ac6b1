"""Deterministic random number utilities for simulations and workloads."""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from typing import List, Optional, Tuple

#: Named sub-stream for fault-injection randomness (link drop/jitter draws,
#: targeted message loss).  Splitting it off the network's main stream means
#: enabling a fault plan in one experiment cell can never shift the workload
#: or baseline-jitter randomness of another: a healthy run makes zero draws
#: from the fault stream, so it is bit-identical with and without an (empty)
#: fault plan installed.
FAULT_RNG_STREAM = 0xFA17


class SeededRng:
    """A thin wrapper over :class:`random.Random` with workload helpers.

    Every stochastic component of the repository (network jitter, workload
    key choice, zipfian sampling) draws from a :class:`SeededRng` so that
    experiments are reproducible given a seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def uniform(self) -> float:
        """Uniform draw in [0, 1)."""
        return self._random.random()

    def uniform_between(self, low: float, high: float) -> float:
        """Uniform draw in [low, high)."""
        if high < low:
            raise ValueError("high must be >= low")
        return low + (high - low) * self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def shuffle(self, items: List) -> List:
        """Return a shuffled copy of ``items``."""
        copy = list(items)
        self._random.shuffle(copy)
        return copy

    def exponential(self, mean: float) -> float:
        """Exponential draw with the given mean (used for think times)."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return self._random.expovariate(1.0 / mean)

    def fork(self, stream: int) -> "SeededRng":
        """Derive an independent generator for a sub-component."""
        return SeededRng(seed=(self.seed * 1_000_003 + stream) % (2**63))

    def fault_stream(self) -> "SeededRng":
        """The named fault-injection sub-stream of this generator.

        Derived from the seed alone (no draws are consumed), so building it
        never perturbs the parent stream.
        """
        return self.fork(FAULT_RNG_STREAM)


@lru_cache(maxsize=8)
def _zipf_cdf(num_items: int, theta: float) -> Tuple[float, ...]:
    """Cumulative Zipf distribution over ``num_items`` ranks, last entry 1.0.

    Immutable and cached: every sampler of one ``(num_items, theta)`` — one
    per client of a YCSB+T run — reads the same table.
    """
    weights = [1.0 / ((rank + 1) ** theta) for rank in range(num_items)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    cumulative[-1] = 1.0
    return tuple(cumulative)


class ZipfSampler:
    """Zipfian sampler over ``{0, .., n-1}`` with exponent ``theta``.

    Used by the YCSB+T workload (§6.4): the paper evaluates ``zipf = 0.5``
    (low contention) and ``zipf = 0.7`` (moderate contention).  The
    cumulative distribution is shared between samplers (:func:`_zipf_cdf`);
    a sampler owns only its RNG, and sampling is O(log n).
    """

    def __init__(self, num_items: int, theta: float, rng: Optional[SeededRng] = None) -> None:
        if num_items < 1:
            raise ValueError("num_items must be >= 1")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.num_items = num_items
        self.theta = theta
        self.rng = rng or SeededRng()
        self._cumulative = _zipf_cdf(num_items, theta)

    def sample(self) -> int:
        """Draw one item index; smaller indices are more popular."""
        # The first rank whose cumulative weight reaches the draw; draws are
        # below 1.0 and the last entry is 1.0, so the search never needs it.
        return bisect_left(self._cumulative, self.rng.uniform(), 0, self.num_items - 1)

    def sample_distinct(self, count: int) -> List[int]:
        """Draw ``count`` distinct item indices."""
        if count > self.num_items:
            raise ValueError("cannot draw more distinct items than exist")
        chosen: List[int] = []
        seen = set()
        while len(chosen) < count:
            item = self.sample()
            if item not in seen:
                seen.add(item)
                chosen.append(item)
        return chosen
