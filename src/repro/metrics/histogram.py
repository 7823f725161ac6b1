"""Latency histograms and percentile computation.

The evaluation reports mean per-site latency (Figure 5) and tail percentiles
from the 95th to the 99.99th (Figure 6); this module provides both.

Percentile semantics
--------------------

Percentiles use the *nearest-rank* definition: the ``p``-th percentile of
``n`` sorted samples is the sample at rank ``ceil(p / 100 * n)`` (1-based).
Because ``p`` arrives as a binary float, the product ``p / 100 * n`` can land
an ulp *above* an exact integer rank (e.g. ``99.9 / 100 * 1000`` evaluates to
``999.0000000000001``), which would push ``ceil`` one rank too high.  The
rank computation therefore applies a ``1e-9`` tolerance before ``ceil`` so
ranks that are integral up to float error stay at the exact rank.

Streaming summaries
-------------------

:class:`LatencyHistogram` keeps running count/sum/min/max aggregates, so
``mean``/``minimum``/``maximum`` (and the non-percentile part of
``summary``) are O(1) queries that never touch or sort the sample list;
samples are sorted lazily, at most once per batch of inserts, and only when
a percentile is actually requested.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

#: Tolerance applied before ``ceil`` in the nearest-rank computation, making
#: it immune to binary floating-point error in ``percentile / 100 * n``.
_RANK_EPSILON = 1e-9


def nearest_rank(percentile: float, count: int) -> int:
    """1-based nearest rank of ``percentile`` among ``count`` samples.

    Computes ``ceil(percentile / 100 * count)`` with a ``1e-9`` tolerance so
    binary-float error cannot push an exact integer rank one step up.
    """
    return math.ceil(percentile / 100.0 * count - _RANK_EPSILON)


class LatencyHistogram:
    """Collects latency samples (milliseconds) and answers summary queries."""

    def __init__(self, samples: Optional[Iterable[float]] = None) -> None:
        self._samples: List[float] = []
        self._sorted = True
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        if samples is not None:
            for sample in samples:
                self.record(sample)

    def record(self, latency_ms: float) -> None:
        """Record one latency sample."""
        if latency_ms < 0:
            raise ValueError("latency samples must be non-negative")
        value = float(latency_ms)
        self._samples.append(value)
        self._sorted = False
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Merge another histogram into this one (in place) and return self."""
        if other._samples:
            self._samples.extend(other._samples)
            self._sorted = False
            self._sum += other._sum
            if other._min < self._min:
                self._min = other._min
            if other._max > self._max:
                self._max = other._max
        return self

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def __len__(self) -> int:
        return len(self._samples)

    def is_empty(self) -> bool:
        return not self._samples

    def mean(self) -> float:
        """Average latency (0 when empty)."""
        if not self._samples:
            return 0.0
        return self._sum / len(self._samples)

    def minimum(self) -> float:
        if not self._samples:
            return 0.0
        return self._min

    def maximum(self) -> float:
        if not self._samples:
            return 0.0
        return self._max

    def percentile(self, percentile: float) -> float:
        """Latency at the given percentile (nearest-rank, e.g. 99.9)."""
        if not 0.0 < percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if not self._samples:
            return 0.0
        self._ensure_sorted()
        rank = nearest_rank(percentile, len(self._samples))
        index = min(len(self._samples) - 1, max(0, rank - 1))
        return self._samples[index]

    def summary(self) -> Dict[str, float]:
        """Mean / p50 / p95 / p99 / p99.9 / p99.99 / max in one dictionary."""
        return {
            "count": float(len(self._samples)),
            "mean": self.mean(),
            "p50": self.percentile(50.0) if self._samples else 0.0,
            "p95": self.percentile(95.0) if self._samples else 0.0,
            "p99": self.percentile(99.0) if self._samples else 0.0,
            "p99.9": self.percentile(99.9) if self._samples else 0.0,
            "p99.99": self.percentile(99.99) if self._samples else 0.0,
            "max": self.maximum(),
        }

    def samples(self) -> List[float]:
        """Copy of the recorded samples."""
        return list(self._samples)
