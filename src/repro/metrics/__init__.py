"""Latency and throughput metrics."""

from repro.metrics.histogram import LatencyHistogram
from repro.metrics.throughput import ThroughputTracker
from repro.metrics.report import format_table

__all__ = [
    "LatencyHistogram",
    "ThroughputTracker",
    "format_table",
]
