"""Cluster harness: replicas + closed-loop clients + experiment runner.

This package is the equivalent of the paper's benchmarking framework: it
deploys a protocol over a set of sites (using the discrete-event simulator
as the testbed), attaches closed-loop clients at each site, runs a workload
for a configured duration and reports latency/throughput metrics.
"""

from repro.cluster.client import ClosedLoopClient
from repro.cluster.config import ExperimentConfig
from repro.cluster.replicas import Replicas, build_replicas
from repro.cluster.runner import ExperimentResult, run_experiment

__all__ = [
    "ClosedLoopClient",
    "ExperimentConfig",
    "ExperimentResult",
    "Replicas",
    "build_replicas",
    "run_experiment",
]
