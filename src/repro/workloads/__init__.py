"""Workload generators used by the evaluation (§6.2, §6.4)."""

from repro.workloads.micro import MicroWorkload
from repro.workloads.ycsbt import YcsbTWorkload, YCSB_WORKLOADS
from repro.workloads.batching import BatchingModel

__all__ = [
    "BatchingModel",
    "MicroWorkload",
    "YCSB_WORKLOADS",
    "YcsbTWorkload",
]
