"""Workload generators used by the evaluation (§6.2, §6.4)."""

from repro.workloads.micro import MicroWorkload
from repro.workloads.ycsbt import YcsbTWorkload

__all__ = [
    "MicroWorkload",
    "YcsbTWorkload",
]
