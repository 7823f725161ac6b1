"""Experiment drivers: one module per table/figure of the evaluation (§6).

Each driver returns plain data structures (rows/series) that the benchmark
harness prints, so running ``pytest benchmarks/ --benchmark-only`` regenerates
the content of every table and figure; the measured numbers are the goldens
under ``results/``.

Figure/table drivers are imported lazily (``repro.experiments.fig5_fairness``
etc.) to keep importing the throughput model light.
"""

from repro.experiments.throughput_model import (
    CostModel,
    ProtocolCosts,
    max_throughput,
    protocol_costs,
    utilization_heatmap,
)

__all__ = [
    "CostModel",
    "ProtocolCosts",
    "max_throughput",
    "protocol_costs",
    "utilization_heatmap",
]
