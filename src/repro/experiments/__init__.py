"""Experiment drivers: one module per table/figure of the evaluation (§6).

Each driver returns plain rows at the golden's parameters, which are module
constants; :mod:`repro.experiments.goldens` names each table after its
``results/`` file.  ``PYTHONPATH=src python -m pytest benchmarks/``
regenerates every golden under ``results/``, and ``python -m repro figure
NAME`` prints one of them.

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
