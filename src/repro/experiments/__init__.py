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
    max_throughput,
    protocol_costs,
    saturation,
    utilization_heatmap,
)

__all__ = [
    "max_throughput",
    "protocol_costs",
    "saturation",
    "utilization_heatmap",
]
