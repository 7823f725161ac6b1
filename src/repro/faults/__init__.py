"""Declarative fault injection for the discrete-event simulator.

A :class:`~repro.faults.plan.FaultPlan` is a timeline of typed fault events
(crash, restart, bidirectional partition + heal, flaky-link degradation
windows, message-class-targeted loss), validated once against the
deployment by ``ExperimentConfig``.  The simulator starts and ends every
event at its simulated time (``Simulation.schedule_faults``), and the
network applies the open window events themselves.  See
``docs/fault_injection.md``.
"""

from repro.faults.plan import (
    Crash,
    FaultPlan,
    FlakyLink,
    Partition,
    Restart,
    TargetedLoss,
)

__all__ = [
    "Crash",
    "FaultPlan",
    "FlakyLink",
    "Partition",
    "Restart",
    "TargetedLoss",
]
