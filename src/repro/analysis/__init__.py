"""Correctness analysis: the executable specification of the reproduction.

Three pillars (see ``docs/correctness_spec.md``):

* :mod:`repro.analysis.trace` / :mod:`repro.analysis.consistency` — record
  per-replica execution traces behind
  ``ExperimentConfig.record_execution_trace`` and assert the Tempo/PSMR
  invariants (per-key order agreement, timestamp monotonicity,
  execute-at-most-once, real-time order against client windows).
* :mod:`repro.analysis.smallmodel` — exhaustive DFS over all delivery-order
  interleavings of a bounded schedule (TLA+-style state enumeration) of any
  of the six protocols — Tempo, Atlas, EPaxos, Caesar, FPaxos and Janus* —
  with Tempo's coordinator crash and message loss on top, over a state
  digest derived from every non-exempt attribute.
* :mod:`repro.analysis.lint` — AST-based source gates, runnable as
  ``python -m repro.analysis.lint``.

The analysis layer deliberately reads protocol internals (``_info`` tables,
promise frontiers): it is the auditor, not part of the protocol surface.
"""

from repro.analysis.consistency import ConsistencyReport, Violation, check_run
from repro.analysis.trace import ExecutionTraceRecorder, TraceEvent

__all__ = [
    "ConsistencyReport",
    "ExecutionTraceRecorder",
    "TraceEvent",
    "Violation",
    "check_run",
]
