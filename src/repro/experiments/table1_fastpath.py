"""Table 1 — fast-path examples with r = 5 and f ∈ {1, 2}.

The table walks through four proposal scenarios and shows when Tempo's
fast-path condition ``count(max proposal) >= f`` holds, illustrating that
Tempo can take the fast path even when the proposals do not match (example
a) and that f = 1 always takes the fast path (examples c, d).

This module reproduces the table both *analytically* (directly evaluating
the condition on the clock values of the table) and *operationally* (driving
real :class:`~repro.core.process.TempoProcess` instances through the same
clock configuration and observing which path they take).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cluster.replicas import build_replicas
from repro.core.config import ProtocolConfig
from repro.simulator.inline import RecordingNetwork


@dataclass(frozen=True)
class FastPathExample:
    """One row of Table 1.

    ``initial_clocks`` maps the non-coordinator fast-quorum processes (B, C,
    and D when f = 2) to their clock value before receiving the MPropose;
    the coordinator A proposes ``coordinator_proposal``.
    """

    label: str
    faults: int
    coordinator_proposal: int
    initial_clocks: Tuple[int, ...]
    expect_match: bool
    expect_fast_path: bool


#: The four examples of Table 1 (r = 5; A coordinates and proposes 6).
TABLE1_EXAMPLES: Tuple[FastPathExample, ...] = (
    FastPathExample("a", 2, 6, (6, 10, 10), expect_match=False, expect_fast_path=True),
    FastPathExample("b", 2, 6, (6, 10, 5), expect_match=False, expect_fast_path=False),
    FastPathExample("c", 1, 6, (6, 10), expect_match=False, expect_fast_path=True),
    FastPathExample("d", 1, 6, (5, 1), expect_match=True, expect_fast_path=True),
)


def analytic_row(example: FastPathExample) -> Dict[str, object]:
    """Evaluate the fast-path condition directly on the clock values."""
    proposals = [example.coordinator_proposal]
    for clock in example.initial_clocks:
        proposals.append(max(example.coordinator_proposal, clock + 1))
    final = max(proposals)
    count = sum(1 for proposal in proposals if proposal == final)
    match = len(set(proposals)) == 1
    fast = count >= example.faults
    return {
        "example": example.label,
        "f": example.faults,
        "proposals": tuple(proposals),
        "timestamp": final,
        "match": match,
        "fast_path": fast,
    }


def simulate_row(example: FastPathExample) -> Dict[str, object]:
    """Drive real Tempo processes through the example and observe the path.

    The coordinator's clock is bumped so that its proposal equals the
    table's value; the other fast-quorum members' clocks are bumped to the
    table's initial values, issuing the promises up to them as a real past
    would have.  The row reports whether an ``MConsensus``
    message (slow path) was needed and the committed timestamp.
    """
    processes = build_replicas(
        "tempo", ProtocolConfig(num_processes=5, faults=example.faults)
    ).processes
    coordinator = processes[0]
    coordinator.order.bump(example.coordinator_proposal - 1)
    quorum = coordinator.quorum_system.fast_quorum(0, 0)
    members = [process_id for process_id in quorum if process_id != 0]
    for member, clock in zip(members, example.initial_clocks):
        processes[member].order.bump(clock)
    network = RecordingNetwork(processes)
    command = coordinator.new_command(["table1-key"])
    coordinator.submit(command, 0.0)
    network.settle(rounds=10)
    slow_path = any(kind == "MConsensus" for _, _, kind in network.log)
    committed = coordinator.committed_timestamp(command.dot)
    executed = all(
        command.dot in process.executed_dots() for process in processes
    )
    return {
        "example": example.label,
        "f": example.faults,
        "timestamp": committed,
        "fast_path": not slow_path,
        "executed_everywhere": executed,
    }


def run(examples: Sequence[FastPathExample] = TABLE1_EXAMPLES) -> List[Dict[str, object]]:
    """Regenerate Table 1: analytic and simulated outcome per example."""
    rows: List[Dict[str, object]] = []
    for example in examples:
        analytic = analytic_row(example)
        simulated = simulate_row(example)
        rows.append(
            {
                "example": example.label,
                "f": example.faults,
                "proposals": analytic["proposals"],
                "timestamp": analytic["timestamp"],
                "match": analytic["match"],
                "fast_path(analytic)": analytic["fast_path"],
                "fast_path(simulated)": simulated["fast_path"],
                "expected_fast_path": example.expect_fast_path,
            }
        )
    return rows
