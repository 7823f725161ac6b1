"""Benchmark regenerating the §D pathological scenarios."""

from __future__ import annotations


def test_bench_pathological_schedule(golden):
    rows = golden("pathological")
    by_protocol = {str(row["protocol"]): row for row in rows}

    # Tempo keeps committing and executing while the schedule runs.
    assert int(by_protocol["tempo"]["committed_during"]) > 0
    assert int(by_protocol["tempo"]["executed_during"]) > 0

    # EPaxos executes nothing during the schedule and builds a strongly
    # connected component that grows with the schedule length.
    assert int(by_protocol["epaxos"]["executed_during"]) == 0
    assert int(by_protocol["epaxos"]["largest_component"]) >= 12

    # Caesar commits nothing during the schedule: replies are blocked by the
    # wait condition.
    assert int(by_protocol["caesar"]["committed_during"]) == 0
    assert int(by_protocol["caesar"]["blocked_replies"]) > 0

    # Once the adversary relents, liveness is restored everywhere.
    for row in rows:
        assert int(row["executed_final"]) == int(row["submitted"])


def test_bench_pathological_component_growth(golden):
    """EPaxos' largest component grows linearly with the schedule length."""
    rows = golden("pathological_growth")
    sizes = [int(row["largest_component"]) for row in rows]
    assert sizes[0] < sizes[1] < sizes[2]
    assert all(int(row["executed_during"]) == 0 for row in rows)
