"""Fault-injection campaign: the trace-certified scenario matrix.

Runs the full adversarial grid of :mod:`repro.experiments.scenarios` —
crash-site/time sweep, crash/restart, partition/heal, flaky links,
message-class-targeted loss and Zipfian skew, for every protocol — with
execution tracing forced on, so every row of
``results/scenario_matrix.txt`` certifies that the run's invariants held
(``run_experiment`` raises on any trace violation).

The matrix doubles as the CI regression gate for the unhappy paths:

* every cell whose fault plan can lose or delay traffic *asserts*
  convergence inside ``run_cell`` (no stuck commands, one agreed execution
  order per shard) — the reliable-delivery layer flips the formerly
  stranded restart/partition/flaky/targeted cells; only the baselines'
  coordinator crashes, outside the paper's scope, report ``converged=no*``
  and put the table's legend under it;
* the promoted worst cells (Tempo's crash and partition cells, whose
  recovery stalls dominate the grid) additionally gate their p99.9 under
  ``WORST_CELL_TAIL_BOUND_MS``;
* the emitted table is deterministic byte-for-byte, so the results-drift
  CI job diffs it like every other golden figure.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.scenarios import (
    NOT_CONVERGED_BY_SCOPE,
    TITLE,
    WORST_CELL_TAIL_BOUND_MS,
    ScenarioOptions,
    build_matrix,
    legend,
    run_cell,
)


@pytest.fixture(autouse=True)
def _force_trace_check(monkeypatch):
    """Every cell runs under the trace checker, whatever the environment."""
    monkeypatch.setitem(os.environ, "REPRO_TRACE_CHECK", "1")


def test_bench_scenario_matrix(benchmark, results_emitter):
    cells = build_matrix(ScenarioOptions())

    # Coverage floor: the campaign must sweep >= 3 protocols x >= 4 fault
    # shapes (the zipf control rides along as the fifth).
    protocols = {cell.protocol for cell in cells}
    shapes = {cell.shape for cell in cells}
    assert len(protocols) >= 3, protocols
    assert len(shapes) >= 4, shapes

    rows = benchmark.pedantic(
        lambda: [run_cell(cell) for cell in cells], rounds=1, iterations=1
    )
    results_emitter("scenario_matrix", rows, TITLE, footnote=legend(rows))

    # Every protocol with a liveness story converged in every cell that
    # requires it (run_cell already asserted; spot-check the table too).
    by_cell = {(row["scenario"], row["protocol"]): row for row in rows}
    for cell in cells:
        row = by_cell[(cell.name, cell.protocol)]
        if cell.requires_convergence:
            assert row["converged"] == "yes", row
            assert row["stuck"] == 0, row
        if cell.tail_gated:
            assert float(row["p99.9"]) <= WORST_CELL_TAIL_BOUND_MS, row

    # The MStable send-once gap is closed: the blocked partition's repair
    # pass asks for the lost notifications again, so the targeted loss
    # cell drains completely once the window lifts.
    mstable = by_cell[("mstable-loss/x-shard", "tempo")]
    assert mstable["converged"] == "yes" and mstable["stuck"] == 0, mstable

    # The reliable-delivery layer retransmits the baselines' commit
    # broadcasts until acked, so sustained targeted loss no longer
    # strands work on them.
    for protocol in ("atlas", "epaxos"):
        loss = by_cell[("commit-loss/p0.3", protocol)]
        assert loss["stuck"] == 0 and loss["converged"] == "yes", loss

    # Crash/restart: every restarted replica catches up — Tempo via its
    # liveness machinery, the baselines via commit retransmission and
    # coordinator re-solicitation — AND the watermark GC, stalled while
    # the peer was down, resumed collecting after the catch-up.
    restart_cells = [cell for cell in cells if cell.shape == "restart"]
    assert restart_cells, "restart shape missing from the matrix"
    for cell in restart_cells:
        row = by_cell[(cell.name, cell.protocol)]
        assert row["converged"] == "yes" and row["stuck"] == 0, row
        assert row["gc"] > 0, row

    # The baselines' coordinator crash stays honestly reported, and says
    # why: Atlas / EPaxos coordinator recovery is outside the paper's scope
    # (the dead coordinator's quorum state is not reconstructible).
    for protocol in ("atlas", "epaxos"):
        crashed = by_cell[("crash@s0/t800", protocol)]
        assert crashed["stuck"] > 0, crashed
        assert crashed["converged"] == NOT_CONVERGED_BY_SCOPE, crashed
