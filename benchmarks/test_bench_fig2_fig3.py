"""Benchmark regenerating Figures 2 and 3 (stability examples)."""

from __future__ import annotations

from repro.experiments import fig2_stability


def test_bench_fig2_stability_table(golden):
    rows = golden("fig2_stability")
    for row in rows:
        assert row["stable_timestamp"] == row["expected"]


def test_bench_fig3_comparison(golden):
    golden("fig3_comparison")
    tempo = fig2_stability.figure3_tempo()
    epaxos = fig2_stability.figure3_epaxos()
    caesar = fig2_stability.figure3_caesar()
    # Tempo executes w and y despite x being uncommitted; the others stall.
    assert tempo["stable_timestamp"] == 2 and len(tempo["executable"]) == 2
    assert epaxos["blocked_on_x"] and not epaxos["executable"]
    assert caesar["blocked_on_x"] and not caesar["committed"]
