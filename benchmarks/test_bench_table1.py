"""Benchmark regenerating Table 1 (fast-path examples)."""

from __future__ import annotations


def test_bench_table1_fast_path(golden):
    rows = golden("table1_fastpath")
    for row in rows:
        assert row["fast_path(analytic)"] == row["expected_fast_path"]
        assert row["fast_path(simulated)"] == row["expected_fast_path"]
    # Example a: fast path taken even though proposals do not match.
    example_a = next(row for row in rows if row["example"] == "a")
    assert example_a["match"] is False and example_a["fast_path(simulated)"] is True
