"""Benchmark regenerating Figure 6 (tail-latency percentiles).

The paper's qualitative claim: the latency tails of dependency-based
protocols (Atlas, EPaxos, Caesar) blow up under contention and load, while
Tempo's tail remains flat.  Client counts are scaled down and the conflict
rate scaled up, which does not preserve the number of concurrently
conflicting commands per site (clients x conflict rate): the golden's
cells (``fig6_tail.FIGURE6_LOADS``) have 8 x 0.15 = 1.2 and 16 x 0.15 =
2.4, the paper's 256 x 0.02 = 5.12 and 512 x 0.02 = 10.24.
"""

from __future__ import annotations

from repro.experiments import fig6_tail


def test_bench_fig6_tail_percentiles(golden):
    rows = golden("fig6_tail")
    by_key = {
        (str(row["protocol"]), int(row["clients_per_site"])): row for row in rows
    }

    for load in (8, 16):
        tempo1 = by_key[("tempo f=1", load)]
        tempo2 = by_key[("tempo f=2", load)]
        # Tempo's tail stays within a small factor of its median-ish p95.
        for tempo_row in (tempo1, tempo2):
            assert float(tempo_row["p99.9"]) <= 4.0 * float(tempo_row["p95.0"]), tempo_row
        # Dependency-based protocols exhibit a much longer tail than Tempo
        # under contention (the paper reports 1.4-14x at p99.9).
        worst_dep_tail = max(
            float(by_key[(name, load)]["p99.9"])
            for name in ("atlas f=1", "atlas f=2", "epaxos f=1", "caesar f=2")
        )
        assert worst_dep_tail > float(tempo1["p99.9"]), (
            "expected at least one dependency-based protocol to have a longer "
            "p99.9 tail than Tempo f=1"
        )

    # Load increase degrades the dependency-based tails more than Tempo's.
    atlas_growth = float(by_key[("atlas f=2", 16)]["p99.9"]) - float(
        by_key[("atlas f=2", 8)]["p99.9"]
    )
    tempo_growth = float(by_key[("tempo f=1", 16)]["p99.9"]) - float(
        by_key[("tempo f=1", 8)]["p99.9"]
    )
    assert atlas_growth >= tempo_growth - 50.0


def test_bench_fig6_traced_cell_is_consistent(monkeypatch):
    """The golden's tempo f=1, 8 clients/site cell re-run with execution
    tracing: the recorded trace must satisfy every PSMR/Tempo invariant
    (per-key order agreement, timestamp monotonicity, execute-at-most-once,
    real-time order), and tracing must be observation-only — identical
    latency results to the untraced run of the same cell."""
    baseline = fig6_tail.run_one("tempo", 1, 8, 0.15)
    monkeypatch.setenv("REPRO_TRACE_CHECK", "1")
    traced = fig6_tail.run_one("tempo", 1, 8, 0.15)
    assert traced == baseline, "tracing perturbed the simulation"
