"""Benchmark regenerating Figure 5 (per-site latency / fairness).

Scaled-down simulator deployment (16 clients/site instead of 512); the
fairness comparison between leader-based and leaderless protocols is the
asserted shape.  Absolute Tempo latencies carry an extra stability delay in
the simulator (``docs/promise_ranges.md``, "What the stability wait waits on
at f = 1").
"""

from __future__ import annotations

from repro.experiments import fig5_fairness


def test_bench_fig5_per_site_latency(benchmark, results_emitter):
    options = fig5_fairness.Figure5Options(
        clients_per_site=8, duration_ms=2_500.0, warmup_ms=500.0
    )
    rows = benchmark.pedantic(fig5_fairness.run, args=(options,), rounds=1, iterations=1)
    sites = ["ireland", "n-california", "singapore", "canada", "sao-paulo"]
    results_emitter(
        "fig5_fairness",
        rows,
        "Figure 5 - per-site mean latency (ms), 5 sites, 2% conflicts",
        columns=["protocol"] + sites + ["average", "completed"],
    )
    by_protocol = {str(row["protocol"]): row for row in rows}

    # FPaxos is unfair: non-leader sites are far slower than the leader site.
    for name in ("fpaxos f=1", "fpaxos f=2"):
        ratio = fig5_fairness.fairness_ratio(by_protocol[name], sites)
        assert ratio > 2.0, f"{name} should be unfair across sites (got {ratio:.2f}x)"

    # Leaderless protocols are much fairer than FPaxos.
    for name in ("tempo f=1", "atlas f=1", "tempo f=2", "atlas f=2", "caesar f=2"):
        ratio = fig5_fairness.fairness_ratio(by_protocol[name], sites)
        assert ratio < 2.6, f"{name} should serve sites uniformly (got {ratio:.2f}x)"

    # The leader site of FPaxos is its fastest site (Ireland).
    fpaxos = by_protocol["fpaxos f=1"]
    assert float(fpaxos["ireland"]) == min(float(fpaxos[site]) for site in sites)

    # Every protocol actually completed work at every site.
    for row in rows:
        assert int(row["completed"]) > 0
