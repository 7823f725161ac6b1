"""Benchmark regenerating Figure 9 and the §6.4 tail-latency comparison
(partial replication, YCSB+T, Tempo vs Janus*)."""

from __future__ import annotations


def test_bench_fig9_partial_replication_throughput(golden):
    rows = golden("fig9_partial")
    by_key = {(int(row["shards"]), float(row["zipf"])): row for row in rows}

    # Tempo scales with the number of shards (genuine partial replication).
    for zipf in (0.5, 0.7):
        assert (
            by_key[(2, zipf)]["tempo_kops"]
            < by_key[(4, zipf)]["tempo_kops"]
            < by_key[(6, zipf)]["tempo_kops"]
        )
        # Tempo is unaffected by contention.
        assert by_key[(2, 0.5)]["tempo_kops"] == by_key[(2, 0.7)]["tempo_kops"]

    for (shards, zipf), row in by_key.items():
        w0 = float(row["janus_w0_kops"])
        w5 = float(row["janus_w5_kops"])
        w50 = float(row["janus_w50_kops"])
        tempo = float(row["tempo_kops"])
        # Janus* degrades as the write ratio grows.
        assert w0 > w5 > w50
        # Tempo is close to Janus*'s best case (read-only workload C)...
        assert tempo > 0.8 * w0
        # ...and far ahead of the update-heavy workload A (paper: 2-16x).
        assert float(row["speedup_vs_w50"]) > 2.0
        if zipf == 0.7:
            assert float(row["speedup_vs_w50"]) > 5.0

    # Contention hurts Janus* but not Tempo.
    assert (
        by_key[(6, 0.7)]["janus_w5_kops"] < by_key[(6, 0.5)]["janus_w5_kops"]
    )


def test_bench_fig9_tail_latency(golden):
    rows = golden("fig9_tail")
    by_protocol = {str(row["protocol"]): row for row in rows}
    assert int(by_protocol["tempo"]["completed"]) > 0
    assert int(by_protocol["janus"]["completed"]) > 0
    # The dependency-tracking tail carries over to partial replication:
    # Janus*'s p99.99 exceeds Tempo's.
    assert float(by_protocol["janus"]["p99.99_ms"]) > float(
        by_protocol["tempo"]["p99.99_ms"]
    )
