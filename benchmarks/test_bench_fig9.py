"""Benchmark regenerating Figure 9 and the §6.4 tail-latency comparison
(partial replication, YCSB+T, Tempo vs Janus*)."""

from __future__ import annotations

from repro.experiments import fig9_partial


def test_bench_fig9_partial_replication_throughput(benchmark, results_emitter):
    rows = benchmark.pedantic(fig9_partial.run, rounds=1, iterations=1)
    results_emitter(
        "fig9_partial",
        rows,
        "Figure 9 - max throughput (K ops/s) with 2/4/6 shards, 3 sites per shard",
    )
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


def test_bench_fig9_tail_latency(benchmark, results_emitter):
    # Scaled-down contention: the paper's scenario (6 shards, zipf 0.7,
    # w = 5%, thousands of clients) is shrunk to 3 shards and tens of
    # clients, with the key space and write ratio adjusted so the scaled
    # run still contends (results/fig9_tail.txt).
    rows = benchmark.pedantic(
        fig9_partial.tail_latency_comparison,
        kwargs={"num_shards": 3, "zipf": 0.7, "write_ratio": 0.30,
                "clients_per_site": 10, "duration_ms": 2_500.0, "keys_per_shard": 20},
        rounds=1,
        iterations=1,
    )
    results_emitter(
        "fig9_tail",
        rows,
        "§6.4 - tail latency under partial replication (scaled-down simulator run)",
    )
    by_protocol = {str(row["protocol"]): row for row in rows}
    assert int(by_protocol["tempo"]["completed"]) > 0
    assert int(by_protocol["janus"]["completed"]) > 0
    # The dependency-tracking tail carries over to partial replication:
    # Janus*'s p99.99 exceeds Tempo's.
    assert float(by_protocol["janus"]["p99.99_ms"]) > float(
        by_protocol["tempo"]["p99.99_ms"]
    )
