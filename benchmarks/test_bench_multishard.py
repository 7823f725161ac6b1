"""Benchmark: multi-shard (partial replication) fig5/fig6 variant.

The paper's full-replication contention results (Figures 5 and 6) carry
over to partial replication (§6.4): Tempo stays flat because it is genuine
— ordering a command only involves the shards it accesses — while Janus*
pays cross-shard dependency tracking.  This variant runs the contended
microbenchmark on a 2-shard deployment with two-key commands, so a
fraction of the commands genuinely spans both shards.
"""

from __future__ import annotations


def test_bench_fig6_multishard_tail(golden):
    rows = golden("fig6_multishard")
    by_protocol = {str(row["protocol"]): row for row in rows}
    tempo = by_protocol["tempo f=1"]
    janus = by_protocol["janus f=1"]
    # Both deployments make progress on the sharded workload.
    assert int(tempo["completed"]) > 100, tempo
    assert int(janus["completed"]) > 100, janus
    # The dependency-based baseline pays for cross-shard dependency
    # tracking under contention: its tail is no better than Tempo's.
    assert float(janus["p99.9"]) >= float(tempo["p99.9"]), (tempo, janus)
