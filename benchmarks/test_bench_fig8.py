"""Benchmark regenerating Figure 8 (batching ON/OFF across payload sizes)."""

from __future__ import annotations

from repro.experiments import fig8_batching


def test_bench_fig8_batching(golden):
    rows = golden("fig8_batching")
    gains = fig8_batching.batching_gains(rows)

    # Batching boosts the leader-based protocol a lot at small payloads...
    assert gains["fpaxos f=1@256B"] > 3.0
    # ...but does not help once FPaxos is network-bound at large payloads.
    assert gains["fpaxos f=1@4096B"] < 1.2
    # The benefit for leaderless Tempo is much more limited.
    assert gains["tempo f=1@256B"] < gains["fpaxos f=1@256B"]
    assert gains["tempo f=1@4096B"] < gains["tempo f=1@256B"]

    # Even with batching enabled, Tempo matches or outperforms FPaxos.
    by_key = {(row["protocol"], row["payload_bytes"]): row for row in rows}
    for payload in (256, 1024, 4096):
        tempo_on = float(by_key[("tempo f=1", payload)]["batching_on_kops"])
        fpaxos_on = float(by_key[("fpaxos f=1", payload)]["batching_on_kops"])
        assert tempo_on >= fpaxos_on
