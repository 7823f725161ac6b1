"""Benchmark regenerating Figure 7 (throughput/latency under growing load).

Uses the calibrated resource model for the saturation ceilings, the analytic
latency model for the curves and asserts the paper's headline comparisons:
Tempo delivers 1.8x+ the throughput of Atlas and 3x+ the throughput of
FPaxos, is insensitive to the conflict rate, and the dependency-based
protocols degrade when contention rises from 2% to 10%.
"""

from __future__ import annotations

from repro.experiments import fig7_load


def test_bench_fig7_saturation_table(golden):
    rows = golden("fig7_saturation")
    table = {
        (str(row["protocol"]), float(row["conflict_rate"])): float(row["max_kops"])
        for row in rows
    }
    speedups = fig7_load.speedups(rows)

    # Tempo's ceiling is unaffected by the conflict rate and by f.
    assert abs(table[("tempo f=1", 0.02)] - table[("tempo f=1", 0.10)]) < 1.0
    assert abs(table[("tempo f=1", 0.02)] - table[("tempo f=2", 0.02)]) < 25.0

    # Paper: Tempo is 1.8-3.4x Atlas and 4.3-5.1x FPaxos.
    assert speedups["tempo/atlas f=1@0.02"] > 1.5
    assert speedups["tempo/atlas f=1@0.1"] > 2.0
    assert speedups["tempo/fpaxos f=1@0.02"] > 3.0
    assert speedups["tempo/caesar f=2@0.1"] > 5.0

    # Contention degrades the dependency-based protocols and Caesar.
    assert table[("atlas f=1", 0.10)] < table[("atlas f=1", 0.02)]
    assert table[("caesar f=2", 0.10)] < 0.5 * table[("caesar f=2", 0.02)]
    # FPaxos is insensitive to contention.
    assert abs(table[("fpaxos f=1", 0.02)] - table[("fpaxos f=1", 0.10)]) < 1.0


def test_bench_fig7_latency_throughput_curves(golden):
    rows = golden("fig7_curves")
    by_protocol = {}
    for row in rows:
        by_protocol.setdefault(str(row["protocol"]), []).append(row)
    for protocol, points in by_protocol.items():
        points.sort(key=lambda point: point["clients_per_site"])
        throughputs = [float(point["throughput_kops"]) for point in points]
        latencies = [float(point["latency_ms"]) for point in points]
        # Throughput grows monotonically with offered load up to saturation.
        assert all(b >= a - 1e-6 for a, b in zip(throughputs, throughputs[1:]))
        # Latency is flat until saturation and then rises (hockey stick).
        assert latencies[-1] > latencies[0]
        # The knee of each curve approaches the protocol's ceiling.
        assert max(throughputs) <= max(float(p["throughput_kops"]) for p in points) + 1e-6


def test_bench_fig7_utilization_heatmap(golden):
    rows = golden("fig7_heatmap")
    by_protocol = {str(row["protocol"]): row for row in rows}
    # FPaxos saturates its leader (thread or NIC), with the rest idle-ish.
    assert by_protocol["fpaxos"]["bottleneck"] in ("net_out", "execution")
    # Atlas saturates the single-threaded execution while CPU stays low.
    assert by_protocol["atlas"]["bottleneck"] == "execution"
    assert float(by_protocol["atlas"]["cpu"]) < 70.0
    # Tempo saturates on overall CPU with high network usage.
    assert by_protocol["tempo"]["bottleneck"] == "cpu"
    assert float(by_protocol["tempo"]["net_out"]) > 40.0
