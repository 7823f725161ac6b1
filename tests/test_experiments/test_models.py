"""Tests for the saturation and latency models."""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.cluster import build_replicas
from repro.experiments.latency_model import (
    average_latency,
    load_curve,
    per_site_latency,
    queueing_latency,
)
from repro.experiments.throughput_model import (
    CPU_BUDGET_US,
    EXECUTION_BUDGET_US,
    NIC_BYTES_PER_SECOND,
    CommandCost,
    max_throughput,
    protocol_costs,
    quorum_size,
    saturation,
    utilization_heatmap,
)
from repro.simulator.latency import EC2_REGIONS, ec2_latency_matrix

CFG_F1 = ProtocolConfig(num_processes=5, faults=1)
CFG_F2 = ProtocolConfig(num_processes=5, faults=2)
PAYLOAD = 4096.0
CONFLICTS = 0.02


class TestSaturation:
    def test_saturation_picks_the_scarcest_resource(self):
        cost = CommandCost(cpu_micros=10.0, execution_micros=1.0,
                           net_in_bytes=100.0, net_out_bytes=100.0)
        result = saturation(cost)
        rate = CPU_BUDGET_US / 10.0
        assert result["bottleneck"] == "cpu"
        assert result["max_ops_per_second"] == pytest.approx(rate)
        assert result["cpu_utilization"] == pytest.approx(1.0)
        assert result["execution_utilization"] == pytest.approx(rate / EXECUTION_BUDGET_US)
        assert result["net_out_utilization"] == pytest.approx(
            rate * 100.0 / NIC_BYTES_PER_SECOND
        )

    def test_nic_bound_workload(self):
        cost = CommandCost(cpu_micros=1.0, execution_micros=0.5,
                           net_in_bytes=10.0, net_out_bytes=1_000_000.0)
        result = saturation(cost)
        assert result["bottleneck"] == "net_out"
        assert result["max_ops_per_second"] == pytest.approx(NIC_BYTES_PER_SECOND / 1e6)

    def test_zero_cost_is_rejected(self):
        with pytest.raises(ValueError):
            saturation(CommandCost(0.0, 0.0, 0.0, 0.0))


class TestThroughputModel:
    def test_figure7_ordering_tempo_beats_atlas_beats_fpaxos(self):
        tempo = max_throughput("tempo", CFG_F1, PAYLOAD, CONFLICTS)["max_ops_per_second"]
        atlas = max_throughput("atlas", CFG_F1, PAYLOAD, CONFLICTS)["max_ops_per_second"]
        fpaxos = max_throughput("fpaxos", CFG_F1, PAYLOAD, CONFLICTS)["max_ops_per_second"]
        assert tempo > atlas > fpaxos
        assert tempo / atlas > 1.5
        assert tempo / fpaxos > 3.0

    def test_tempo_is_contention_and_fault_insensitive(self):
        low = max_throughput("tempo", CFG_F1, PAYLOAD, 0.02)
        high = max_throughput("tempo", CFG_F1, PAYLOAD, 0.10)
        f2 = max_throughput("tempo", CFG_F2, PAYLOAD, 0.02)
        assert low["max_ops_per_second"] == pytest.approx(high["max_ops_per_second"])
        assert abs(low["max_ops_per_second"] - f2["max_ops_per_second"]) < 0.15 * low[
            "max_ops_per_second"
        ]

    def test_dependency_protocols_degrade_with_contention(self):
        atlas_low = max_throughput("atlas", CFG_F1, PAYLOAD, 0.02)
        atlas_high = max_throughput("atlas", CFG_F1, PAYLOAD, 0.10)
        assert atlas_high["max_ops_per_second"] < atlas_low["max_ops_per_second"]
        caesar_low = max_throughput("caesar", CFG_F1, PAYLOAD, 0.02)
        caesar_high = max_throughput("caesar", CFG_F1, PAYLOAD, 0.10)
        assert caesar_high["max_ops_per_second"] < 0.5 * caesar_low["max_ops_per_second"]

    def test_fpaxos_bottleneck_is_at_the_leader(self):
        result = max_throughput("fpaxos", CFG_F1, PAYLOAD, CONFLICTS)
        assert result["bottleneck"] in ("net_out", "execution")

    def test_batching_amortizes_protocol_costs(self):
        off = max_throughput("fpaxos", CFG_F1, 256.0, CONFLICTS)
        on = max_throughput("fpaxos", CFG_F1, 256.0, CONFLICTS, batch=105.0)
        assert on["max_ops_per_second"] > 2.5 * off["max_ops_per_second"]

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            protocol_costs("raft", CFG_F1, 100.0, CONFLICTS, 1.0)

    def test_heatmap_rows_have_utilization_percentages(self):
        rows = utilization_heatmap(["tempo", "fpaxos", "atlas"], CFG_F1, PAYLOAD, CONFLICTS)
        assert {row["protocol"] for row in rows} == {"tempo", "fpaxos", "atlas"}
        for row in rows:
            for field in ("cpu", "execution", "net_out"):
                assert 0.0 <= float(row[field]) <= 100.0


def _quorum_sent_to(protocol: str, config: ProtocolConfig) -> int:
    """Size of the quorum a replica of ``protocol`` proposes to."""
    process = build_replicas(protocol, config).processes[0]
    if protocol == "tempo":
        return len(process.quorum_system.fast_quorums(process.process_id, [0])[0])
    if protocol == "caesar":
        return len(process._fast_quorum())
    if protocol == "fpaxos":
        return len(process._phase2_quorum())
    return process.fast_quorum_size()


class TestOneQuorumFact:
    """Both models read a protocol's quorum from ``quorum_size``, which must
    be the quorum its process actually sends to."""

    @pytest.mark.parametrize(
        "protocol", ["tempo", "atlas", "epaxos", "janus", "caesar", "fpaxos"]
    )
    @pytest.mark.parametrize(
        "r,f", [(r, f) for r in (3, 5, 7) for f in range(1, (r - 1) // 2 + 1)]
    )
    def test_model_quorum_is_the_process_quorum(self, protocol, r, f):
        config = ProtocolConfig(num_processes=r, faults=f)
        quorum = _quorum_sent_to(protocol, config)
        if protocol == "fpaxos":
            assert quorum == f + 1
        assert quorum_size(protocol, config) == quorum
        if r > len(EC2_REGIONS):
            return
        sites = list(EC2_REGIONS[:r])
        matrix = ec2_latency_matrix(sites)
        latency = per_site_latency(protocol, config)
        for site in sites:
            if protocol == "fpaxos":
                leader = sites[0]
                expected = (
                    matrix.latency(site, leader)
                    + matrix.quorum_latency(leader, quorum)
                    + matrix.latency(leader, site)
                )
            else:
                expected = matrix.quorum_latency(site, quorum)
            assert latency[site] == expected


class TestLatencyModel:
    def test_leaderless_latency_equals_fast_quorum_rtt(self):
        tempo = per_site_latency("tempo", CFG_F1)
        assert tempo["ireland"] == pytest.approx(141.0)
        assert tempo["canada"] == pytest.approx(78.0)

    def test_fpaxos_latency_from_leader_and_remote_sites(self):
        fpaxos = per_site_latency("fpaxos", CFG_F1)
        assert fpaxos["ireland"] < fpaxos["singapore"]
        assert fpaxos["ireland"] == pytest.approx(72.0 + 1.0, abs=2.0)

    def test_per_site_latency_average_matches_figure5_scale(self):
        tempo = per_site_latency("tempo", CFG_F1)
        assert 120.0 <= average_latency(tempo) <= 170.0
        fpaxos = per_site_latency("fpaxos", CFG_F1)
        assert max(fpaxos.values()) / min(fpaxos.values()) > 2.5

    def test_epaxos_uses_larger_quorums_than_atlas(self):
        atlas = average_latency(per_site_latency("atlas", CFG_F1))
        epaxos = average_latency(per_site_latency("epaxos", CFG_F1))
        assert epaxos >= atlas

    def test_queueing_latency_grows_with_load(self):
        base = 100.0
        assert queueing_latency(base, 10.0, 1000.0) < queueing_latency(base, 990.0, 1000.0)

    def test_load_curve_is_monotone_in_throughput_and_latency(self):
        points = load_curve([32, 128, 512, 2048, 8192], 5, 150.0, 100_000.0)
        throughputs = [point["throughput_ops"] for point in points]
        latencies = [point["latency_ms"] for point in points]
        assert throughputs == sorted(throughputs)
        assert latencies == sorted(latencies)
        assert throughputs[-1] <= 100_000.0

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            per_site_latency("raft", CFG_F1)

