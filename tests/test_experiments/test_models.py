"""Tests for the throughput (resource) and latency models."""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.experiments.latency_model import (
    average_latency,
    fpaxos_site_latency,
    leaderless_site_latency,
    load_curve,
    per_site_latency,
    queueing_latency,
)
from repro.experiments.throughput_model import (
    CostModel,
    max_throughput,
    protocol_costs,
    utilization_heatmap,
)
from repro.simulator.resources import CommandCost, MachineSpec, ResourceModel
from repro.workloads.batching import BatchingModel

CFG_F1 = ProtocolConfig(num_processes=5, faults=1)
CFG_F2 = ProtocolConfig(num_processes=5, faults=2)


class TestResourceModel:
    def test_saturation_picks_the_scarcest_resource(self):
        model = ResourceModel(MachineSpec(cores=1, nic_bandwidth_bytes_per_second=1e9))
        cost = CommandCost(cpu_micros=10.0, execution_micros=1.0,
                           net_in_bytes=100.0, net_out_bytes=100.0)
        saturation = model.saturation(cost)
        assert saturation.bottleneck == "cpu"
        assert saturation.max_commands_per_second == pytest.approx(100_000.0)

    def test_nic_bound_workload(self):
        model = ResourceModel(MachineSpec(cores=64, nic_bandwidth_bytes_per_second=1e6))
        cost = CommandCost(cpu_micros=1.0, execution_micros=0.5,
                           net_in_bytes=10.0, net_out_bytes=1_000.0)
        assert model.saturation(cost).bottleneck == "net_out"

    def test_zero_cost_is_rejected(self):
        model = ResourceModel(MachineSpec())
        with pytest.raises(ValueError):
            model.saturation(CommandCost(0.0, 0.0, 0.0, 0.0))

    def test_utilization_at_a_given_rate(self):
        model = ResourceModel(MachineSpec(cores=2))
        cost = CommandCost(cpu_micros=10.0, execution_micros=5.0,
                           net_in_bytes=1.0, net_out_bytes=1.0)
        utilization = model.utilization(cost, rate=100_000.0)
        assert utilization["cpu"] == pytest.approx(0.5)
        assert utilization["execution"] == pytest.approx(0.5)


class TestThroughputModel:
    def test_figure7_ordering_tempo_beats_atlas_beats_fpaxos(self):
        tempo = max_throughput("tempo", CFG_F1)["max_ops_per_second"]
        atlas = max_throughput("atlas", CFG_F1)["max_ops_per_second"]
        fpaxos = max_throughput("fpaxos", CFG_F1)["max_ops_per_second"]
        assert tempo > atlas > fpaxos
        assert tempo / atlas > 1.5
        assert tempo / fpaxos > 3.0

    def test_tempo_is_contention_and_fault_insensitive(self):
        low = max_throughput("tempo", CFG_F1, conflict_rate=0.02)
        high = max_throughput("tempo", CFG_F1, conflict_rate=0.10)
        f2 = max_throughput("tempo", CFG_F2, conflict_rate=0.02)
        assert low["max_ops_per_second"] == pytest.approx(high["max_ops_per_second"])
        assert abs(low["max_ops_per_second"] - f2["max_ops_per_second"]) < 0.15 * low[
            "max_ops_per_second"
        ]

    def test_dependency_protocols_degrade_with_contention(self):
        atlas_low = max_throughput("atlas", CFG_F1, conflict_rate=0.02)
        atlas_high = max_throughput("atlas", CFG_F1, conflict_rate=0.10)
        assert atlas_high["max_ops_per_second"] < atlas_low["max_ops_per_second"]
        caesar_low = max_throughput("caesar", CFG_F1, conflict_rate=0.02)
        caesar_high = max_throughput("caesar", CFG_F1, conflict_rate=0.10)
        assert caesar_high["max_ops_per_second"] < 0.5 * caesar_low["max_ops_per_second"]

    def test_fpaxos_bottleneck_is_at_the_leader(self):
        result = max_throughput("fpaxos", CFG_F1, payload=4096.0)
        assert result["bottleneck"] in ("net_out", "execution")

    def test_batching_amortizes_protocol_costs(self):
        off = max_throughput("fpaxos", CFG_F1, payload=256.0)
        on = max_throughput("fpaxos", CFG_F1, payload=256.0, batching=BatchingModel(True))
        assert on["max_ops_per_second"] > 2.5 * off["max_ops_per_second"]

    def test_reads_reduce_dependency_costs(self):
        writes = max_throughput("janus", CFG_F1, conflict_rate=0.10, write_ratio=1.0)
        reads = max_throughput("janus", CFG_F1, conflict_rate=0.10, write_ratio=0.0)
        assert reads["max_ops_per_second"] >= writes["max_ops_per_second"]

    def test_partial_replication_scaling_is_genuine_for_tempo_only(self):
        tempo_2 = max_throughput("tempo", CFG_F1, num_shards=2)
        tempo_6 = max_throughput("tempo", CFG_F1, num_shards=6)
        assert tempo_6["max_ops_per_second"] == pytest.approx(
            3 * tempo_2["max_ops_per_second"] / 1.0, rel=0.01
        )
        atlas_2 = max_throughput("atlas", CFG_F1, num_shards=2)
        atlas_6 = max_throughput("atlas", CFG_F1, num_shards=6)
        assert atlas_6["max_ops_per_second"] < 3 * atlas_2["max_ops_per_second"]

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError):
            protocol_costs("raft", CFG_F1, 100.0, CostModel())

    def test_heatmap_rows_have_utilization_percentages(self):
        rows = utilization_heatmap(["tempo", "fpaxos", "atlas"], config=CFG_F1)
        assert {row["protocol"] for row in rows} == {"tempo", "fpaxos", "atlas"}
        for row in rows:
            for field in ("cpu", "execution", "net_out"):
                assert 0.0 <= float(row[field]) <= 100.0


class TestLatencyModel:
    def test_leaderless_latency_equals_fast_quorum_rtt(self):
        assert leaderless_site_latency("ireland", 3) == pytest.approx(141.0)
        assert leaderless_site_latency("canada", 3) == pytest.approx(78.0)

    def test_fpaxos_latency_from_leader_and_remote_sites(self):
        leader_site = fpaxos_site_latency("ireland", "ireland", 2)
        remote_site = fpaxos_site_latency("singapore", "ireland", 2)
        assert leader_site < remote_site
        assert leader_site == pytest.approx(72.0 + 1.0, abs=2.0)

    def test_per_site_latency_average_matches_figure5_scale(self):
        tempo = per_site_latency("tempo", 5, 1)
        assert 120.0 <= average_latency(tempo) <= 170.0
        fpaxos = per_site_latency("fpaxos", 5, 1)
        assert max(fpaxos.values()) / min(fpaxos.values()) > 2.5

    def test_epaxos_uses_larger_quorums_than_atlas(self):
        atlas = average_latency(per_site_latency("atlas", 5, 1))
        epaxos = average_latency(per_site_latency("epaxos", 5, 1))
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
            per_site_latency("raft", 5, 1)


class TestMBatchFramingModel:
    """The analytic model charges one unbatched message's framing."""

    def test_default_coalescing_changes_nothing(self):
        from repro.experiments.throughput_model import CostModel

        baseline = max_throughput("tempo", payload=4096.0)
        explicit = max_throughput("tempo", payload=4096.0, model=CostModel())
        assert baseline == explicit
