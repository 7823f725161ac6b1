"""Tests for the experiment configuration, clients and the runner."""

from __future__ import annotations

import pytest

from repro.cluster.client import ClosedLoopClient
from repro.cluster.config import ExperimentConfig
from repro.cluster.replicas import build_replicas
from repro.cluster.runner import run_experiment
from repro.core.commands import Command
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot
from repro.core.messages import ClientReply
from repro.workloads.micro import MicroWorkload
from repro.simulator.rng import SeededRng


class TestExperimentConfig:
    def test_defaults_are_the_paper_deployment(self):
        config = ExperimentConfig()
        assert config.num_sites == 5
        assert list(config.site_names()) == [
            "ireland", "n-california", "singapore", "canada", "sao-paulo",
        ]
        assert config.total_clients() == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_sites=0)
        with pytest.raises(ValueError):
            ExperimentConfig(clients_per_site=0)
        with pytest.raises(ValueError):
            ExperimentConfig(warmup_ms=5000.0, duration_ms=1000.0)
        with pytest.raises(ValueError):
            ExperimentConfig(workload="tpcc")
        with pytest.raises(ValueError):
            ExperimentConfig(num_sites=6)

    def test_three_site_partial_replication_config(self):
        config = ExperimentConfig(
            num_sites=3, num_shards=4, workload="ycsbt",
            sites=("ireland", "n-california", "singapore"),
        )
        assert config.num_shards == 4
        assert len(config.site_names()) == 3


class TestClosedLoopClient:
    def _client(self, stop_at=1000.0, warmup=0.0):
        submissions = []

        def submit(client, keys, is_read, now):
            command = Command.write(Dot(0, len(submissions) + 1), keys, client_id=client.client_id)
            submissions.append((command, now))
            return command

        workload = MicroWorkload(client_id=0, conflict_rate=0.0, rng=SeededRng(1))
        client = ClosedLoopClient(
            client_id=0, site="ireland", site_rank=0, workload=workload,
            submit=submit, stop_at=stop_at, warmup_ms=warmup,
        )
        return client, submissions

    def test_start_submits_first_command(self):
        client, submissions = self._client()
        client.start(0.0)
        assert len(submissions) == 1
        assert client.outstanding() == 1

    def test_reply_records_latency_and_resubmits(self):
        client, submissions = self._client()
        client.start(0.0)
        command, _ = submissions[0]
        client.on_reply(0, ClientReply(command.dot), 120.0)
        assert client.completed == 1
        assert client.mean_latency() == 120.0
        assert len(submissions) == 2

    def test_warmup_samples_are_excluded(self):
        client, submissions = self._client(warmup=500.0)
        client.start(0.0)
        command, _ = submissions[0]
        client.on_reply(0, ClientReply(command.dot), 100.0)
        assert client.completed == 1
        assert len(client.latency) == 0

    def test_no_submission_after_stop(self):
        client, submissions = self._client(stop_at=100.0)
        client.start(0.0)
        command, _ = submissions[0]
        client.on_reply(0, ClientReply(command.dot), 150.0)
        assert len(submissions) == 1
        assert not client.active

    def test_unknown_reply_is_ignored(self):
        client, submissions = self._client()
        client.start(0.0)
        client.on_reply(0, ClientReply(Dot(9, 9)), 50.0)
        assert client.completed == 0


class TestRunner:
    def test_small_tempo_experiment_produces_latency_and_throughput(self):
        config = ExperimentConfig(
            protocol="tempo", num_sites=3, clients_per_site=2,
            duration_ms=1_200.0, warmup_ms=200.0,
            sites=("ireland", "n-california", "singapore"),
        )
        result = run_experiment(config)
        assert result.completed > 0
        assert result.mean_latency() > 0
        assert result.throughput_ops > 0
        assert set(result.per_site_latency) == {"ireland", "n-california", "singapore"}

    def test_fpaxos_experiment_is_unfair_across_sites(self):
        config = ExperimentConfig(
            protocol="fpaxos", num_sites=3, clients_per_site=2,
            duration_ms=1_200.0, warmup_ms=200.0,
            sites=("ireland", "n-california", "singapore"),
        )
        result = run_experiment(config)
        means = result.site_mean_latency()
        assert means["ireland"] < means["singapore"]

    def test_partial_replication_experiment_with_janus(self):
        config = ExperimentConfig(
            protocol="janus", num_sites=3, num_shards=2, clients_per_site=2,
            workload="ycsbt", zipf=0.5, write_ratio=0.5, keys_per_shard=50,
            duration_ms=1_200.0, warmup_ms=200.0,
            sites=("ireland", "n-california", "singapore"),
        )
        result = run_experiment(config)
        assert result.completed > 0

    def test_deterministic_given_a_seed(self):
        config = ExperimentConfig(
            protocol="atlas", num_sites=3, clients_per_site=2,
            duration_ms=1_000.0, warmup_ms=200.0, seed=7,
            sites=("ireland", "n-california", "singapore"),
        )
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.completed == second.completed
        assert first.mean_latency() == pytest.approx(second.mean_latency())

    def test_submitted_is_at_least_completed(self):
        config = ExperimentConfig(
            protocol="caesar", num_sites=3, clients_per_site=2,
            duration_ms=1_000.0, warmup_ms=200.0,
            sites=("ireland", "n-california", "singapore"),
        )
        result = run_experiment(config)
        assert result.submitted >= result.completed


class TestReplicas:
    def test_stores_agree_compares_the_replicas_of_each_partition(self):
        replicas = build_replicas("tempo", ProtocolConfig(num_processes=3, num_partitions=2))
        # Partitions may differ from each other...
        for process_id in (3, 4, 5):
            replicas.stores[process_id].apply(Command.write(Dot(3, 1), ["k"]))
        assert replicas.stores_agree()
        # ...but not one replica from the others of its partition.
        replicas.stores[4].apply(Command.write(Dot(4, 1), ["k"]))
        assert not replicas.stores_agree()
