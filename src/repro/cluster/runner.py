"""Experiment runner: deploy a protocol over the simulator and measure it.

``run_experiment(config)`` builds the whole stack — latency matrix, network,
protocol processes (one per shard per site), key-value stores, closed-loop
clients with their workloads — runs the discrete-event simulation for the
configured duration and returns an :class:`ExperimentResult` with per-site
and aggregate latency plus throughput.

This is the reproduction of the paper's *simulator* execution mode (§6.1);
the maximum-throughput figures use the analytical resource model in
:mod:`repro.experiments.throughput_model` instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.trace import ExecutionTraceRecorder
from repro.cluster.client import ClosedLoopClient
from repro.cluster.config import ExperimentConfig
from repro.cluster.replicas import build_replicas
from repro.core.base import ProcessBase
from repro.core.commands import Command
from repro.core.config import ProtocolConfig
from repro.faults.plan import Crash
from repro.kvstore.sharding import ShardMap
from repro.reliability import RetransmitBuffer
from repro.metrics.histogram import LatencyHistogram
from repro.metrics.throughput import ThroughputTracker
from repro.simulator.latency import DEFAULT_LOCAL_LATENCY, ec2_latency_matrix
from repro.simulator.network import Network
from repro.simulator.rng import SeededRng
from repro.simulator.sim import Simulation
from repro.workloads.micro import MicroWorkload
from repro.workloads.ycsbt import YcsbTWorkload


@dataclass
class ExperimentResult:
    """Aggregated outcome of one experiment run."""

    config: ExperimentConfig
    latency: LatencyHistogram
    per_site_latency: Dict[str, LatencyHistogram]
    throughput_ops: float
    completed: int
    submitted: int
    per_site_throughput: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    #: The deployment the run executed on (processes, network, stores),
    #: kept so tests can assert on internal protocol state post-run.
    deployment: Optional[object] = field(default=None, repr=False)
    #: ``check_run`` report of the traced run (``record_execution_trace``),
    #: ``None`` when tracing was off.  A report with a safety violation never
    #: reaches the caller: ``run_experiment`` raises instead; liveness
    #: (``converged``, ``stuck``) is the caller's to judge.
    trace_report: Optional[object] = field(default=None, repr=False)

    def mean_latency(self) -> float:
        return self.latency.mean()

    def site_mean_latency(self) -> Dict[str, float]:
        return {
            site: histogram.mean() for site, histogram in self.per_site_latency.items()
        }

    def percentile(self, percentile: float) -> float:
        return self.latency.percentile(percentile)


#: Callbacks invoked with ``(config, result)`` after every
#: :func:`run_experiment`.  The benchmark harness subscribes one to surface
#: per-run message counts next to wall time in CI output.
EXPERIMENT_OBSERVERS: List[Callable[[ExperimentConfig, "ExperimentResult"], None]] = []


class _Deployment:
    """Everything built for one experiment run."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.sites = list(config.site_names())
        self.protocol_config = ProtocolConfig(
            num_processes=config.num_sites,
            faults=config.faults,
            num_partitions=config.num_shards,
        )
        self.shard_map = ShardMap(config.num_shards, keys_per_shard=config.keys_per_shard)
        self.latency_matrix = ec2_latency_matrix(self.sites)
        self.network = Network(self.latency_matrix, rng=SeededRng(config.seed))
        replicas = build_replicas(
            config.protocol,
            self.protocol_config,
            partitioner=self.shard_map,
            latencies=self._process_latencies(),
            **config.protocol_kwargs,
        )
        self.quorum_system = replicas.quorum_system
        self.stores = replicas.stores
        self.processes = replicas.processes
        for process in self.processes:
            process_id = process.process_id
            site = self.sites[self.protocol_config.site_of_process(process_id)]
            shard = self.protocol_config.partition_of_process(process_id)
            self.network.place(process_id, site, shard)
        self.simulation = Simulation(self.processes, self.network)

    def _process_latencies(self) -> Dict[int, Dict[int, float]]:
        """Latency table between global processes, derived from their sites."""
        config = self.protocol_config
        table: Dict[int, Dict[int, float]] = {}
        for a in range(config.total_processes()):
            table[a] = {}
            site_a = self.sites[config.site_of_process(a)]
            for b in range(config.total_processes()):
                site_b = self.sites[config.site_of_process(b)]
                table[a][b] = self.latency_matrix.latency(site_a, site_b)
        return table

    def process_for(self, site_rank: int, shard: int) -> ProcessBase:
        """The replica of ``shard`` hosted at the site with rank ``site_rank``."""
        process_id = shard * self.protocol_config.num_processes + site_rank
        return self.processes[process_id]


def _build_workload(config: ExperimentConfig, client_id: int, deployment: _Deployment):
    if config.workload == "ycsbt":
        return YcsbTWorkload(
            client_id=client_id,
            shard_map=deployment.shard_map,
            zipf=config.zipf,
            write_ratio=config.write_ratio,
            keys_per_shard=config.keys_per_shard,
            payload_size=config.payload_size,
            rng=SeededRng(config.seed * 10_007 + client_id),
        )
    return MicroWorkload(
        client_id=client_id,
        conflict_rate=config.conflict_rate,
        payload_size=config.payload_size,
        keys_per_command=config.keys_per_command,
        rng=SeededRng(config.seed * 10_007 + client_id),
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment and aggregate its metrics."""
    deployment = _Deployment(config)
    simulation = deployment.simulation
    throughput = ThroughputTracker(warmup_ms=config.warmup_ms)
    clients: List[ClosedLoopClient] = []

    recorder: Optional[ExecutionTraceRecorder] = None
    if config.record_execution_trace or os.environ.get("REPRO_TRACE_CHECK") == "1":
        recorder = ExecutionTraceRecorder().attach(deployment.processes)

    def make_submit(deployment: _Deployment):
        def submit(client: ClosedLoopClient, keys: List[str], is_read: bool, now: float) -> Command:
            shards = sorted({deployment.shard_map.partition_of(key) for key in keys})
            target = deployment.process_for(client.site_rank, shards[0])
            command = target.new_command(
                keys,
                payload_size=client.payload_size,
                client_id=client.client_id,
                read_only=is_read,
            )
            # Client -> co-located replica delay is the intra-site latency.
            simulation.submit_at(
                now + DEFAULT_LOCAL_LATENCY, target.process_id, command
            )
            if recorder is not None:
                recorder.note_submit(command.dot, keys, now)
            return command

        return submit

    submit = make_submit(deployment)
    client_id = 0
    for site_rank, site in enumerate(deployment.sites):
        for _ in range(config.clients_per_site):
            workload = _build_workload(config, client_id, deployment)
            client = ClosedLoopClient(
                client_id=client_id,
                site=site,
                site_rank=site_rank,
                workload=workload,
                submit=submit,
                stop_at=config.duration_ms,
                warmup_ms=config.warmup_ms,
                payload_size=config.payload_size,
            )
            clients.append(client)
            deployment.network.place(client.endpoint, site)

            def handler(sender: int, message: object, now: float, client=client, site=site) -> None:
                client.on_reply(sender, message, now)
                if recorder is not None and hasattr(message, "dot"):
                    recorder.note_reply(message.dot, now)
                if now >= config.warmup_ms:
                    throughput.record(now, site)

            simulation.register_external(client.endpoint, handler)
            client_id += 1

    # Stagger client start times slightly so submissions do not all land on
    # the same simulated instant.
    rng = SeededRng(config.seed)
    for client in clients:
        start_delay = rng.uniform_between(0.0, 5.0)
        simulation.schedule(start_delay, lambda now, client=client: client.start(now))

    fault_plan = config.fault_plan
    if fault_plan is not None:
        simulation.schedule_faults(
            fault_plan,
            lambda site_rank, shard: deployment.process_for(site_rank, shard).process_id,
        )
        # Reliable delivery (ack-driven retransmission) arms only for
        # plans that can *lose or delay* traffic:
        # restarts, partitions, flaky links, targeted loss.  A crash-only
        # plan drops no message a live process will ever need again (the
        # crashed replica never returns), so those runs arm nothing.
        if any(not isinstance(event, Crash) for event in fault_plan):
            for process in deployment.processes:
                process.enable_reliability(RetransmitBuffer(process.process_id))

    simulation.run(until=config.duration_ms + 4_000.0)

    overall = LatencyHistogram()
    per_site: Dict[str, LatencyHistogram] = {site: LatencyHistogram() for site in deployment.sites}
    completed = 0
    submitted = 0
    for client in clients:
        overall.merge(client.latency)
        per_site[client.site].merge(client.latency)
        completed += client.completed
        submitted += client.submitted

    network_stats = deployment.network.stats
    stats: Dict[str, float] = {
        "messages_sent": float(network_stats.messages_sent),
        "messages_delivered": float(network_stats.messages_delivered),
        "bytes_sent": float(network_stats.bytes_sent),
        "batches_sent": float(network_stats.batches_sent),
        "deliveries": float(network_stats.deliveries),
        "events": float(simulation.stats.events_processed),
        "heap_ops": float(simulation.queue.heap_ops),
    }
    # Memory columns (epoch-2): end-of-run live bookkeeping and the per-key
    # conflict-window high-water mark, summed/maxed over all processes.
    # With watermark GC these must stay O(in-flight) regardless of run
    # length; the fig6 benchmark artifact and its CI gate read them.
    footprints = [process.memory_footprint() for process in deployment.processes]
    stats["live_records"] = float(sum(f["records"] for f in footprints))
    stats["archived_records"] = float(sum(f["archived"] for f in footprints))
    stats["peak_live_per_key"] = float(
        max(f["peak_live_per_key"] for f in footprints)
    )
    stats["conflict_keys"] = float(sum(f["conflict_keys"] for f in footprints))
    stats["issued_promises"] = float(sum(f["issued_promises"] for f in footprints))
    stats["gc_collected"] = float(sum(f["gc_collected"] for f in footprints))
    stats["executed_ranges"] = float(sum(f["executed_ranges"] for f in footprints))
    # Reliable-delivery counters (only present when the run armed it), so
    # the bounded-retransmission tests can assert "no storm" directly.
    buffers = [
        process.reliability.stats()
        for process in deployment.processes
        if process.reliability is not None
    ]
    if buffers:
        for key in ("tracked", "acked", "resends", "expired", "stale_acks", "pending"):
            stats[f"retransmit_{key}"] = float(sum(b[key] for b in buffers))
    # Per-kind message counts (e.g. ``sent:MCommitRequest``) so message-
    # traffic regressions are visible to tests and the CI smoke job.
    for kind in sorted(network_stats.per_kind):
        stats[f"sent:{kind}"] = float(network_stats.per_kind[kind])
    trace_report = None
    if recorder is not None:
        trace_report = recorder.snapshot(deployment.processes).check()
        trace_report.raise_if_violations()
    result = ExperimentResult(
        config=config,
        latency=overall,
        per_site_latency=per_site,
        throughput_ops=throughput.ops_per_second(),
        completed=completed,
        submitted=submitted,
        per_site_throughput=throughput.ops_per_second_per_site(),
        stats=stats,
        deployment=deployment,
        trace_report=trace_report,
    )
    for observer in EXPERIMENT_OBSERVERS:
        observer(config, result)
    return result
