"""Experiment configuration for the cluster harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.faults.plan import FaultPlan
from repro.simulator.latency import EC2_REGIONS


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a protocol, a deployment and a workload.

    Frozen, so the plan validated here is the plan that runs: nothing
    validates it again.

    Attributes:
        protocol: protocol name from :mod:`repro.protocols.registry`.
        num_sites: number of sites; each site hosts one replica per shard.
        faults: tolerated failures ``f``.
        num_shards: number of shards (partitions); 1 = full replication.
        clients_per_site: closed-loop clients per site.
        conflict_rate: microbenchmark conflict rate (ignored when
            ``workload`` is ``"ycsbt"``).
        payload_size: command payload in bytes.
        keys_per_command: keys per command for the microbenchmark.
        workload: ``"micro"`` or ``"ycsbt"``.
        zipf: zipfian exponent for YCSB+T.
        write_ratio: write fraction for YCSB+T (ignored by Tempo).
        duration_ms: how long clients keep submitting (simulated ms).
        warmup_ms: samples before this time are discarded.
        seed: RNG seed (workloads, client start stagger, the fault stream).
        sites: site names; defaults to the paper's five EC2 regions.
        protocol_kwargs: extra arguments for the protocol constructor.
        fault_plan: declarative timeline of fault events (crashes, restarts,
            partitions, flaky-link windows, targeted message loss), validated
            here and scheduled by ``Simulation.schedule_faults`` for the run.
        record_execution_trace: record every command execution (replica,
            identifier, keys, committed timestamp) plus client submit/reply
            windows, and run the :mod:`repro.analysis` consistency checks
            over the trace after the run, raising on any violation.
            Observation-only: a traced run produces identical results.
            ``REPRO_TRACE_CHECK=1`` in the environment forces it on.
    """

    protocol: str = "tempo"
    num_sites: int = 5
    faults: int = 1
    num_shards: int = 1
    clients_per_site: int = 16
    conflict_rate: float = 0.02
    payload_size: int = 100
    keys_per_command: int = 1
    workload: str = "micro"
    zipf: float = 0.5
    write_ratio: float = 0.05
    duration_ms: float = 4_000.0
    warmup_ms: float = 500.0
    seed: int = 1
    sites: Sequence[str] = field(default_factory=lambda: EC2_REGIONS)
    keys_per_shard: int = 10_000
    protocol_kwargs: Dict[str, object] = field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = None
    record_execution_trace: bool = False

    def __post_init__(self) -> None:
        if self.num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        if len(self.sites) < self.num_sites:
            raise ValueError("not enough site names for num_sites")
        if self.clients_per_site < 1:
            raise ValueError("clients_per_site must be >= 1")
        if self.duration_ms <= 0 or self.warmup_ms < 0:
            raise ValueError("invalid duration/warmup")
        if self.warmup_ms >= self.duration_ms:
            raise ValueError("warmup_ms must be smaller than duration_ms")
        if self.workload not in ("micro", "ycsbt"):
            raise ValueError("workload must be 'micro' or 'ycsbt'")
        if self.fault_plan is not None:
            self.fault_plan.validate(self.num_sites, self.num_shards)

    def site_names(self) -> Sequence[str]:
        """Names of the sites actually used."""
        return list(self.sites[: self.num_sites])

    def total_clients(self) -> int:
        return self.clients_per_site * self.num_sites
