"""The six named workloads and how their inputs are made from a seed.

A workload's size is a pure function of the host seconds it is asked to
fill: each entry carries how much of its own unit of work (simulated
milliseconds, commands per client, schedule seconds) the seed commit
(``f03d936``) gets through in one host second on the reference sandbox, so
``--seconds`` sizes the input and the same ``--seed``/``--seconds`` always
give the same input on any machine.  Later commits keep these constants:
a faster program then finishes the same input sooner, which is what
``cmds_per_s`` reports.

``BENCHMARK.json`` lists five of the six, and those are held to its bounds.
``rt_open300`` is measured and reported but not listed: see "What is gated"
in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``sim`` (discrete-event simulator), ``rt_closed`` (asyncio runtime,
    #: virtual clock, closed loop) or ``rt_open`` (asyncio runtime, real
    #: clock, open loop).
    kind: str
    #: One line for ``BENCHMARK.json``: what the workload stresses.
    why: str
    #: Latency limit behind ``slo_ok_share``, on the workload's own clock.
    slo_ms: float
    #: Units of work the seed commit completes per host second (see above).
    per_host_second: float
    #: ``ExperimentConfig`` / ``AsyncClusterOptions`` keyword arguments.
    options: Dict[str, object]


_FIVE_SITES = dict(faults=1, num_sites=5, conflict_rate=0.05)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sim_tempo", "sim",
            "Tempo f=1 on the paper's 5 EC2 sites, 64 closed-loop clients/site, "
            "conflict 0.05: core/process.py and core/promises.py over the full simulator stack",
            slo_ms=400.0, per_host_second=1650.0,
            options=dict(_FIVE_SITES, protocol="tempo", clients_per_site=64),
        ),
        Workload(
            "sim_atlas", "sim",
            "Same cell on Atlas: same simulator/network/client work, but dependency.py and "
            "depgraph.py replace promises.py, so a promise optimisation must not move it",
            slo_ms=400.0, per_host_second=1700.0,
            options=dict(_FIVE_SITES, protocol="atlas", clients_per_site=64),
        ),
        Workload(
            "sim_partial", "sim",
            "Tempo on 3 sites x 2 shards, YCSB+T zipf 0.7, half writes: two-key cross-shard "
            "commands (MBump, cross-shard MStable), reads, sharding and the Zipf sampler",
            slo_ms=400.0, per_host_second=2450.0,
            options=dict(
                protocol="tempo", faults=1, num_sites=3, num_shards=2,
                workload="ycsbt", zipf=0.7, write_ratio=0.5, clients_per_site=64,
            ),
        ),
        Workload(
            "sim_faults", "sim",
            "Tempo, 5 sites, 32 clients/site; site 1 crashes half way and restarts 1.5 s later: "
            "the only workload where reliability/, the repair timers and recovery run at all",
            slo_ms=1000.0, per_host_second=2700.0,
            options=dict(_FIVE_SITES, protocol="tempo", clients_per_site=32),
        ),
        Workload(
            "rt_delay2ms", "rt_closed",
            "AsyncCluster tempo n=3 with wire frames and 2 ms injected one-way delay on the virtual "
            "clock, 16 closed-loop clients: wire/codecs.py and runtime/channel.py do most of the work",
            slo_ms=100.0, per_host_second=88.0,
            options=dict(
                protocol="tempo", num_processes=3, faults=1,
                wire_bytes=True, latency_seconds=0.002,
            ),
        ),
        Workload(
            "rt_open300", "rt_open",
            "Same cluster on the real clock with no injected delay, open loop of 300 Poisson "
            "requests/s timed from their due time: every delay is the runtime's own scheduling",
            slo_ms=100.0, per_host_second=1.0,
            options=dict(
                protocol="tempo", num_processes=3, faults=1,
                wire_bytes=True, latency_seconds=0.0,
            ),
        ),
    )
}

#: Closed-loop client coroutines of ``rt_delay2ms``.
RT_CLIENTS = 16
#: Share of commands that write the one hot key in the ``rt_*`` workloads.
RT_CONFLICT = 0.02
#: Request rate of ``rt_open300`` (requests per second of the real clock).
OPEN_RATE = 300.0
#: Leading share of a run whose samples are discarded (``sim_*`` warm-up,
#: ``rt_open300`` ramp).
WARMUP_SHARE = 1.0 / 6.0
#: Simulated milliseconds for which ``sim_faults`` keeps site 1 down.
SIM_FAULTS_DOWN_MS = 1500.0
#: Per-request timeouts; a request that hits one counts as failed.
RT_CLOSED_TIMEOUT_S = 60.0
RT_OPEN_TIMEOUT_S = 10.0


def sim_config(workload: Workload, seed: int, seconds: float, check_trace: bool):
    """The ``ExperimentConfig`` of a ``sim_*`` workload sized for ``seconds``."""
    from repro.cluster import ExperimentConfig
    from repro.faults.plan import Crash, FaultPlan, Restart

    duration = max(300.0, workload.per_host_second * seconds)
    options = dict(workload.options)
    if workload.name == "sim_faults":
        # Site 1 crashes half way through and returns, with the state it
        # had, 1.5 simulated seconds later (sooner in runs too short for
        # that).  A longer outage puts the 99th percentile among the later
        # steps of the recovery back-off, where it jumps from seed to seed,
        # and so does random loss (README, "Workloads"); the crash and
        # restart alone already arm reliable delivery and recovery.
        down_ms = min(SIM_FAULTS_DOWN_MS, duration / 6.0)
        options["fault_plan"] = FaultPlan(
            [Crash(duration / 2.0, site_rank=1), Restart(duration / 2.0 + down_ms, site_rank=1)]
        )
    return ExperimentConfig(
        duration_ms=duration,
        warmup_ms=duration * WARMUP_SHARE,
        seed=seed,
        record_execution_trace=check_trace,
        **options,
    )


def closed_loop_plan(seed: int, seconds: float, workload: Workload) -> List[List[Tuple[int, str]]]:
    """Per client, the ``(replica, key)`` of each of its commands."""
    rng = random.Random(seed)
    commands = max(4, round(workload.per_host_second * seconds))
    replicas = int(workload.options["num_processes"])
    return [
        [
            (
                rng.randrange(replicas),
                "hot" if rng.random() < RT_CONFLICT else f"k{client}-{index}",
            )
            for index in range(commands)
        ]
        for client in range(RT_CLIENTS)
    ]


def open_loop_plan(seed: int, seconds: float, workload: Workload) -> List[Tuple[float, int, str]]:
    """``(due seconds, replica, key)`` per request: Poisson arrivals at
    ``OPEN_RATE`` for ``seconds`` of the real clock."""
    rng = random.Random(seed)
    replicas = int(workload.options["num_processes"])
    plan: List[Tuple[float, int, str]] = []
    due = 0.0
    while True:
        due += rng.expovariate(OPEN_RATE)
        if due >= seconds:
            return plan
        key = "hot" if rng.random() < RT_CONFLICT else f"k{len(plan)}"
        plan.append((due, rng.randrange(replicas), key))
