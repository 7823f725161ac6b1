"""One repeat of one workload, in a fresh process.

``run.py`` starts this module once per repeat (``python -m perfbench.worker
<json request>``).  The process imports the program, makes the inputs from
the seed, runs one untimed warm-up at a tenth of the size, then the timed
run, and prints one JSON object describing what it measured.  ``setup_s``
is everything before the timed run starts, counted from the moment the
parent started the process.

With ``"trace": true`` the timed run happens with the spans of
``perfbench.layers`` installed, ``sim_*`` runs also record and check their
execution trace, and the result carries the per-layer metrics instead of
being used for any end-to-end number.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional

from perfbench.metrics import percentile
from perfbench.workloads import (
    WORKLOADS,
    Workload,
    closed_loop_plan,
    open_loop_plan,
    sim_config,
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: The run is invalid when the open-loop generator itself started more than
#: 1 % of the requests later than their latency limit allows.
MAX_GENERATOR_LATE_MS = 100.0


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _replicas_agree(deployment) -> bool:
    """Whether the replicas of every shard hold identical stores."""
    by_shard: Dict[int, List[dict]] = {}
    for process_id, store in deployment.stores.items():
        shard = deployment.protocol_config.partition_of_process(process_id)
        by_shard.setdefault(shard, []).append(store.snapshot())
    return all(
        snapshot == snapshots[0]
        for snapshots in by_shard.values()
        for snapshot in snapshots[1:]
    )


def _footprint_totals(footprints: List[Dict[str, int]]) -> Dict[str, int]:
    return {
        "live_records": sum(f["records"] for f in footprints),
        "gc_collected": sum(f["gc_collected"] for f in footprints),
        "peak_live_per_key": max((f["peak_live_per_key"] for f in footprints), default=0),
    }


def run_sim(workload: Workload, seed: int, seconds: float, probe=None) -> dict:
    """One ``run_experiment`` call, timed as a whole."""
    from repro.cluster import runner

    config = sim_config(workload, seed, seconds, check_trace=probe is not None)
    cpu_started = time.process_time()
    started_ns = time.perf_counter_ns()
    if probe is None:
        result = runner.run_experiment(config)
    else:
        with probe.tracer.span("cluster.runner.run_experiment"):
            result = runner.run_experiment(config)
    ended_ns = time.perf_counter_ns()
    wall_s = (ended_ns - started_ns) / 1e9
    cpu_s = time.process_time() - cpu_started
    samples = result.latency.samples()
    stats = result.stats
    run = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "attempted": result.submitted,
        "failed": result.submitted - result.completed,
        "pending": result.submitted - result.completed,
        "ops_per_s": result.throughput_ops,
        "latencies_ms": samples,
        "stores_agree": _replicas_agree(result.deployment),
        "digest": _digest(
            stats["events"], stats["messages_sent"], stats["bytes_sent"],
            result.completed, samples,
        ),
    }
    if probe is not None:
        deployment = result.deployment
        tracer = probe.tracer
        sim_started_ns = tracer.first_start["simulator.sim.run"]
        sim_ended_ns = tracer.last_end["simulator.sim.run"]
        replies = sorted(t for t in probe.reply_times if t >= config.warmup_ms)
        run.update(
            completed=result.completed,
            stats=stats,
            sent={k[5:]: v for k, v in stats.items() if k.startswith("sent:")},
            ticks=deployment.simulation.stats.ticks,
            dropped=deployment.network.stats.messages_dropped,
            messages_handled=sum(p.messages_handled() for p in deployment.processes),
            max_component=max(
                (p.max_component_size() for p in deployment.processes
                 if hasattr(p, "max_component_size")),
                default=0,
            ),
            sim_run_s=(sim_ended_ns - sim_started_ns) / 1e9,
            build_s=(sim_started_ns - started_ns) / 1e9,
            collect_s=(ended_ns - sim_ended_ns) / 1e9 - tracer.layer_self_s("analysis.trace"),
            max_reply_gap_ms=max(
                (later - earlier for earlier, later in zip(replies, replies[1:])), default=0.0
            ),
            **_footprint_totals([p.memory_footprint() for p in deployment.processes]),
        )
    return run


def run_rt(workload: Workload, seed: int, seconds: float, probe=None) -> dict:
    """One ``AsyncCluster`` run under the workload's load generator."""
    from perfbench.rtload import DRAIN_S, run_runtime, untraced

    if workload.kind == "rt_closed":
        plan = closed_loop_plan(seed, seconds, workload)
    else:
        plan = open_loop_plan(seed, seconds, workload)
    outcome = run_runtime(
        workload.kind, workload.options, plan,
        probe.tracer.wrap if probe is not None else untraced,
    )
    late = sorted(outcome.late_ms)
    run = {
        "wall_s": outcome.wall_s,
        "cpu_s": outcome.cpu_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "pending": outcome.missed,
        "ops_per_s": len(outcome.latencies_ms) / outcome.clock_s,
        "latencies_ms": outcome.latencies_ms,
        "stores_agree": outcome.stores_agree and outcome.all_executed,
        # Only the virtual clock repeats exactly; the real clock has no digest.
        "digest": _digest(
            outcome.delivered, outcome.bytes_shipped, outcome.attempted, outcome.latencies_ms
        ) if workload.kind == "rt_closed" else "",
        "generator_ok": percentile(late, 0.99) <= MAX_GENERATOR_LATE_MS,
        "errors": outcome.errors,
    }
    if probe is not None:
        ticks = probe.tracer.calls.get("core.process.tick", 0)
        # Loop-clock seconds the cluster was up: the load plus the drain;
        # under the virtual clock these are virtual seconds.
        load_s = plan[-1][0] if workload.kind == "rt_open" else outcome.clock_s
        run.update(
            completed=outcome.attempted - outcome.failed,
            sent=probe.sent_kinds,
            late_ms=outcome.late_ms,
            delivered=outcome.delivered,
            bytes_shipped=outcome.bytes_shipped,
            messages_handled=outcome.messages_handled,
            tick_rate_hz=ticks / outcome.num_processes / (load_s + DRAIN_S),
            **_footprint_totals(outcome.footprints),
        )
    return run


def run_workload(workload: Workload, seed: int, seconds: float, probe=None) -> dict:
    if workload.kind == "sim":
        return run_sim(workload, seed, seconds, probe)
    return run_rt(workload, seed, seconds, probe)


def _transport_drill(shipped: list) -> float:
    """Frames per second of the drill over a Unix socket in ``out/``."""
    from perfbench.layers import transport_drill

    if not shipped:
        return 0.0
    # Bind by bare name from inside out/: AF_UNIX paths must be short.
    previous = os.getcwd()
    os.chdir(OUT_DIR)
    socket_name = f"drill-{os.getpid()}.sock"
    try:
        return asyncio.run(transport_drill(shipped, socket_name))
    finally:
        if os.path.exists(socket_name):
            os.unlink(socket_name)
        os.chdir(previous)


def main(request: dict) -> dict:
    workload = WORKLOADS[request["workload"]]
    seconds = float(request["seconds"])
    trace = bool(request["trace"])
    # The warm-up always takes the base seed, so that its digest must be
    # the same in every process of one benchmark run.
    warmup = run_workload(workload, int(request["seed"]), seconds / 10.0)
    # The warm-up's deployment is cyclic garbage; whether a collection
    # happens to free it before the timed run's peak used to move
    # ``peak_rss_mb`` by up to a fifth.
    gc.collect()
    probe: Optional[object] = None
    if trace:
        from perfbench.layers import Instrumentation

        probe = Instrumentation(str(workload.options["protocol"]))
        probe.install()
    setup_s = time.time() - float(request["spawned_at"])
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        run = run_workload(workload, int(request["run_seed"]), seconds, probe)
    finally:
        if probe is not None:
            probe.restore()
    run["traced_wall_s"] = time.perf_counter() - started
    run["idle_s"] = max(0.0, run["traced_wall_s"] - (time.process_time() - cpu_started))
    run["setup_s"] = setup_s
    run["warmup_digest"] = warmup["digest"]
    run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if probe is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        run["drill_frames_per_s"] = _transport_drill(probe.shipped)
        run["overhead_ratio"] = (
            run["cpu_s"] / request["untraced_cpu_s"] if request.get("untraced_cpu_s") else 0.0
        )
        run["layers"] = probe.metrics(run)
        probe.tracer.write_records(os.path.join(OUT_DIR, f"trace_{workload.name}.jsonl"))
        run["spans_recorded"] = len(probe.tracer.records)
        for key in ("stats", "sent", "late_ms"):
            run.pop(key, None)
    return run


if __name__ == "__main__":
    json.dump(main(json.loads(sys.argv[1])), sys.stdout)
    sys.stdout.write("\n")
    sys.stdout.flush()
    # Everything is measured and written.  Leave without the interpreter's
    # tear-down of the run's heap, which takes 2 s after ``sim_atlas``.
    os._exit(0)
