"""Metric declarations: the single source ``BENCHMARK.json`` is checked against.

End-to-end metrics are what a user of the reproduction sees: how fast and
how cheaply the host regenerates the numbers, and the client-visible
latency/throughput those numbers are.  Every workload reports every one of
them (the benchmark contract), so each is defined on "the workload's own
clock": simulated ms for ``sim_*``, virtual ms for ``rt_delay2ms``, host ms
from the due time for ``rt_open300``.

Per-layer metrics come from the separate traced pass; a layer is a module
of ``src/repro``.  Each carries the end-to-end metric it is expected to
move and on which workloads (``moves``) — written down before measuring.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, NamedTuple, Sequence


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    what: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the process that ran the workload, median repeat"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "process start -> timed run start (imports, inputs, 1/10-size warm-up), median repeat"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "commands completed per second of the workload's own clock after warm-up, median repeat"),
    EndToEnd("mean_ms", "ms", "lower", 0.15,
             "mean client submit -> reply latency on the workload's own clock, pooled repeats"),
    EndToEnd("p99_ms", "ms", "lower", 0.25,
             "99th percentile (nearest rank) of the same latency, pooled repeats"),
    EndToEnd("slo_ok_share", "share", "higher", 0.05,
             "share of measured requests completed within the workload's latency limit, pooled"),
]

#: Measured and printed by the untraced pass next to the metrics above, but
#: not in ``BENCHMARK.json``'s end-to-end list: on the reference sandbox the
#: host's speed drifts by more than any admissible bound between two sets of
#: runs (README, "Host speed"), so it cannot gate.  The traced pass reports
#: the same number as the per-layer metric ``host.cmds_per_s``.
CMDS_PER_S = EndToEnd(
    "cmds_per_s", "1/s", "higher", 0.0,
    "commands completed / host wall seconds of the whole public call, median repeat",
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


_P = PerLayer
_TEMPO_SIMS = "sim_tempo, sim_partial, sim_faults"
PER_LAYER: List[PerLayer] = [
    _P("host.cmds_per_s", "1/s", "higher",
       "the speed claim of any optimisation: untraced commands / host wall second, ungated"),
    _P("simulator.events.events", "count", "lower", "cmds_per_s on sim_*; none on rt_*"),
    _P("simulator.events.heap_ops", "count", "lower", "cmds_per_s on sim_*"),
    _P("simulator.events.self_s", "s", "lower", "cmds_per_s on sim_*; sim latencies must not move"),
    _P("simulator.events.ns_per_event", "ns", "lower", "cmds_per_s on sim_*"),
    _P("simulator.sim.loop_self_s", "s", "lower", "cmds_per_s on sim_*"),
    _P("simulator.sim.ticks", "count", "lower", "cmds_per_s on sim_*"),
    _P("simulator.sim.events_per_s", "1/s", "higher", "cmds_per_s on sim_*"),
    _P("simulator.network.self_s", "s", "lower", "cmds_per_s on sim_*"),
    _P("simulator.network.msgs_per_cmd", "count", "lower", "cmds_per_s on sim_*"),
    _P("simulator.network.bytes_per_cmd", "B", "lower", "cmds_per_s on sim_*"),
    _P("simulator.network.coalescing", "ratio", "higher", "cmds_per_s on sim_* (fewer events)"),
    _P("simulator.network.dropped", "count", "lower", "p99_ms on sim_faults; 0 elsewhere"),
    _P("core.wiresize.calls", "count", "lower", "cmds_per_s on sim_* only"),
    _P("core.wiresize.self_s", "s", "lower", "cmds_per_s on sim_* only"),
    _P("core.process.deliver_self_s", "s", "lower", f"cmds_per_s on {_TEMPO_SIMS}, rt_*; none on sim_atlas"),
    _P("core.process.tick_self_s", "s", "lower", f"cmds_per_s on {_TEMPO_SIMS}, rt_*"),
    _P("core.process.submit_self_s", "s", "lower", f"cmds_per_s on {_TEMPO_SIMS}, rt_*"),
    _P("core.process.us_per_msg", "us", "lower", f"cmds_per_s on {_TEMPO_SIMS}, rt_*"),
    *[
        _P(f"core.process.sent.{kind}", "count", "lower",
           f"cmds_per_s on {_TEMPO_SIMS}, rt_*; 0 on sim_atlas")
        for kind in ("MPropose", "MProposeAck", "MCommit", "MPromises",
                     "MStable", "MBump", "MCommitRequest", "MRec")
    ],
    _P("core.promises.calls", "count", "lower", "cmds_per_s on sim_tempo, rt_delay2ms; 0 on sim_atlas"),
    _P("core.promises.self_s", "s", "lower", "cmds_per_s on sim_tempo, rt_delay2ms; 0 on sim_atlas"),
    _P("core.gc.self_s", "s", "lower", "cmds_per_s everywhere, slightly"),
    _P("core.gc.collected", "count", "higher", "peak_rss_mb on sim_*"),
    _P("core.gc.live_records", "count", "lower", "peak_rss_mb on sim_*"),
    _P("core.gc.peak_live_per_key", "count", "lower", "peak_rss_mb on sim_*"),
    _P("protocols.dependency.deliver_self_s", "s", "lower", "cmds_per_s on sim_atlas only"),
    _P("protocols.dependency.tick_self_s", "s", "lower", "cmds_per_s on sim_atlas only"),
    _P("protocols.dependency.sent.MPreAccept", "count", "lower", "cmds_per_s on sim_atlas only"),
    _P("protocols.dependency.sent.MDepCommit", "count", "lower", "cmds_per_s on sim_atlas only"),
    _P("protocols.depgraph.calls", "count", "lower", "cmds_per_s on sim_atlas only"),
    _P("protocols.depgraph.self_s", "s", "lower", "cmds_per_s, p99_ms on sim_atlas only"),
    _P("protocols.depgraph.max_component", "count", "lower", "p99_ms, peak_rss_mb on sim_atlas only"),
    _P("kvstore.applies", "count", "lower", "none: predicted < 2 % of wall everywhere"),
    _P("kvstore.self_s", "s", "lower", "none: predicted < 2 % of wall everywhere"),
    _P("cluster.client.self_s", "s", "lower", "cmds_per_s, slightly"),
    _P("cluster.client.samples", "count", "higher", "none: says what the percentiles rest on"),
    _P("cluster.client.p50_ms", "ms", "lower", "median latency; quantised on sim_*, so not gated"),
    _P("cluster.client.p999_ms", "ms", "lower", "tail beyond p99, ungated"),
    _P("cluster.client.max_ms", "ms", "lower", "tail beyond p99, ungated"),
    _P("cluster.client.gen_late_p99_ms", "ms", "lower", "validity of rt_open300: generator lateness"),
    _P("cluster.runner.build_s", "s", "lower", "cmds_per_s on sim_* (set-up inside the call)"),
    _P("cluster.runner.collect_s", "s", "lower", "cmds_per_s on sim_* (histogram merging)"),
    _P("reliability.tracked", "count", "lower", "p99_ms on sim_faults; 0 on healthy workloads"),
    _P("reliability.resends", "count", "lower", "p99_ms on sim_faults; 0 on healthy workloads"),
    _P("reliability.expired", "count", "lower", "failed on sim_faults; 0 on healthy workloads"),
    _P("reliability.self_s", "s", "lower", "cmds_per_s on sim_faults; 0 on healthy workloads"),
    _P("faults.max_reply_gap_ms", "ms", "lower", "time without service: p99_ms on sim_faults"),
    _P("analysis.trace.check_s", "s", "lower", "none: cost of certifying the traced sim_* run"),
    _P("wire.encode_calls", "count", "lower", "cmds_per_s on rt_delay2ms; 0 on sim_*"),
    _P("wire.encode_self_s", "s", "lower", "cmds_per_s on rt_delay2ms; frees the loop on rt_open300"),
    _P("wire.decode_calls", "count", "lower", "cmds_per_s on rt_delay2ms; 0 on sim_*"),
    _P("wire.decode_self_s", "s", "lower", "cmds_per_s on rt_delay2ms; frees the loop on rt_open300"),
    _P("wire.bytes_per_cmd", "B", "lower", "cmds_per_s on rt_*"),
    _P("runtime.channel.self_s", "s", "lower", "cmds_per_s on rt_delay2ms"),
    _P("runtime.channel.delivered", "count", "lower", "cmds_per_s on rt_*"),
    _P("runtime.channel.queue_wait_p50_ms", "ms", "lower", "mean_ms on rt_*"),
    _P("runtime.channel.queue_wait_p99_ms", "ms", "lower", "p99_ms on rt_*"),
    _P("runtime.cluster.self_s", "s", "lower", "cmds_per_s on rt_delay2ms"),
    _P("runtime.cluster.tick_rate_hz", "1/s", "higher", "p99_ms on rt_open300 (nominal 200 Hz)"),
    _P("runtime.cluster.flush_wait_s", "s", "lower", "mean_ms on rt_delay2ms (serial per-envelope delay)"),
    _P("runtime.loop.self_s", "s", "lower", "cmds_per_s on rt_*: asyncio's own scheduling work"),
    _P("runtime.loop.idle_s", "s", "higher", "none: host seconds the loop slept (rt_open300 is ~70 % idle)"),
    _P("runtime.transport.frames_per_s", "1/s", "higher", "none today: AsyncCluster does not use the transport"),
    _P("trace.overhead_ratio", "ratio", "lower", "none: traced CPU / untraced CPU of the same input"),
    _P("trace.coverage_share", "share", "higher", "none: sum of layer self times / traced wall"),
    _P("trace.uncovered_s", "s", "lower", "none: traced wall outside every span"),
]


def percentile(sorted_samples: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of sorted samples."""
    if not sorted_samples:
        return 0.0
    rank = math.ceil(share * len(sorted_samples) - 1e-9)
    return sorted_samples[min(len(sorted_samples) - 1, max(0, rank - 1))]


def _latency_metrics(samples: List[float], pending: int, slo_ms: float) -> Dict[str, float]:
    """Latency metrics of sorted samples; a command that never completed
    (``pending``) has no sample and misses the limit."""
    return {
        "mean_ms": statistics.fmean(samples),
        "p99_ms": percentile(samples, 0.99),
        "slo_ok_share": sum(1 for x in samples if x <= slo_ms) / (len(samples) + pending),
    }


def end_to_end(repeats: List[dict], slo_ms: float) -> Dict[str, dict]:
    """The end-to-end metrics of one workload from its worker runs.

    Latency values are taken over the pooled samples of all repeats, so a
    percentile rests on every sample the run measured; the rest are medians
    over the repeats.  Each entry also carries the per-repeat values, which
    ``agree`` pairs between two result sets.  ``cmds_per_s`` comes last and is not
    a gated metric (see ``CMDS_PER_S``).
    """
    reported = END_TO_END + [CMDS_PER_S]
    per_repeat: Dict[str, List[float]] = {metric.name: [] for metric in reported}
    for run in repeats:
        completed = run["attempted"] - run["failed"]
        values = {
            "cmds_per_s": completed / run["wall_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": run["setup_s"],
            "ops_per_s": run["ops_per_s"],
            **_latency_metrics(sorted(run["latencies_ms"]), run["pending"], slo_ms),
        }
        for name, value in values.items():
            per_repeat[name].append(value)
    pooled = _latency_metrics(
        sorted(x for run in repeats for x in run["latencies_ms"]),
        sum(run["pending"] for run in repeats),
        slo_ms,
    )
    return {
        metric.name: {
            "value": pooled.get(metric.name, statistics.median(per_repeat[metric.name])),
            "unit": metric.unit,
            "repeats": per_repeat[metric.name],
        }
        for metric in reported
    }
