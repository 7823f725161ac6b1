"""Crash-during-contention tail benchmark (the repair pass end-to-end).

A Tempo coordinator is crashed mid-run under the contended fig6 workload.
Commands it was coordinating are stranded mid-broadcast: fast-quorum members
self-commit from the ack broadcast and relay the commit to their share of
the other replicas; whoever was the crashed coordinator's own share learns
of the identifiers only through promise broadcasts whose commit never
arrives — the exact path on which the repair pass (``repro.core.repair``)
asks for the commit with an ``MRepairRequest`` one recovery timeout later.
Meanwhile the stranded attached promises freeze the stability frontier,
stalling execution cluster-wide until the partition leader recovers the
commands (Algorithm 4).  Commands submitted after the crash are proposed to
quorums without the suspected replica, so only the in-flight ones wait for
recovery (``docs/fault_injection.md``, "Failure detector").

The benchmark asserts the recovery story end to end: survivors converge on an
identical execution order with no pending commands, the latency tail is
bounded by the recovery timeout (plus a few wide-area round trips) rather
than unbounded, the median is unaffected, and the repair pass demonstrably
fired — while the healthy twin run never asked for anything.
"""

from __future__ import annotations

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.faults import Crash, FaultPlan

#: Tolerated tail bound: recovery timeout (500 ms) + one more repair round
#: (another timeout) + a few wide-area round trips.
TAIL_BOUND_MS = 2_000.0
#: Closed-loop noise on a surviving site's median, either way.
MEDIAN_NOISE_MS = 25.0


def _config(**overrides) -> ExperimentConfig:
    base = dict(
        protocol="tempo",
        num_sites=5,
        faults=1,
        clients_per_site=8,
        conflict_rate=0.15,
        duration_ms=3_000.0,
        warmup_ms=500.0,
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _row(name: str, result) -> dict:
    return {
        "scenario": name,
        "completed": result.completed,
        "p50": round(result.percentile(50.0), 1),
        "p95": round(result.percentile(95.0), 1),
        "p99": round(result.percentile(99.0), 1),
        "p99.9": round(result.percentile(99.9), 1),
        "commit_requests": int(result.stats.get("sent:MCommitRequest", 0.0)),
    }


def _quorum_round_trip(quorums, process: int, suspected=frozenset()) -> float:
    """Round trip from ``process`` to the farthest member of the fast
    quorum it picks while suspecting ``suspected``."""
    return max(
        quorums.distance(process, member) + quorums.distance(member, process)
        for member in quorums.fast_quorum(process, 0, suspected)
    )


def test_bench_crash_during_contention_tail(benchmark, results_emitter):
    def run_pair():
        healthy = run_experiment(_config())
        crashed = run_experiment(
            _config(
                fault_plan=FaultPlan([Crash(at_ms=1_200.0, site_rank=0)]),
                record_execution_trace=True,
            )
        )
        return healthy, crashed

    healthy, crashed = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    results_emitter(
        "crash_tail",
        [_row("healthy", healthy), _row("coordinator crash @1.2s", crashed)],
        "Crash during contention - tail latency (ms), tempo f=1, 5 sites",
    )

    survivors = [
        process for process in crashed.deployment.processes if process.alive
    ]
    assert len(survivors) == 4

    # Recovery commits: every stranded command was recovered and executed,
    # and the survivors agree on one execution order (the liveness row of
    # check_run, which holds Tempo to one total order per partition).
    report = crashed.trace_report
    assert report.stuck == 0 and report.converged, report.summary()
    # The crashed process executed a strict prefix of the agreed order.
    crashed_process = next(
        process for process in crashed.deployment.processes if not process.alive
    )
    agreed = tuple(survivors[0].executed_dots())
    prefix = tuple(crashed_process.executed_dots())
    assert agreed[: len(prefix)] == prefix

    # Bounded tail: the stall is capped by the recovery machinery, not the
    # run length; the fast path (median) is bounded too.  Site by site: the
    # crashed site's clients are the fastest and stop contributing, which
    # alone moves the pooled median (186.0 -> 200.0).  Each surviving site
    # proposes its new commands to the nearest quorum without the suspected
    # Ireland, whose round trip is longer, so its median may rise by that
    # growth plus 25 ms of closed-loop noise, and fall by the noise only:
    #
    #   site          quorum round trip     median gap (crash - healthy)
    #   n-california  141 -> 181 (+40)      +9.5
    #   singapore     186 -> 221 (+35)      -16.5
    #   canada         78 -> 123 (+45)      +28.5
    #   sao-paulo     183 -> 190  (+7)      0.0
    assert crashed.percentile(99.9) <= TAIL_BOUND_MS, _row("crash", crashed)
    assert crashed.percentile(99.9) > healthy.percentile(99.9), (
        "crash run should show the recovery stall in its tail"
    )
    deployment = crashed.deployment
    suspected = frozenset({crashed_process.process_id})
    for site_rank, site in enumerate(deployment.sites[1:], start=1):
        process = deployment.process_for(site_rank, 0).process_id
        growth = _quorum_round_trip(
            deployment.quorum_system, process, suspected
        ) - _quorum_round_trip(deployment.quorum_system, process)
        gap = crashed.per_site_latency[site].percentile(
            50.0
        ) - healthy.per_site_latency[site].percentile(50.0)
        assert -MEDIAN_NOISE_MS <= gap <= growth + MEDIAN_NOISE_MS, (site, gap, growth)

    # The repair pass fired for the stranded identifiers and only for them
    # (the healthy twin asks for nothing), and nothing is left waiting:
    # every stranded identifier was committed, however long we look.
    assert crashed.stats["sent:MRepairRequest"] > 0
    assert "sent:MRepairRequest" not in healthy.stats
    for process in survivors:
        assert process.blocked_on(float("inf")) == [], (
            f"process {process.process_id} still waits for an ingredient"
        )

    # Progress still happened under the crash (clients at the four healthy
    # sites keep completing commands).
    assert crashed.completed >= healthy.completed * 0.4
