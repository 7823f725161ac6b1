"""Recovery under sustained message loss (fault-injection satellite).

Three adversarial shapes that the paper's happy-path figures never exercise:

* a flaky-link window dropping a fraction of *all* cross-site traffic for
  most of the run,
* a fast-quorum member partitioned away and healed late, and
* a replica crashing mid-run and restarting 1.5 s later.

In all of them Tempo must converge after the fault clears — every alive
replica drains its pending set and executes everything it committed — and
it must get there with *bounded* retransmission: the repair pass
(``repro.core.repair``) asks once per recovery-timeout window per blocked
item, so the message overhead stays a small multiple of a healthy twin's,
not a storm.
"""

from __future__ import annotations

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.faults import Crash, FaultPlan, FlakyLink, Partition, Restart
from repro.simulator.latency import EC2_REGIONS

SITES = ("ireland", "n-california", "singapore")

# A faulty run may legitimately re-request commits it lost, but the
# window-paced repair pass caps the overhead: allow a small multiple of
# the healthy twin's count (plus slack for near-zero healthy baselines).
RETRANSMISSION_MULTIPLE = 3.0
RETRANSMISSION_SLACK = 50.0


def tempo_config(**overrides) -> ExperimentConfig:
    options = dict(
        protocol="tempo",
        num_sites=3,
        clients_per_site=2,
        duration_ms=2_500.0,
        warmup_ms=200.0,
        seed=3,
        sites=SITES,
        record_execution_trace=True,  # every run here is trace-certified
    )
    options.update(overrides)
    return ExperimentConfig(**options)


def assert_converged(result) -> None:
    """``check_run``'s liveness row held: no alive replica left a command
    pending or committed-but-unexecuted, and each partition's alive
    replicas executed the same commands."""
    report = result.trace_report
    assert report.stuck == 0 and report.converged, report.summary()


def assert_bounded_retransmission(faulty, healthy, kind: str) -> None:
    faulty_count = faulty.stats.get(f"sent:{kind}", 0.0)
    healthy_count = healthy.stats.get(f"sent:{kind}", 0.0)
    bound = healthy_count * RETRANSMISSION_MULTIPLE + RETRANSMISSION_SLACK
    assert faulty_count <= bound, (
        f"{kind} storm: faulty run sent {faulty_count:.0f}, "
        f"healthy twin sent {healthy_count:.0f} (bound {bound:.0f})"
    )


class TestSustainedLossRecovery:
    def test_flaky_all_links_drop_window_converges(self):
        plan = FaultPlan(
            [
                FlakyLink(
                    at_ms=600.0,
                    until_ms=1_800.0,
                    extra_delay_ms=20.0,
                    jitter_ms=10.0,
                    drop_probability=0.05,
                )
            ]
        )
        healthy = run_experiment(tempo_config())
        faulty = run_experiment(tempo_config(fault_plan=plan))
        assert faulty.completed > 0
        assert_converged(faulty)
        assert_bounded_retransmission(faulty, healthy, "MCommitRequest")
        assert_bounded_retransmission(faulty, healthy, "MPayload")

    def test_partitioned_then_healed_fast_quorum_member_converges(self):
        # With r=3, f=1 every site sits in the fast quorums: isolating
        # site 0 for 600 ms stalls its promise frontier and strands the
        # commits that raced the partition.  After the heal the repair
        # pass (MRec re-attempts, commit and promise requests) must drain
        # everything on all three replicas — nobody crashed, so all of
        # them count.
        plan = FaultPlan(
            [Partition(at_ms=800.0, heal_at_ms=1_400.0, groups=[(0,), (1, 2)])]
        )
        healthy = run_experiment(tempo_config())
        faulty = run_experiment(tempo_config(fault_plan=plan))
        alive = [p for p in faulty.deployment.processes if p.alive]
        assert len(alive) == 3
        assert_converged(faulty)
        # Survivors agree on one execution order.
        assert len({tuple(p.executed_dots()) for p in alive}) == 1
        assert_bounded_retransmission(faulty, healthy, "MCommitRequest")
        assert_bounded_retransmission(faulty, healthy, "MPayload")
        # Repair rounds are per window per blocked dot, never per tick: a
        # 600 ms partition costs a few rounds, while the healthy twin — the
        # zero the bound multiplies — sends none at all.
        assert healthy.stats.get("sent:MRepairRequest", 0.0) == 0.0
        assert_bounded_retransmission(faulty, healthy, "MRepairRequest")

    def test_combined_partition_and_flaky_tail(self):
        # The two shapes stacked: partition + heal, then a lossy window
        # over the healed links.  Still converges, still trace-certified.
        plan = FaultPlan(
            [
                Partition(at_ms=600.0, heal_at_ms=1_100.0, groups=[(0,), (1, 2)]),
                FlakyLink(
                    at_ms=1_200.0,
                    until_ms=1_700.0,
                    site_a=0,
                    drop_probability=0.1,
                ),
            ]
        )
        faulty = run_experiment(tempo_config(fault_plan=plan))
        assert faulty.completed > 0
        assert_converged(faulty)


class TestCrashRestartRepairTraffic:
    def test_payload_rebroadcast_is_per_window_not_per_tick(self):
        # perfbench's sim_faults in small: five sites, site 1 down for
        # 1.5 s in the middle of the run.  Every survivor holds payloads
        # of commands the dead replica was coordinating, and the restarted
        # replica returns to a backlog; re-broadcasting those payloads on
        # every 5 ms tick instead of once per window sent 27 MPayload per
        # command on that workload (healthy: 4).
        options = dict(num_sites=5, sites=EC2_REGIONS, clients_per_site=4,
                       duration_ms=5_000.0, warmup_ms=500.0, seed=1)
        plan = FaultPlan(
            [Crash(at_ms=2_000.0, site_rank=1), Restart(at_ms=3_500.0, site_rank=1)]
        )
        healthy = run_experiment(tempo_config(**options))
        faulty = run_experiment(tempo_config(fault_plan=plan, **options))
        assert all(process.alive for process in faulty.deployment.processes)
        assert_converged(faulty)
        assert_bounded_retransmission(faulty, healthy, "MPayload")
        assert_bounded_retransmission(faulty, healthy, "MCommitRequest")
        assert faulty.stats.get("retransmit_expired", 0.0) == 0.0
