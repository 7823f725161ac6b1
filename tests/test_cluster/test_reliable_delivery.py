"""The reliable-delivery layer end to end (PR 10 tentpole).

Three properties the layer must hold simultaneously:

* **Healthy runs pay nothing.**  Arming the retransmit buffer must not
  perturb a run that never loses a message: the cluster runner only
  installs it for loss-capable fault plans, acks ride the same
  deterministic lanes as everything else, and a plan whose lossy window
  never fires leaves completions, latency samples and per-shard execution
  orders bit-identical to the no-plan twin.
* **Loss is healed with bounded traffic.**  Sustained targeted loss of
  the critical kinds converges via a handful of backed-off re-sends per
  entry — a small multiple of the healthy twin's traffic, never a storm —
  and without leaning on the repair pass's promise requests.
* **The baselines pull instead.**  Atlas/EPaxos track nothing: a replica
  that misses a commit asks for it again through the repair pass
  (``repro.core.repair``), so their formerly stranded loss and restart
  cells drain with the buffer armed and empty.

And one about what Tempo does *not* need: with the buffer never installed,
its repair pass alone converges every lossy matrix cell (the evidence for
ROADMAP item 5(a), ``docs/reliable_delivery.md`` "Accounting").
"""

from __future__ import annotations

import pytest

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.core.base import ProcessBase
from repro.experiments.scenarios import (
    WORST_CELL_TAIL_BOUND_MS,
    ScenarioOptions,
    build_matrix,
    run_cell,
)
from repro.faults import Crash, FaultPlan, FlakyLink, Restart, TargetedLoss

from test_fault_recovery import (
    assert_bounded_retransmission,
    assert_converged,
    tempo_config,
)


def baseline_config(protocol: str, **overrides) -> ExperimentConfig:
    options = dict(
        protocol=protocol,
        num_sites=3,
        clients_per_site=2,
        duration_ms=2_000.0,
        warmup_ms=200.0,
        seed=3,
        record_execution_trace=True,
    )
    options.update(overrides)
    return ExperimentConfig(**options)


def executed_orders(result):
    """Every replica's executed-dot order."""
    return [process.executed_dots() for process in result.deployment.processes]


class TestHealthyTwinBitIdentity:
    def test_armed_but_never_fired_plan_is_bit_identical(self):
        # The lossy window opens at 9 s; the run ends around 6.5 s, so the
        # reliability layer is armed for the whole run yet no fault ever
        # fires and no message is ever dropped.  Everything observable
        # must match the no-plan twin exactly.
        never_fires = FaultPlan(
            [FlakyLink(at_ms=9_000.0, until_ms=9_500.0, drop_probability=0.01)]
        )
        plain = run_experiment(tempo_config())
        armed = run_experiment(tempo_config(fault_plan=never_fires))
        assert armed.stats.get("retransmit_tracked", 0.0) > 0.0
        assert armed.completed == plain.completed
        assert armed.submitted == plain.submitted
        assert armed.latency.samples() == plain.latency.samples()
        assert executed_orders(armed) == executed_orders(plain)
        # No loss -> every tracked entry acked on first delivery: zero
        # re-sends, zero expiries, nothing left pending.
        assert armed.stats.get("retransmit_resends", 0.0) == 0.0
        assert armed.stats.get("retransmit_expired", 0.0) == 0.0
        assert armed.stats.get("retransmit_pending", 0.0) == 0.0

    def test_crash_only_plans_never_arm_the_layer(self):
        # Crash-only plans keep the goldens byte-identical by never
        # installing the buffer (a crashed process cannot be helped by
        # retransmission anyway — nobody acks from the grave).
        plan = FaultPlan([Crash(at_ms=1_200.0, site_rank=1)])
        result = run_experiment(tempo_config(fault_plan=plan))
        assert "retransmit_tracked" not in result.stats
        for process in result.deployment.processes:
            assert process.reliability is None


class TestBoundedRetransmissionUnderLoss:
    def test_sustained_mstable_loss_converges_without_storms(self):
        # Two shards and two-key commands: every command needs the
        # cross-partition MStable exchange the plan is black-holing.
        sharded = dict(num_shards=2, keys_per_command=2)
        plan = FaultPlan(
            [
                TargetedLoss(
                    at_ms=400.0,
                    until_ms=1_600.0,
                    kind="MStable",
                    probability=0.5,
                    cross_shard_only=True,
                )
            ]
        )
        healthy = run_experiment(tempo_config(**sharded))
        faulty = run_experiment(tempo_config(fault_plan=plan, **sharded))
        # Converged, and one execution order per shard: Tempo's total order
        # makes any disagreement a check_run violation, which raises.
        assert_converged(faulty)
        # The ack-driven buffer heals the window; the MStable re-send
        # count stays a small multiple of the healthy twin's traffic.
        assert_bounded_retransmission(faulty, healthy, "MStable")
        # ...and the layer, not the repair pass, does the healing: a dot
        # whose MStable is re-sent within a window never becomes overdue.
        assert_bounded_retransmission(faulty, healthy, "MRepairRequest")
        assert faulty.stats.get("retransmit_resends", 0.0) > 0.0
        assert faulty.stats.get("retransmit_acked", 0.0) > 0.0

    def test_sustained_commit_loss_converges_for_every_protocol(self):
        for protocol in ("tempo", "atlas", "epaxos"):
            kind = "MCommit" if protocol == "tempo" else "MDepCommit"
            plan = FaultPlan(
                [
                    TargetedLoss(
                        at_ms=400.0,
                        until_ms=1_400.0,
                        kind=kind,
                        probability=0.3,
                    )
                ]
            )
            healthy = run_experiment(baseline_config(protocol))
            faulty = run_experiment(baseline_config(protocol, fault_plan=plan))
            assert_converged(faulty)
            assert_bounded_retransmission(faulty, healthy, kind)

    def test_expiry_budget_is_respected_against_a_black_hole(self):
        # Drop *every* MStable for most of the run: entries toward the
        # black-holed window exhaust their budget and expire rather than
        # retrying forever.
        plan = FaultPlan(
            [
                TargetedLoss(
                    at_ms=300.0,
                    until_ms=6_000.0,
                    kind="MStable",
                    probability=1.0,
                )
            ]
        )
        faulty = run_experiment(tempo_config(fault_plan=plan))
        resends = faulty.stats.get("retransmit_resends", 0.0)
        tracked = faulty.stats.get("retransmit_tracked", 0.0)
        assert tracked > 0.0
        # Budget: at most max_attempts re-sends per tracked entry.
        assert resends <= tracked * 5.0


class TestRestartCatchUp:
    def test_baseline_restart_drains_via_pull(self):
        # A non-coordinator replica crashes and restarts: the baselines
        # previously stranded the commits that raced the outage.  The
        # restarted replica asks for the commits its peers' executed clocks
        # and its own blocked commands show it missed, and a coordinator
        # re-sends its unfinished preaccept/accept rounds; nothing is
        # pushed through the retransmit buffer.
        for protocol in ("atlas", "epaxos"):
            plan = FaultPlan(
                [
                    Crash(at_ms=800.0, site_rank=1),
                    Restart(at_ms=1_200.0, site_rank=1),
                ]
            )
            result = run_experiment(baseline_config(protocol, fault_plan=plan))
            assert_converged(result)
            assert result.stats.get("sent:MRepairRequest", 0.0) > 0.0
            assert result.stats["retransmit_tracked"] == 0.0


class TestTempoPullOnly:
    """Tempo's four lossy matrix cells with the push side stubbed out."""

    @pytest.mark.parametrize(
        "scenario", ["restart@s1", "partition@s0", "flaky-links", "mstable-loss"]
    )
    def test_the_repair_pass_alone_converges_the_cell(self, monkeypatch, scenario):
        refused = []
        monkeypatch.setattr(
            ProcessBase,
            "enable_reliability",
            lambda process, buffer: refused.append(process.process_id),
        )
        (cell,) = build_matrix(
            ScenarioOptions(protocols=("tempo",), select=[scenario])
        )
        assert cell.requires_convergence
        row = run_cell(cell)  # trace-certified; asserts convergence itself
        assert refused, "the runner never tried to arm this cell"
        assert row["stuck"] == 0 and row["converged"] == "yes", row
        assert row["p99.9"] <= WORST_CELL_TAIL_BOUND_MS, row
