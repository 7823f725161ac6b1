"""Cluster-level contracts of the declarative fault-plan machinery.

Two guarantees pin the machinery:

* a plan is validated against the deployment shape when the config is
  built, not when the run reaches the bad event;
* an empty fault plan is a no-op: the run is bit-identical to one with no
  fault machinery at all — healthy traffic never touches the fault RNG
  stream and scheduling a plan consumes nothing.
"""

from __future__ import annotations

import pytest

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.faults import Crash, FaultPlan

SITES = ("ireland", "n-california", "singapore")


def small_config(**overrides) -> ExperimentConfig:
    options = dict(
        protocol="tempo",
        num_sites=3,
        clients_per_site=2,
        duration_ms=1_200.0,
        warmup_ms=200.0,
        seed=7,
        sites=SITES,
    )
    options.update(overrides)
    return ExperimentConfig(**options)


def run_fingerprint(result):
    """Everything observable about a run, for bit-identity comparison."""
    return (
        result.completed,
        result.submitted,
        result.throughput_ops,
        result.latency.samples(),
        {site: h.samples() for site, h in result.per_site_latency.items()},
        sorted(result.stats.items()),
    )


class TestPlanValidation:
    def test_plan_is_validated_against_the_deployment(self):
        with pytest.raises(ValueError):
            small_config(fault_plan=FaultPlan([Crash(at_ms=800.0, site_rank=9)]))


class TestFaultRngDeterminism:
    def test_empty_plan_run_is_bit_identical_to_a_healthy_run(self):
        # Satellite 2 of the fault-injection campaign: the dedicated fault
        # RNG stream means merely *installing* the machinery perturbs
        # nothing — a run with an empty plan produces the exact same
        # latency samples as one that never heard of fault plans.
        healthy = run_experiment(small_config())
        with_empty_plan = run_experiment(small_config(fault_plan=FaultPlan([])))
        assert run_fingerprint(healthy) == run_fingerprint(with_empty_plan)

    def test_faulty_runs_are_deterministic_given_a_seed(self):
        config = small_config(
            fault_plan=FaultPlan(
                [Crash(at_ms=800.0, site_rank=1)]
            )
        )
        assert run_fingerprint(run_experiment(config)) == run_fingerprint(
            run_experiment(config)
        )
