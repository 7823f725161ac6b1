"""Unit tests for the declarative fault-plan schema and its scheduling.

The plan layer is pure validation + ordering.  The scheduling tests run a
plan on a real :class:`~repro.simulator.sim.Simulation` (three sites, no
commands) and observe it at simulated times: a crash or restart acts on the
replica its ``(site_rank, shard)`` resolves to, and each window event is
active on the network from its start to its end.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.config import ExperimentConfig
from repro.cluster.replicas import build_replicas
from repro.cluster.runner import run_experiment
from repro.core.config import ProtocolConfig
from repro.faults import (
    Crash,
    FaultPlan,
    FlakyLink,
    Partition,
    Restart,
    TargetedLoss,
)
from repro.simulator.network import Network
from repro.simulator.sim import Simulation
from tests.conftest import uniform_latency_matrix

SITES = ["ireland", "canada", "singapore"]


class TestEventValidation:
    def test_crash_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            Crash(at_ms=0.0, site_rank=0).validate(3, 1)
        with pytest.raises(ValueError):
            Crash(at_ms=100.0, site_rank=3).validate(3, 1)
        with pytest.raises(ValueError):
            Crash(at_ms=100.0, site_rank=0, shard=1).validate(3, 1)
        Crash(at_ms=100.0, site_rank=2, shard=1).validate(3, 2)

    def test_restart_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            Restart(at_ms=-1.0, site_rank=0).validate(3, 1)
        with pytest.raises(ValueError):
            Restart(at_ms=100.0, site_rank=5).validate(3, 1)

    def test_partition_needs_two_disjoint_groups_and_a_later_heal(self):
        Partition(at_ms=100.0, heal_at_ms=200.0, groups=[(0,), (1, 2)]).validate(3, 1)
        with pytest.raises(ValueError):
            Partition(at_ms=100.0, heal_at_ms=100.0, groups=[(0,), (1,)]).validate(3, 1)
        with pytest.raises(ValueError):
            Partition(at_ms=100.0, heal_at_ms=200.0, groups=[(0, 1, 2)]).validate(3, 1)
        with pytest.raises(ValueError):
            # rank 1 appears in two groups
            Partition(at_ms=100.0, heal_at_ms=200.0, groups=[(0, 1), (1, 2)]).validate(3, 1)
        with pytest.raises(ValueError):
            Partition(at_ms=100.0, heal_at_ms=200.0, groups=[(0,), (7,)]).validate(3, 1)

    def test_flaky_link_must_degrade_something(self):
        with pytest.raises(ValueError):
            FlakyLink(at_ms=100.0, until_ms=200.0).validate(3, 1)
        with pytest.raises(ValueError):
            FlakyLink(at_ms=100.0, until_ms=200.0, drop_probability=1.5).validate(3, 1)
        FlakyLink(at_ms=100.0, until_ms=200.0, drop_probability=0.1).validate(3, 1)

    def test_flaky_link_site_selection_rules(self):
        with pytest.raises(ValueError):
            # site_b without site_a is meaningless
            FlakyLink(at_ms=100.0, until_ms=200.0, site_b=1, extra_delay_ms=1.0).validate(3, 1)
        with pytest.raises(ValueError):
            FlakyLink(
                at_ms=100.0, until_ms=200.0, site_a=1, site_b=1, extra_delay_ms=1.0
            ).validate(3, 1)
        with pytest.raises(ValueError):
            FlakyLink(
                at_ms=100.0, until_ms=50.0, site_a=0, site_b=1, extra_delay_ms=1.0
            ).validate(3, 1)
        FlakyLink(at_ms=100.0, until_ms=200.0, site_a=0, extra_delay_ms=1.0).validate(3, 1)

    def test_targeted_loss_validation(self):
        with pytest.raises(ValueError):
            TargetedLoss(at_ms=100.0, until_ms=200.0, kind="").validate(3, 1)
        with pytest.raises(ValueError):
            TargetedLoss(at_ms=100.0, until_ms=200.0, kind="MStable", probability=0.0).validate(3, 1)
        with pytest.raises(ValueError):
            # cross-shard loss needs a sharded deployment
            TargetedLoss(
                at_ms=100.0, until_ms=200.0, kind="MStable", cross_shard_only=True
            ).validate(3, 1)
        TargetedLoss(
            at_ms=100.0, until_ms=200.0, kind="MStable", cross_shard_only=True
        ).validate(3, 2)


class TestFaultPlan:
    def test_events_are_sorted_by_activation_time(self):
        plan = FaultPlan(
            [
                FlakyLink(at_ms=300.0, until_ms=400.0, drop_probability=0.5),
                Crash(at_ms=100.0, site_rank=0),
            ]
        )
        assert [event.at_ms for event in plan] == [100.0, 300.0]
        assert len(plan) == 2

    def test_validate_rejects_non_events(self):
        with pytest.raises(TypeError):
            FaultPlan(["crash at 100"]).validate(3, 1)  # type: ignore[list-item]


def make_simulation(num_shards=1):
    """Three sites of replicas, shard-major process ids, no clients."""
    config = ProtocolConfig(num_processes=3, faults=1, num_partitions=num_shards)
    processes = build_replicas("tempo", config).processes
    network = Network(uniform_latency_matrix(SITES, one_way_ms=10.0))
    for process in processes:
        process_id = process.process_id
        network.place(
            process_id,
            SITES[config.site_of_process(process_id)],
            config.partition_of_process(process_id),
        )
    return Simulation(processes, network)


def schedule(simulation, plan):
    """Schedule ``plan``, resolving replicas as the cluster deployment does."""
    resolved = []

    def process_id_of(site_rank, shard):
        resolved.append((site_rank, shard))
        return shard * len(SITES) + site_rank

    simulation.schedule_faults(plan, process_id_of)
    return resolved


class TestPlanScheduling:
    def test_crash_takes_effect_at_its_time(self):
        simulation = make_simulation()
        schedule(simulation, FaultPlan([Crash(at_ms=800.0, site_rank=2)]))
        victim, observer = simulation.processes[2], simulation.processes[0]
        simulation.run(until=799.0)
        assert victim.alive and not simulation.network.is_crashed(2)
        simulation.run(until=800.0)
        assert not victim.alive and simulation.network.is_crashed(2)
        assert not observer.believes_alive(2)

    def test_restart_resolves_the_replica_coordinate(self):
        simulation = make_simulation(num_shards=2)
        resolved = schedule(
            simulation,
            FaultPlan(
                [
                    Crash(at_ms=700.0, site_rank=1, shard=1),
                    Restart(at_ms=900.0, site_rank=1, shard=1),
                ]
            ),
        )
        assert resolved == [(1, 1), (1, 1)]
        victim = simulation.processes[4]  # shard 1, rank 1 -> 1 * 3 + 1
        simulation.run(until=800.0)
        assert not victim.alive
        assert all(p.alive for p in simulation.processes.values() if p is not victim)
        simulation.run(until=900.0)
        assert victim.alive and not simulation.network.is_crashed(4)
        assert simulation.processes[0].believes_alive(4)

    @pytest.mark.parametrize(
        "event",
        [
            Partition(at_ms=800.0, heal_at_ms=1400.0, groups=[(0,), (1, 2)]),
            FlakyLink(at_ms=800.0, until_ms=1400.0, site_a=0, drop_probability=0.05),
            TargetedLoss(at_ms=800.0, until_ms=1400.0, kind="MStable"),
        ],
        ids=["partition", "flaky", "targeted"],
    )
    def test_a_window_is_active_from_its_start_to_its_end(self, event):
        simulation = make_simulation()
        assert schedule(simulation, FaultPlan([event])) == []
        network = simulation.network
        simulation.run(until=799.0)
        assert network.active_faults == []
        simulation.run(until=800.0)
        assert network.active_faults == [event]
        simulation.run(until=1399.0)
        assert network.active_faults == [event]
        simulation.run(until=1400.0)
        assert network.active_faults == []

    def test_cross_shard_loss_reads_the_shards_given_at_placement(self):
        from repro.core.identifiers import intern_dot
        from repro.core.messages import MStable

        simulation = make_simulation(num_shards=2)
        schedule(
            simulation,
            FaultPlan(
                [
                    TargetedLoss(
                        at_ms=800.0, until_ms=1400.0, kind="MStable", cross_shard_only=True
                    )
                ]
            ),
        )
        simulation.run(until=800.0)
        network = simulation.network
        stable = MStable(intern_dot(0, 1))

        def send(destination):
            return network.transmit(0, destination, stable, 800.0, lambda *args: None)

        assert send(1) is not None  # shard 0 -> shard 0
        assert send(3) is None  # shard 0 -> shard 1

    def test_one_pass_over_a_plan_validated_once(self, monkeypatch):
        validations = []
        validate = FaultPlan.validate

        def counting_validate(plan, num_sites, num_shards):
            validations.append((num_sites, num_shards))
            return validate(plan, num_sites, num_shards)

        monkeypatch.setattr(FaultPlan, "validate", counting_validate)
        plan = FaultPlan(
            [
                Crash(at_ms=300.0, site_rank=1),
                Restart(at_ms=500.0, site_rank=1),
                FlakyLink(at_ms=200.0, until_ms=600.0, extra_delay_ms=5.0),
            ]
        )
        # Scheduling pushes one event per crash or restart and two per window.
        simulation = make_simulation()
        queued = len(simulation.queue)
        schedule(simulation, plan)
        assert len(simulation.queue) - queued == 4
        assert validations == []
        # A run validates its plan once: when its config is built.
        config = ExperimentConfig(
            num_sites=3, clients_per_site=1, duration_ms=800.0, warmup_ms=100.0,
            sites=SITES, fault_plan=plan,
        )
        run_experiment(config)
        assert validations == [(3, 1)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.fault_plan = FaultPlan([Crash(at_ms=300.0, site_rank=9)])
