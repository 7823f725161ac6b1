"""Unit tests for the declarative fault-plan schema and its injector.

The plan layer is pure validation + ordering; the injector tests drive
``FaultInjector.install`` against a recording stub so every event kind's
compilation (crash -> first-class CRASH event, window events -> paired
FAULT events, rank -> site-name/process-id resolution) is pinned without
spinning up a simulation.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    Crash,
    FaultInjector,
    FaultPlan,
    FlakyLink,
    Partition,
    Restart,
    TargetedLoss,
)

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


class _RecordingNetwork:
    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append((name, args, kwargs))

        return record


class _RecordingSimulation:
    """Duck-typed stand-in for Simulation: records scheduled fault events."""

    def __init__(self):
        self.network = _RecordingNetwork()
        self.crashes = []
        self.faults = []
        self.restarts = []

    def crash_at(self, at_ms, process_id):
        self.crashes.append((at_ms, process_id))

    def fault_at(self, at_ms, action):
        self.faults.append((at_ms, action))

    def restart(self, process_id):
        self.restarts.append(process_id)

    def run_faults(self):
        for _, action in self.faults:
            action(self)


def make_injector(plan, num_shards=1):
    # Process ids laid out shard-major, matching the cluster deployment.
    return FaultInjector(
        plan,
        SITES,
        lambda site_rank, shard: shard * len(SITES) + site_rank,
        num_shards=num_shards,
    )


class TestFaultInjector:
    def test_crash_compiles_to_first_class_crash_event(self):
        simulation = _RecordingSimulation()
        make_injector(FaultPlan([Crash(at_ms=800.0, site_rank=2)])).install(simulation)
        assert simulation.crashes == [(800.0, 2)]
        assert simulation.faults == []

    def test_restart_resolves_the_replica_coordinate(self):
        simulation = _RecordingSimulation()
        make_injector(
            FaultPlan([Restart(at_ms=900.0, site_rank=1, shard=1)]), num_shards=2
        ).install(simulation)
        assert [at for at, _ in simulation.faults] == [900.0]
        simulation.run_faults()
        assert simulation.restarts == [4]  # shard 1, rank 1 -> 1 * 3 + 1

    def test_partition_schedules_set_and_heal(self):
        simulation = _RecordingSimulation()
        make_injector(
            FaultPlan([Partition(at_ms=800.0, heal_at_ms=1400.0, groups=[(0,), (1, 2)])])
        ).install(simulation)
        assert [at for at, _ in simulation.faults] == [800.0, 1400.0]
        simulation.run_faults()
        assert simulation.network.calls == [
            ("set_partition", ((("ireland",), ("canada", "singapore")),), {}),
            ("clear_partition", (), {}),
        ]

    def test_flaky_link_degrades_every_link_of_a_site_then_restores(self):
        simulation = _RecordingSimulation()
        make_injector(
            FaultPlan(
                [FlakyLink(at_ms=800.0, until_ms=1700.0, site_a=0, drop_probability=0.05)]
            )
        ).install(simulation)
        simulation.run_faults()
        names = [name for name, _, _ in simulation.network.calls]
        assert names == ["degrade_link"] * 2 + ["restore_link"] * 2
        degraded = {args[:2] for name, args, _ in simulation.network.calls if name == "degrade_link"}
        assert degraded == {("ireland", "canada"), ("ireland", "singapore")}

    def test_targeted_loss_tags_shards_and_schedules_the_window(self):
        simulation = _RecordingSimulation()
        make_injector(
            FaultPlan(
                [
                    TargetedLoss(
                        at_ms=800.0,
                        until_ms=1400.0,
                        kind="MStable",
                        cross_shard_only=True,
                    )
                ]
            ),
            num_shards=2,
        ).install(simulation)
        # All six replicas tagged with their shard before any window opens.
        tags = [
            args for name, args, _ in simulation.network.calls if name == "set_group"
        ]
        assert sorted(tags) == [(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1)]
        simulation.run_faults()
        names = [name for name, _, _ in simulation.network.calls]
        assert names[-2:] == ["set_targeted_loss", "clear_targeted_loss"]

    def test_install_validates_against_the_deployment_shape(self):
        with pytest.raises(ValueError):
            make_injector(FaultPlan([Crash(at_ms=800.0, site_rank=9)]))
