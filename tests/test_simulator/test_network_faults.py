"""Unit tests for the network's fault windows.

Partitions, flaky links and message-class-targeted loss are the window
events of :mod:`repro.faults.plan`; the network applies the ones started
(:meth:`Network.start_fault`) and not yet ended.  These tests drive
:meth:`Network.transmit` directly and assert on what ``deliver`` sees.  The
RNG-isolation tests pin the contract the cluster-level determinism test
relies on: healthy traffic never draws from the dedicated fault stream, and
fault draws never advance the main stream.
"""

from __future__ import annotations

import pytest

from repro.core.identifiers import intern_dot
from repro.core.messages import MCommitRequest, MStable
from repro.faults import FaultPlan, FlakyLink, Partition, TargetedLoss
from repro.simulator.latency import ec2_latency_matrix
from repro.simulator.network import Network
from repro.simulator.rng import FAULT_RNG_STREAM, SeededRng
from repro.simulator.sim import Simulation

#: Site ranks 0, 1, 2; endpoint ``i`` sits at rank ``i``.
SITES = ["ireland", "canada", "singapore"]


def make_network(shards=None) -> Network:
    """Endpoint ``i`` at site rank ``i``, in shard ``shards[i]`` if given."""
    network = Network(ec2_latency_matrix(SITES), rng=SeededRng(1))
    for endpoint, site in enumerate(SITES):
        network.place(endpoint, site, shards[endpoint] if shards else None)
    return network


def window(event_class, at_ms=100.0, until_ms=500.0, **fields):
    """A window event of one of the three classes, open ``at_ms``–``until_ms``."""
    if event_class is Partition:
        return Partition(at_ms, until_ms, fields["groups"])
    return event_class(at_ms=at_ms, until_ms=until_ms, **fields)


def transmit(network: Network, sender: int, destination: int, message=None):
    """Route one message; return the delivery time or None (dropped)."""
    delivered = []
    message = message if message is not None else MCommitRequest(intern_dot(0, 1))
    at = network.transmit(
        sender,
        destination,
        message,
        0.0,
        lambda when, *_: delivered.append(when),
    )
    assert (at is None) == (not delivered)
    return at


class TestPartition:
    def test_cross_group_messages_are_dropped(self):
        network = make_network()
        network.start_fault(window(Partition, groups=[(0,), (1, 2)]))
        assert transmit(network, 0, 1) is None
        assert transmit(network, 1, 0) is None

    def test_same_group_messages_deliver(self):
        network = make_network()
        network.start_fault(window(Partition, groups=[(0,), (1, 2)]))
        assert transmit(network, 1, 2) is not None

    def test_unlisted_sites_reach_everyone(self):
        network = make_network()
        network.start_fault(window(Partition, groups=[(0,), (1,)]))
        assert transmit(network, 2, 0) is not None
        assert transmit(network, 0, 2) is not None

    def test_heal_restores_delivery(self):
        network = make_network()
        partition = window(Partition, groups=[(0,), (1, 2)])
        network.start_fault(partition)
        network.end_fault(partition)
        assert transmit(network, 0, 1) is not None
        assert network.active_faults == []

    def test_unknown_site_and_duplicate_site_are_rejected(self):
        # The network takes partitions as site ranks; the plan event
        # validates them against the deployment before they reach it.
        with pytest.raises(ValueError):
            window(Partition, groups=[(0,), (7,)]).validate(len(SITES), 1)
        with pytest.raises(ValueError):
            window(Partition, groups=[(0,), (0, 1)]).validate(len(SITES), 1)


class TestLinkDegradation:
    """A :class:`FlakyLink` window degrades the links it selects."""

    def test_extra_delay_is_added_both_ways(self):
        network = make_network()
        base = transmit(network, 0, 1)
        network.start_fault(window(FlakyLink, site_a=0, site_b=1, extra_delay_ms=30.0))
        assert transmit(network, 0, 1) == pytest.approx(base + 30.0)
        assert transmit(network, 1, 0) == pytest.approx(base + 30.0)

    def test_other_links_are_unaffected(self):
        network = make_network()
        base = transmit(network, 0, 2)
        network.start_fault(window(FlakyLink, site_a=0, site_b=1, extra_delay_ms=30.0))
        assert transmit(network, 0, 2) == pytest.approx(base)

    def test_jitter_is_bounded_and_varies(self):
        network = make_network()
        base = transmit(network, 0, 1)
        network.start_fault(
            window(FlakyLink, site_a=0, site_b=1, extra_delay_ms=10.0, jitter_ms=5.0)
        )
        delays = {transmit(network, 0, 1) for _ in range(20)}
        assert all(base + 10.0 <= delay <= base + 15.0 for delay in delays)
        assert len(delays) > 1

    def test_certain_drop(self):
        network = make_network()
        network.start_fault(window(FlakyLink, site_a=0, site_b=1, drop_probability=1.0))
        assert transmit(network, 0, 1) is None
        assert network.stats.messages_dropped == 1

    def test_restore_link_ends_the_window(self):
        network = make_network()
        base = transmit(network, 0, 1)
        flaky = window(FlakyLink, site_a=0, site_b=1, extra_delay_ms=30.0)
        network.start_fault(flaky)
        network.end_fault(flaky)
        assert transmit(network, 0, 1) == pytest.approx(base)
        assert network.active_faults == []

    def test_site_and_every_link_selections(self):
        network = make_network()
        base = {(a, b): transmit(network, a, b) for a, b in ((0, 1), (0, 2), (1, 2))}
        network.start_fault(window(FlakyLink, site_a=0, extra_delay_ms=30.0))
        assert transmit(network, 0, 1) == pytest.approx(base[0, 1] + 30.0)
        assert transmit(network, 2, 0) == pytest.approx(base[0, 2] + 30.0)
        assert transmit(network, 1, 2) == pytest.approx(base[1, 2])
        network.start_fault(window(FlakyLink, extra_delay_ms=5.0))
        assert transmit(network, 1, 2) == pytest.approx(base[1, 2] + 5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            window(FlakyLink, drop_probability=1.5).validate(len(SITES), 1)
        with pytest.raises(ValueError):
            window(FlakyLink, site_a=0, site_b=0, drop_probability=1.0).validate(len(SITES), 1)


class TestTargetedLoss:
    def test_only_the_targeted_kind_is_dropped(self):
        network = make_network()
        network.start_fault(window(TargetedLoss, kind="MStable"))
        assert transmit(network, 0, 1, MStable(intern_dot(0, 1))) is None
        assert transmit(network, 0, 1, MCommitRequest(intern_dot(0, 1))) is not None

    def test_cross_group_only_spares_intra_group_copies(self):
        # ``cross_shard_only``: the groups are the shards given at placement.
        network = make_network(shards=[0, 0, 1])
        network.start_fault(window(TargetedLoss, kind="MStable", cross_shard_only=True))
        stable = MStable(intern_dot(0, 1))
        assert transmit(network, 0, 1, stable) is not None  # same shard
        assert transmit(network, 0, 2, stable) is None  # crosses shards
        # An endpoint placed without a shard (a client) is never cross-shard.
        network.place(-1, "singapore")
        assert transmit(network, 0, -1, stable) is not None

    def test_clear_restores_the_kind(self):
        network = make_network()
        loss = window(TargetedLoss, kind="MStable")
        network.start_fault(loss)
        network.end_fault(loss)
        assert transmit(network, 0, 1, MStable(intern_dot(0, 1))) is not None
        assert network.active_faults == []

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            window(TargetedLoss, kind="MStable", probability=0.0).validate(len(SITES), 1)


class TestOverlappingWindows:
    """Windows of one kind that overlap in time all apply, and each one's
    end removes only itself."""

    @pytest.mark.parametrize(
        "event_class, fields",
        [
            (FlakyLink, dict(site_a=0, site_b=1, drop_probability=1.0)),
            (Partition, dict(groups=[(0,), (1, 2)])),
            (TargetedLoss, dict(kind="MCommitRequest")),
        ],
        ids=["flaky", "partition", "targeted"],
    )
    def test_the_later_window_outlives_the_earlier_ones_end(self, event_class, fields):
        first = window(event_class, 100.0, 500.0, **fields)
        second = window(event_class, 300.0, 800.0, **fields)
        network = make_network()
        simulation = Simulation([], network)
        simulation.schedule_faults(FaultPlan([first, second]), lambda rank, shard: rank)
        simulation.run(until=400.0)
        assert network.active_faults == [first, second]
        assert transmit(network, 0, 1) is None
        simulation.run(until=600.0)
        assert network.active_faults == [second]
        assert transmit(network, 0, 1) is None
        simulation.run(until=900.0)
        assert network.active_faults == []
        assert transmit(network, 0, 1) is not None

    def test_delays_add_up_and_the_earlier_window_draws_first(self):
        network = make_network()
        base = transmit(network, 0, 1)
        network.start_fault(
            window(FlakyLink, site_a=0, site_b=1, extra_delay_ms=10.0, jitter_ms=5.0)
        )
        network.start_fault(window(FlakyLink, extra_delay_ms=20.0, jitter_ms=50.0))
        twin = SeededRng(1).fault_stream()
        for _ in range(5):
            early = twin.uniform_between(0.0, 5.0)
            late = twin.uniform_between(0.0, 50.0)
            expected = base + (10.0 + early) + (20.0 + late)
            assert transmit(network, 0, 1) == pytest.approx(expected)

    def test_any_window_drops(self):
        network = make_network()
        network.start_fault(window(FlakyLink, extra_delay_ms=30.0))
        network.start_fault(window(FlakyLink, site_a=0, site_b=1, drop_probability=1.0))
        assert transmit(network, 0, 1) is None
        assert transmit(network, 0, 2) is not None


class TestFaultRngIsolation:
    def test_healthy_traffic_never_draws_from_the_fault_stream(self):
        network = make_network()
        for _ in range(100):
            assert transmit(network, 0, 1) is not None
        # The fault stream is untouched: it still produces the same values
        # as a freshly forked twin.
        twin = SeededRng(1).fault_stream()
        assert [network.fault_rng.uniform() for _ in range(4)] == [
            twin.uniform() for _ in range(4)
        ]

    def test_fault_draws_never_advance_the_main_stream(self):
        network = make_network()
        network.start_fault(
            window(FlakyLink, site_a=0, site_b=1, jitter_ms=5.0, drop_probability=0.5)
        )
        for _ in range(50):
            transmit(network, 0, 1)
        twin = SeededRng(1)
        assert [network.rng.uniform() for _ in range(4)] == [
            twin.uniform() for _ in range(4)
        ]

    def test_fault_stream_is_a_distinct_fork(self):
        rng = SeededRng(7)
        fork = rng.fault_stream()
        assert fork is not rng
        assert fork.uniform() != rng.fork(FAULT_RNG_STREAM + 1).uniform()
