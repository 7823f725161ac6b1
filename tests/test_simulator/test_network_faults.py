"""Unit tests for the network's per-link fault state.

Partitions, flaky-link degradation windows and message-class-targeted loss
are the :class:`repro.faults` primitives at the transport layer; these
tests drive :meth:`Network.transmit` directly and assert on what ``deliver``
sees.  The RNG-isolation tests pin the contract the cluster-level
determinism test relies on: healthy traffic never draws from the dedicated
fault stream, and fault draws never advance the main stream.
"""

from __future__ import annotations

import pytest

from repro.core.identifiers import intern_dot
from repro.core.messages import MCommitRequest, MStable
from repro.simulator.latency import ec2_latency_matrix
from repro.simulator.network import LinkDegradation, Network, TargetedLoss
from repro.simulator.rng import FAULT_RNG_STREAM, SeededRng

SITES = ["ireland", "canada", "singapore"]


def make_network() -> Network:
    network = Network(ec2_latency_matrix(SITES), rng=SeededRng(1))
    for endpoint, site in enumerate(SITES):
        network.place(endpoint, site)
    return network


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
        network.set_partition([("ireland",), ("canada", "singapore")])
        assert transmit(network, 0, 1) is None
        assert transmit(network, 1, 0) is None

    def test_same_group_messages_deliver(self):
        network = make_network()
        network.set_partition([("ireland",), ("canada", "singapore")])
        assert transmit(network, 1, 2) is not None

    def test_unlisted_sites_reach_everyone(self):
        network = make_network()
        network.set_partition([("ireland",), ("canada",)])
        assert transmit(network, 2, 0) is not None
        assert transmit(network, 0, 2) is not None

    def test_heal_restores_delivery(self):
        network = make_network()
        network.set_partition([("ireland",), ("canada", "singapore")])
        network.clear_partition()
        assert transmit(network, 0, 1) is not None
        assert not network._faults_active

    def test_unknown_site_and_duplicate_site_are_rejected(self):
        network = make_network()
        with pytest.raises(KeyError):
            network.set_partition([("ireland",), ("atlantis",)])
        with pytest.raises(ValueError):
            network.set_partition([("ireland",), ("ireland", "canada")])


class TestLinkDegradation:
    def test_extra_delay_is_added_both_ways(self):
        network = make_network()
        base = transmit(network, 0, 1)
        network.degrade_link("ireland", "canada", LinkDegradation(extra_delay_ms=30.0))
        assert transmit(network, 0, 1) == pytest.approx(base + 30.0)
        assert transmit(network, 1, 0) == pytest.approx(base + 30.0)

    def test_other_links_are_unaffected(self):
        network = make_network()
        base = transmit(network, 0, 2)
        network.degrade_link("ireland", "canada", LinkDegradation(extra_delay_ms=30.0))
        assert transmit(network, 0, 2) == pytest.approx(base)

    def test_jitter_is_bounded_and_varies(self):
        network = make_network()
        base = transmit(network, 0, 1)
        network.degrade_link(
            "ireland", "canada", LinkDegradation(extra_delay_ms=10.0, jitter_ms=5.0)
        )
        delays = {transmit(network, 0, 1) for _ in range(20)}
        assert all(base + 10.0 <= delay <= base + 15.0 for delay in delays)
        assert len(delays) > 1

    def test_certain_drop(self):
        network = make_network()
        network.degrade_link(
            "ireland", "canada", LinkDegradation(drop_probability=1.0)
        )
        assert transmit(network, 0, 1) is None
        assert network.stats.messages_dropped == 1

    def test_restore_link_ends_the_window(self):
        network = make_network()
        base = transmit(network, 0, 1)
        network.degrade_link("ireland", "canada", LinkDegradation(extra_delay_ms=30.0))
        network.restore_link("canada", "ireland")  # order-insensitive key
        assert transmit(network, 0, 1) == pytest.approx(base)
        assert not network._faults_active

    def test_validation(self):
        network = make_network()
        with pytest.raises(ValueError):
            LinkDegradation(drop_probability=1.5)
        with pytest.raises(ValueError):
            network.degrade_link("ireland", "ireland", LinkDegradation(1.0))


class TestTargetedLoss:
    def test_only_the_targeted_kind_is_dropped(self):
        network = make_network()
        network.set_targeted_loss("MStable", TargetedLoss(probability=1.0))
        assert transmit(network, 0, 1, MStable(intern_dot(0, 1))) is None
        assert transmit(network, 0, 1, MCommitRequest(intern_dot(0, 1))) is not None

    def test_cross_group_only_spares_intra_group_copies(self):
        network = make_network()
        network.set_group(0, 0)
        network.set_group(1, 0)
        network.set_group(2, 1)
        network.set_targeted_loss(
            "MStable", TargetedLoss(probability=1.0, cross_group_only=True)
        )
        stable = MStable(intern_dot(0, 1))
        assert transmit(network, 0, 1, stable) is not None  # same group
        assert transmit(network, 0, 2, stable) is None  # crosses groups

    def test_clear_restores_the_kind(self):
        network = make_network()
        network.set_targeted_loss("MStable", TargetedLoss(probability=1.0))
        network.clear_targeted_loss("MStable")
        assert transmit(network, 0, 1, MStable(intern_dot(0, 1))) is not None
        assert not network._faults_active

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            TargetedLoss(probability=0.0)


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
        network.degrade_link(
            "ireland", "canada", LinkDegradation(jitter_ms=5.0, drop_probability=0.5)
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
