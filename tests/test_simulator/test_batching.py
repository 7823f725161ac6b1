"""Tests of the same-destination message batching layer.

Covers the MBatch envelope semantics: send order is preserved inside a
batch, batches never span more than one event-handling step, stats count
inner messages, and a degraded link (jitter, drops) falls back to
per-message behaviour.  The message-traffic regression test for the commit-request
debounce lives in ``tests/test_experiments/test_message_traffic.py``.
"""

from __future__ import annotations

from repro.core.base import MBatch, ProcessBase
from repro.core.config import ProtocolConfig
from repro.faults import FlakyLink
from repro.simulator.events import EventKind
from repro.simulator.latency import uniform_latency_matrix
from repro.simulator.network import Network
from repro.simulator.rng import SeededRng
from repro.simulator.sim import Simulation


class RecordingProcess(ProcessBase):
    """Counts deliveries and can emit scripted envelopes."""

    def __init__(self, process_id, config):
        super().__init__(process_id, config)
        self.seen = []
        self.to_send = []

    def submit(self, command, now=0.0):
        # A submission is the scripted "send several messages" step.
        for destinations, message in self.to_send:
            self.send(destinations, message, now)
        self.to_send = []

    def on_message(self, sender, message, now):
        self.seen.append((sender, message, now))


def build(num_processes=3, **degradation):
    """``degradation`` (``FlakyLink`` fields) degrades the a-b link, the
    one between processes 0 and 1."""
    config = ProtocolConfig(num_processes=num_processes, faults=1)
    processes = [
        RecordingProcess(process_id, config) for process_id in range(num_processes)
    ]
    sites = [chr(ord("a") + index) for index in range(num_processes)]
    matrix = uniform_latency_matrix(sites, one_way_ms=10.0)
    network = Network(matrix, rng=SeededRng(7))
    for process_id, site in zip(range(num_processes), sites):
        network.place(process_id, site)
    if degradation:
        network.start_fault(
            FlakyLink(at_ms=1.0, until_ms=2.0, site_a=0, site_b=1, **degradation)
        )
    simulation = Simulation(processes, network)
    return processes, simulation


class TestBatchDelivery:
    def test_same_destination_messages_coalesce_into_one_event(self):
        processes, simulation = build()
        processes[0].to_send = [([1], "m1"), ([1], "m2"), ([1], "m3")]
        simulation.submit_at(0.0, 0, None)
        simulation.run(until=50.0)
        # One MESSAGE event carried all three messages...
        assert simulation.network.stats.batches_sent == 1
        assert simulation.network.stats.messages_sent == 3
        # ...and dispatch preserved the send order at one instant.
        assert [message for _, message, _ in processes[1].seen] == ["m1", "m2", "m3"]
        assert len({now for _, _, now in processes[1].seen}) == 1

    def test_batches_group_per_destination(self):
        processes, simulation = build()
        processes[0].to_send = [([1], "a1"), ([2], "b1"), ([1], "a2"), ([2], "b2")]
        simulation.submit_at(0.0, 0, None)
        simulation.run(until=50.0)
        assert [message for _, message, _ in processes[1].seen] == ["a1", "a2"]
        assert [message for _, message, _ in processes[2].seen] == ["b1", "b2"]
        assert simulation.network.stats.batches_sent == 2

    def test_batches_never_cross_an_event_boundary(self):
        processes, simulation = build()
        # Two separate submission events, each sending to the same
        # destination: the messages of different steps must arrive as two
        # deliveries (same in-flight latency, distinct send steps).
        processes[0].to_send = [([1], "step1-a"), ([1], "step1-b")]
        simulation.submit_at(0.0, 0, None)
        simulation.run(until=5.0)
        processes[0].to_send = [([1], "step2-a"), ([1], "step2-b")]
        simulation.submit_at(6.0, 0, None)
        simulation.run(until=50.0)
        times = [now for _, _, now in processes[1].seen]
        assert [message for _, message, _ in processes[1].seen] == [
            "step1-a", "step1-b", "step2-a", "step2-b",
        ]
        assert times[0] == times[1] < times[2] == times[3]
        assert simulation.network.stats.batches_sent == 2

    def test_single_message_is_not_wrapped(self):
        processes, simulation = build()
        processes[0].to_send = [([1], "solo")]
        simulation.submit_at(0.0, 0, None)
        simulation.run(until=50.0)
        assert simulation.network.stats.batches_sent == 0
        assert processes[1].seen[0][1] == "solo"

    def test_deliver_counts_inner_messages(self):
        config = ProtocolConfig(num_processes=3, faults=1)
        process = RecordingProcess(1, config)
        process.deliver(0, MBatch(("x", "y")), 1.0)
        assert process.message_counts == {"str": 2}
        assert [message for _, message, _ in process.seen] == ["x", "y"]

    def test_crashed_process_drops_whole_batch(self):
        config = ProtocolConfig(num_processes=3, faults=1)
        process = RecordingProcess(1, config)
        process.crash()
        process.deliver(0, MBatch(("x", "y")), 1.0)
        assert process.seen == []
        assert process.message_counts == {}


class TestBatchNetworkSemantics:
    def test_jitter_falls_back_to_per_message_delivery(self):
        deliveries = []
        processes, simulation = build(jitter_ms=5.0)
        network = simulation.network
        network.transmit_batch(
            0, 1, ["m1", "m2", "m3"], 0.0,
            lambda at, sender, destination, message: deliveries.append((at, message)),
        )
        # Three separate deliveries, no MBatch wrapper, distinct jitter draws.
        assert len(deliveries) == 3
        assert all(not isinstance(message, MBatch) for _, message in deliveries)
        assert network.stats.batches_sent == 0
        assert len({at for at, _ in deliveries}) > 1

    def test_drops_are_applied_per_message(self):
        deliveries = []
        processes, simulation = build(drop_probability=0.5)
        network = simulation.network
        network.transmit_batch(
            0, 1, [f"m{index}" for index in range(32)], 0.0,
            lambda at, sender, destination, message: deliveries.append(message),
        )
        stats = network.stats
        assert stats.messages_sent == 32
        assert 0 < stats.messages_dropped < 32
        survivors = (
            list(deliveries[0].messages)
            if len(deliveries) == 1 and isinstance(deliveries[0], MBatch)
            else deliveries
        )
        assert stats.messages_delivered == len(survivors)
        # Order of survivors is the send order.
        assert survivors == sorted(survivors, key=lambda m: int(m[1:]))

    def test_crashed_destination_counts_every_message_dropped(self):
        processes, simulation = build()
        network = simulation.network
        network.crash(1)
        result = network.transmit_batch(
            0, 1, ["m1", "m2"], 0.0, lambda *args: (_ for _ in ()).throw(AssertionError)
        )
        assert result is None
        assert network.stats.messages_dropped == 2

    def test_external_endpoints_receive_unpacked_messages(self):
        processes, simulation = build()
        received = []
        simulation.network.place(-1, "a")
        simulation.register_external(
            -1, lambda sender, message, now: received.append(message)
        )
        processes[0].to_send = [([-1], "r1"), ([-1], "r2")]
        simulation.submit_at(0.0, 0, None)
        simulation.run(until=50.0)
        assert received == ["r1", "r2"]


class TestBatchStatsFastPath:
    """``transmit_batch`` counts runs of same-type inner messages at once;
    the resulting ``NetworkStats`` must be indistinguishable from routing
    every message through ``transmit`` individually."""

    def _mixed_messages(self):
        from repro.core.identifiers import Dot
        from repro.core.messages import MCommitRequest, MConsensusAck, MStable
        from repro.protocols.dep_messages import MPreAcceptAck

        dot = Dot(0, 1)
        # Two runs of fixed-size kinds, one variable-size kind, singletons.
        return [
            MConsensusAck(dot, 1),
            MConsensusAck(dot, 2),
            MConsensusAck(dot, 3),
            MPreAcceptAck(dot, frozenset({Dot(1, 1), Dot(2, 1)}), 4),
            MStable(dot, 0),
            MCommitRequest(dot),
            MCommitRequest(dot),
        ]

    def test_batched_stats_match_per_message_transmit(self):
        messages = self._mixed_messages()
        deliveries = []

        def deliver(at, sender, destination, message):
            deliveries.append((at, message))

        _, batched_sim = build()
        batched = batched_sim.network
        batched.transmit_batch(0, 1, messages, 0.0, deliver)

        _, reference_sim = build()
        reference = reference_sim.network
        for message in messages:
            reference.transmit(0, 1, message, 0.0, deliver)

        assert batched.stats.messages_sent == reference.stats.messages_sent
        assert batched.stats.messages_delivered == reference.stats.messages_delivered
        assert batched.stats.bytes_sent == reference.stats.bytes_sent
        assert batched.stats.per_kind == reference.stats.per_kind
        # The only permitted difference: one MBatch delivery event.
        assert batched.stats.batches_sent == 1
        assert reference.stats.batches_sent == 0

    def test_fast_path_preserves_message_order_in_the_batch(self):
        from repro.core.base import MBatch

        messages = self._mixed_messages()
        deliveries = []

        def deliver(at, sender, destination, message):
            deliveries.append(message)

        _, simulation = build()
        simulation.network.transmit_batch(0, 1, messages, 0.0, deliver)
        assert len(deliveries) == 1
        assert isinstance(deliveries[0], MBatch)
        assert list(deliveries[0].messages) == messages

    def test_jitter_still_uses_the_per_message_path(self):
        messages = self._mixed_messages()
        deliveries = []

        def deliver(at, sender, destination, message):
            deliveries.append(message)

        _, simulation = build(jitter_ms=1.0)
        network = simulation.network
        network.transmit_batch(0, 1, messages, 0.0, deliver)
        # Per-message deliveries, no MBatch envelope.
        assert len(deliveries) == len(messages)
        assert network.stats.batches_sent == 0
        assert network.stats.messages_sent == len(messages)
