"""Tests for the simulated network, the simulation loop and the inline
runtime."""

from __future__ import annotations

import pytest

from repro.core.base import ProcessBase
from repro.core.commands import Command, Partitioner
from repro.core.config import ProtocolConfig
from repro.core.process import TempoProcess
from repro.simulator.inline import InlineNetwork
from repro.simulator.latency import DEFAULT_LOCAL_LATENCY, ec2_latency_matrix
from repro.faults import Crash, FaultPlan, FlakyLink
from repro.simulator.network import Network
from repro.simulator.rng import SeededRng
from repro.simulator.sim import Simulation
from tests.conftest import uniform_latency_matrix

#: Horizon of the loop tests: ticks recur forever, so every run is bounded.
HORIZON = 2_000.0


class EchoProcess(ProcessBase):
    """Minimal process used to test the runtimes: counts deliveries."""

    def __init__(self, process_id, config):
        super().__init__(process_id, config)
        self.seen = []
        self.ticks = 0

    def submit(self, command, now=0.0):
        self.send([1 - self.process_id], command, now)

    def on_message(self, sender, message, now):
        self.seen.append((sender, message, now))

    def tick(self, now):
        self.ticks += 1


def make_network():
    matrix = ec2_latency_matrix(["ireland", "canada"])
    network = Network(matrix, rng=SeededRng(1))
    network.place(0, "ireland")
    network.place(1, "canada")
    return network


def delay(network, sender, destination):
    """Delivery time of one message sent at time zero."""
    return network.transmit(sender, destination, "m", 0.0, lambda *args: None)


class TestNetwork:
    def test_delay_between_sites_is_one_way_latency(self):
        network = make_network()
        assert delay(network, 0, 1) == 36.0

    def test_local_delay(self):
        network = make_network()
        network.place(2, "ireland")
        assert delay(network, 0, 2) == DEFAULT_LOCAL_LATENCY

    def test_jitter_adds_bounded_noise(self):
        network = make_network()
        network.start_fault(FlakyLink(at_ms=1.0, until_ms=2.0, jitter_ms=5.0))
        delays = {delay(network, 0, 1) for _ in range(20)}
        assert all(36.0 <= delay <= 41.0 for delay in delays)
        assert len(delays) > 1

    def test_crashed_destination_drops_messages(self):
        network = make_network()
        network.crash(1)
        delivered = []
        result = network.transmit(0, 1, "m", 0.0, lambda *args: delivered.append(args))
        assert result is None and not delivered
        assert network.stats.messages_dropped == 1

    def test_transmit_records_stats(self):
        from repro.core.identifiers import Dot
        from repro.core.messages import MPayload

        network = make_network()
        command = Command.write(Dot(0, 1), ["k"], payload_size=500)
        message = MPayload(command.dot, command, {0: (0, 1)})
        network.transmit(0, 1, message, 0.0, lambda *args: None)
        assert network.stats.messages_sent == 1
        assert network.stats.bytes_sent >= 500

    def test_bytes_sent_is_the_encoded_frame_length(self):
        from repro.core.identifiers import Dot
        from repro.core.messages import MPayload, MStable
        from repro.wire import encode_frame

        network = make_network()
        command = Command.write(Dot(0, 1), ["k"], payload_size=500)
        payload = MPayload(command.dot, command, {0: (0, 1)})
        stables = [MStable(Dot(0, seq), partition=0) for seq in range(1, 4)]
        network.transmit(0, 1, payload, 0.0, lambda *args: None)
        network.transmit_batch(0, 1, stables, 0.0, lambda *args: None)
        # Inner frames only: the MBatch envelope is deliberately not charged.
        assert network.stats.bytes_sent == sum(
            len(encode_frame(message)) for message in [payload, *stables]
        )

    def test_drop_probability_validation(self):
        # The network applies plan events as given: the plan validates them.
        with pytest.raises(ValueError):
            FlakyLink(at_ms=1.0, until_ms=2.0, drop_probability=1.5).validate(2, 1)

    def test_unplaced_endpoint_raises(self):
        network = make_network()
        with pytest.raises(KeyError):
            network.site_of(99)


class TestSimulationLoop:
    def build(self):
        config = ProtocolConfig(num_processes=3, faults=1)
        partitioner = Partitioner(1)
        processes = [
            TempoProcess(process_id, config, partitioner=partitioner)
            for process_id in range(3)
        ]
        matrix = uniform_latency_matrix(["a", "b", "c"], one_way_ms=10.0)
        network = Network(matrix)
        for process_id, site in zip(range(3), ["a", "b", "c"]):
            network.place(process_id, site)
        simulation = Simulation(processes, network)
        return processes, simulation

    def test_command_submission_executes_within_simulated_time(self):
        processes, simulation = self.build()
        command = processes[0].new_command(["x"])
        simulation.submit_at(1.0, 0, command)
        simulation.run(until=HORIZON)
        assert command.dot in processes[0].executed_dots()
        assert simulation.now <= HORIZON

    def test_latency_is_respected(self):
        processes, simulation = self.build()
        command = processes[0].new_command(["x"])
        simulation.submit_at(0.0, 0, command)
        simulation.run(until=HORIZON)
        # Fast path needs one round trip of 20ms; execution cannot happen
        # before that.
        executed_at = simulation.stats.end_time
        assert executed_at >= 20.0

    def test_crash_event_marks_process_and_network(self):
        processes, simulation = self.build()
        simulation.schedule_faults(
            FaultPlan([Crash(at_ms=1.0, site_rank=2)]), lambda site_rank, shard: site_rank
        )
        simulation.run(until=10.0)
        assert not processes[2].alive
        assert simulation.network.is_crashed(2)
        assert not processes[0].believes_alive(2)

    def test_custom_callbacks_run(self):
        processes, simulation = self.build()
        fired = []
        simulation.schedule(3.0, lambda now: fired.append(now))
        simulation.run(until=10.0)
        assert fired and fired[0] == pytest.approx(3.0)

    def test_external_endpoint_receives_replies(self):
        processes, simulation = self.build()
        received = []
        simulation.network.place(-1, "a")
        simulation.register_external(-1, lambda sender, message, now: received.append(message))
        command = Command.write(processes[0].dot_generator.next_id(), ["x"], client_id=0)
        simulation.submit_at(0.0, 0, command)
        simulation.run(until=HORIZON)
        assert received, "client reply should have been routed to the external endpoint"

    def test_run_until_halts_early_and_resumes(self):
        processes, simulation = self.build()
        command = processes[0].new_command(["x"])
        simulation.submit_at(0.0, 0, command)
        simulation.run(until=15.0)
        # One 20 ms round trip is still in flight at the horizon.
        assert simulation.now <= 15.0
        assert command.dot not in processes[0].executed_dots()
        simulation.run(until=HORIZON)
        assert command.dot in processes[0].executed_dots()

    def test_event_budget_halts_at_the_exact_count(self):
        processes, simulation = self.build()
        simulation.submit_at(0.0, 0, processes[0].new_command(["x"]))
        assert simulation.run(until=HORIZON, max_events=5).events_processed == 5
        # The rest of the lane the budget cut through is still queued.
        simulation.run(until=HORIZON, max_events=1_000)
        assert processes[0].executed

    def test_tick_events_recur(self):
        processes, simulation = self.build()
        simulation.run(until=50.0)
        assert simulation.stats.ticks >= 3 * 9


class TestInlineNetwork:
    def test_undeliverable_messages_are_collected(self):
        config = ProtocolConfig(num_processes=3, faults=1)
        processes = [EchoProcess(process_id, config) for process_id in range(3)]
        network = InlineNetwork(processes)
        processes[0].send([5], "nowhere", 0.0)
        network.step(0.0)
        assert network.undeliverable and network.undeliverable[0].destination == 5

    def test_run_raises_if_never_quiescent(self):
        config = ProtocolConfig(num_processes=3, faults=1)

        class Chatty(EchoProcess):
            def on_message(self, sender, message, now):
                super().on_message(sender, message, now)
                self.send([1 - self.process_id], message, now)

        processes = [Chatty(process_id, config) for process_id in range(3)]
        network = InlineNetwork(processes)
        processes[0].send([1], "ping", 0.0)
        with pytest.raises(RuntimeError):
            network.run(max_rounds=10)

    def test_reorder_hook_is_applied(self):
        config = ProtocolConfig(num_processes=3, faults=1)
        processes = [EchoProcess(process_id, config) for process_id in range(3)]
        network = InlineNetwork(processes)
        network.set_reorder(lambda envelopes: list(reversed(envelopes)))
        processes[0].send([1], "first", 0.0)
        processes[0].send([1], "second", 0.0)
        network.step(0.0)
        assert [message for _, message, _ in processes[1].seen] == ["second", "first"]


class TestRng:
    def test_seeded_rng_is_deterministic(self):
        assert [SeededRng(5).uniform() for _ in range(3)] == [
            SeededRng(5).uniform() for _ in range(3)
        ]

    def test_fork_produces_independent_streams(self):
        rng = SeededRng(1)
        assert rng.fork(1).uniform() != rng.fork(2).uniform()

    def test_zipf_sampler_prefers_popular_items(self):
        from repro.simulator.rng import ZipfSampler

        sampler = ZipfSampler(100, theta=0.99, rng=SeededRng(3))
        draws = [sampler.sample() for _ in range(2000)]
        head = sum(1 for draw in draws if draw < 10)
        tail = sum(1 for draw in draws if draw >= 90)
        assert head > tail

    def test_zipf_theta_zero_is_uniformish(self):
        from repro.simulator.rng import ZipfSampler

        sampler = ZipfSampler(10, theta=0.0, rng=SeededRng(3))
        draws = [sampler.sample() for _ in range(5000)]
        counts = [draws.count(index) for index in range(10)]
        assert max(counts) < 2.0 * min(counts)

    def test_zipf_sample_distinct(self):
        from repro.simulator.rng import ZipfSampler

        sampler = ZipfSampler(50, theta=0.5, rng=SeededRng(3))
        items = sampler.sample_distinct(5)
        assert len(set(items)) == 5

    @pytest.mark.parametrize("theta", [0.5, 0.7, 0.95])
    def test_zipf_sample_equals_the_hand_written_binary_search(self, theta):
        from repro.simulator.rng import ZipfSampler

        def reference_sample(sampler):
            draw = sampler.rng.uniform()
            lo, hi = 0, sampler.num_items - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if sampler._cumulative[mid] < draw:
                    lo = mid + 1
                else:
                    hi = mid
            return lo

        for seed in (1, 7, 42):
            sampler = ZipfSampler(20_000, theta, rng=SeededRng(seed))
            reference = ZipfSampler(20_000, theta, rng=SeededRng(seed))
            assert [sampler.sample() for _ in range(10_000)] == [
                reference_sample(reference) for _ in range(10_000)
            ]

    def test_zipf_samplers_share_one_table_per_distribution(self):
        from repro.simulator.rng import ZipfSampler

        first = ZipfSampler(20_000, 0.7, rng=SeededRng(1))
        second = ZipfSampler(20_000, 0.7, rng=SeededRng(2))
        assert first._cumulative is second._cumulative
        assert first._cumulative[-1] == 1.0
        assert ZipfSampler(20_000, 0.5)._cumulative is not first._cumulative
        assert ZipfSampler(100, 0.7)._cumulative is not first._cumulative
