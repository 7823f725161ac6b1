"""Integration tests for the asyncio runtime.

All scenarios run on the virtual-clock event loop
(:mod:`repro.runtime.virtual_clock`): ticks, link delays and ``asyncio.sleep``
advance virtual time instantly, so the tests are deterministic and take
milliseconds of wall time regardless of the simulated durations.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import wireschema
from repro.core.identifiers import intern_dot
from repro.core.messages import MConsensus
from repro.runtime import AsyncCluster, AsyncClusterOptions, run_with_virtual_clock
from repro.runtime.channel import Channel, Router


def run(coro):
    return run_with_virtual_clock(coro)


class TestRouter:
    def test_messages_reach_registered_channels(self):
        async def scenario():
            router = Router()
            channel = router.register(1)
            await router.send(0, 1, "hello")
            sender, message = await channel.get()
            return sender, message, router.delivered

        sender, message, delivered = run(scenario())
        assert (sender, message) == (0, "hello")
        assert delivered == 1

    def test_unregistered_destination_drops(self):
        async def scenario():
            router = Router()
            await router.send(0, 42, "lost")
            return router.dropped

        assert run(scenario()) == 1

    def test_crashed_destination_drops(self):
        async def scenario():
            router = Router()
            router.register(1)
            router.crash(1)
            await router.send(0, 1, "lost")
            return router.dropped

        assert run(scenario()) == 1

    def test_channel_empty(self):
        async def scenario():
            channel = Channel.create(3)
            empty_before = channel.empty()
            channel.put(0, "x")
            return empty_before, channel.empty()

        before, after = run(scenario())
        assert before and not after


class TestAsyncCluster:
    @pytest.mark.parametrize("protocol", ["tempo", "atlas", "fpaxos"])
    def test_submit_and_await_reply(self, protocol):
        async def scenario():
            options = AsyncClusterOptions(protocol=protocol, num_processes=3, faults=1)
            async with AsyncCluster(options) as cluster:
                reply = await cluster.submit(["alpha"], process_id=0)
                await asyncio.sleep(0.1)
                return reply, cluster.value_of("alpha"), cluster.stores_agree()

        reply, value, agree = run(scenario())
        assert reply is not None
        assert value is not None
        assert agree

    def test_concurrent_conflicting_submissions_converge(self):
        async def scenario():
            options = AsyncClusterOptions(protocol="tempo", num_processes=3, faults=1)
            async with AsyncCluster(options) as cluster:
                replies = await cluster.submit_many([["hot"]] * 6 + [["cold"]] * 3)
                await asyncio.sleep(0.2)
                counts = cluster.executed_counts()
                return replies, counts, cluster.stores_agree()

        replies, counts, agree = run(scenario())
        assert len(replies) == 9
        assert agree
        assert all(count == 9 for count in counts.values())


    def test_executions_match_across_replicas_with_latency(self):
        async def scenario():
            options = AsyncClusterOptions(
                protocol="tempo", num_processes=3, faults=1, latency_seconds=0.002
            )
            async with AsyncCluster(options) as cluster:
                await cluster.submit_many([["k1"], ["k2"], ["k1"]])
                await asyncio.sleep(0.3)
                orders = {
                    tuple(str(dot) for dot in process.executed)
                    for process in cluster.processes
                }
                return orders

        orders = run(scenario())
        assert len(orders) == 1

    def test_larger_scenario_fits_in_the_virtual_time_budget(self):
        """A workload that would take seconds of wall time on the real
        clock (25 commands x 2ms injected latency x several hops) completes
        instantly under the virtual clock."""

        async def scenario():
            options = AsyncClusterOptions(
                protocol="tempo", num_processes=5, faults=2, latency_seconds=0.002
            )
            async with AsyncCluster(options) as cluster:
                await cluster.submit_many([[f"k{index % 7}"] for index in range(25)])
                await asyncio.sleep(0.5)
                counts = cluster.executed_counts()
                return counts, cluster.stores_agree()

        counts, agree = run(scenario())
        assert agree
        assert all(count == 25 for count in counts.values())

    def test_cluster_can_be_restarted(self):
        async def scenario():
            cluster = AsyncCluster(AsyncClusterOptions(num_processes=3))
            await cluster.start()
            await cluster.submit(["x"])
            await cluster.stop()
            # Starting again after a stop must not raise.
            await cluster.start()
            await cluster.stop()
            return True

        assert run(scenario())

    def test_unencoded_mode_is_refused(self):
        with pytest.raises(ValueError, match="wire_bytes"):
            AsyncClusterOptions(wire_bytes=False)

    def test_replicas_share_one_copy_of_each_key_and_value(self, monkeypatch):
        # The replicas decode every remote command from its frame; the
        # codec's string table hands each of them the object the coordinator
        # encoded.  A fresh table, so no clear falls inside the run.
        monkeypatch.setattr(wireschema, "_CANONICAL_STRINGS", {})

        async def scenario():
            options = AsyncClusterOptions(
                protocol="tempo", num_processes=3, faults=1, latency_seconds=0.002
            )
            async with AsyncCluster(options) as cluster:
                await cluster.submit_many(
                    [[f"k{index}"] for index in range(12)] + [["hot"]] * 6
                )
                await asyncio.sleep(0.3)
                return list(cluster.stores.values()), cluster.stores_agree()

        stores, agree = run(scenario())
        assert agree
        keys = [store.keys() for store in stores]
        assert len(keys[0]) == 13
        for same_key in zip(*keys):
            assert all(key is same_key[0] for key in same_key)
            values = [store.get(same_key[0]) for store in stores]
            assert all(value is values[0] for value in values)


class TestTaskFailure:
    def test_stop_reraises_what_a_process_task_died_of(self):
        # A bump below zero raises inside Tempo's MConsensus handler (a
        # decodable hostile frame), which ends process 1's inbox task.
        async def scenario():
            cluster = AsyncCluster(AsyncClusterOptions(num_processes=3))
            await cluster.start()
            await cluster.router.send(0, 1, MConsensus(intern_dot(0, 99), -5, 7))
            await asyncio.sleep(0.01)
            with pytest.raises(asyncio.TimeoutError):
                await cluster.submit(["alpha"], process_id=1, timeout=1.0)
            await cluster.stop()

        with pytest.raises(ValueError, match="bump timestamp must be non-negative"):
            run(scenario())


class TestVirtualClock:
    def test_long_sleeps_cost_no_wall_time(self):
        import time

        async def scenario():
            loop = asyncio.get_running_loop()
            before = loop.time()
            await asyncio.sleep(60.0)
            return loop.time() - before

        start = time.monotonic()
        elapsed_virtual = run(scenario())
        assert elapsed_virtual >= 60.0
        assert time.monotonic() - start < 5.0

    def test_wait_for_timeouts_fire_in_virtual_time(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            before = loop.time()
            try:
                await asyncio.wait_for(asyncio.get_event_loop().create_future(), timeout=2.0)
            except asyncio.TimeoutError:
                return loop.time() - before
            return None

        elapsed = run(scenario())
        assert elapsed is not None and elapsed >= 2.0

    def test_cluster_restarts_across_distinct_loops(self):
        """Each run_with_virtual_clock call creates a fresh loop; the
        cluster clock must rebind on start so time keeps advancing."""
        cluster = AsyncCluster(AsyncClusterOptions(num_processes=3))

        async def round_trip():
            async with cluster:
                reply = await cluster.submit(["x"])
                return reply is not None, cluster._now_ms()

        first_ok, first_now = run(round_trip())
        second_ok, second_now = run(round_trip())
        assert first_ok and second_ok
        assert second_now >= first_now

    def test_ready_work_drains_before_time_advances(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            order = []

            async def worker():
                order.append(("worker", loop.time()))

            task = asyncio.ensure_future(worker())
            await asyncio.sleep(1.0)
            order.append(("sleeper", loop.time()))
            await task
            return order

        order = run(scenario())
        # The ready worker ran before the clock jumped to the sleep deadline.
        assert order[0][0] == "worker"
        assert order[0][1] < order[1][1]
