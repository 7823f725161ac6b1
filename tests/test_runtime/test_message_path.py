"""The runtime's message path: pipelined links and deadline ticks.

``docs/runtime.md`` states the two rules these tests pin down: a sender
never waits for a link's delay, and a process ticks on an absolute deadline
whatever its inbox holds.  Everything runs on the virtual-clock loop, so
the times asserted are exact.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List

import pytest

from repro.core.messages import MPromises
from repro.runtime import AsyncCluster, AsyncClusterOptions, run_with_virtual_clock
from repro.runtime.channel import Router

L = 0.002
TICK = 0.005


def run(coro):
    return run_with_virtual_clock(coro)


async def arrivals(router: Router, endpoint: int, count: int) -> List[tuple]:
    """``(loop time, sender, message)`` of the next ``count`` inbox entries."""
    loop = asyncio.get_running_loop()
    channel = router.channel(endpoint)
    seen = []
    for _ in range(count):
        sender, message = await channel.get()
        seen.append((loop.time(), sender, message))
    return seen


class TestPipelinedLinks:
    def test_a_broadcast_costs_the_sender_no_time_and_lands_together(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            router = Router(latency=lambda sender, destination: L)
            for endpoint in (1, 2, 3):
                router.register(endpoint)
            for endpoint in (1, 2, 3):
                await router.send(0, endpoint, "hello")
            returned_at = loop.time()
            delivered_at_return = router.delivered
            landed = [(await arrivals(router, endpoint, 1))[0][0] for endpoint in (1, 2, 3)]
            return returned_at, delivered_at_return, landed, router.delivered

        returned_at, delivered_at_return, landed, delivered = run(scenario())
        assert returned_at == 0.0
        assert delivered_at_return == 0
        assert landed == [L, L, L]
        assert delivered == 3

    def test_one_link_delivers_in_send_order(self):
        async def scenario():
            router = Router(latency=lambda sender, destination: L)
            router.register(1)
            for index in range(100):
                await router.send(0, 1, index)
            return await arrivals(router, 1, 100)

        seen = run(scenario())
        assert [message for _, _, message in seen] == list(range(100))
        assert {at for at, _, _ in seen} == {L}

    def test_send_order_survives_a_latency_that_shrinks(self):
        """Per-link FIFO does not rest on ``latency`` being constant."""
        delays = iter([0.005, 0.001, 0.0])

        async def scenario():
            router = Router(latency=lambda sender, destination: next(delays))
            router.register(1)
            for index in range(3):
                await router.send(0, 1, index)
            return await arrivals(router, 1, 3)

        seen = run(scenario())
        assert [message for _, _, message in seen] == [0, 1, 2]

    def test_a_fast_link_is_not_blocked_behind_a_slow_one(self):
        async def scenario():
            router = Router(
                latency=lambda sender, destination: 0.005 if sender == 0 else 0.001
            )
            router.register(9)
            await router.send(0, 9, "slow")
            await router.send(1, 9, "fast")
            return await arrivals(router, 9, 2)

        assert run(scenario()) == [(0.001, 1, "fast"), (0.005, 0, "slow")]

    def test_a_frame_in_flight_to_an_endpoint_that_crashes_is_dropped(self):
        async def scenario():
            router = Router(latency=lambda sender, destination: L)
            channel = router.register(1)
            await router.send(0, 1, "in flight")
            await asyncio.sleep(L / 2)
            router.crash(1)
            await asyncio.sleep(L)
            return router.delivered, router.dropped, channel.empty()

        assert run(scenario()) == (0, 1, True)

    def test_reset_discards_in_flight_frames_and_their_timers(self):
        async def scenario():
            router = Router(latency=lambda sender, destination: L)
            channel = router.register(1)
            await router.send(0, 1, "stale")
            router.reset()
            await asyncio.sleep(2 * L)
            return router.delivered, router.channel(1) is channel, channel.empty()

        assert run(scenario()) == (0, True, True)

    def test_a_router_outlives_the_loop_it_last_used(self):
        """Due times of a closed loop's clock must not delay the next loop's
        frames (each ``run_with_virtual_clock`` starts again at 0)."""
        router = Router(latency=lambda sender, destination: L)
        router.register(1)

        async def first():
            await asyncio.sleep(100.0)
            await router.send(0, 1, "left in flight")

        async def second():
            router.reset()
            await router.send(0, 1, "fresh")
            return await arrivals(router, 1, 1)

        run(first())
        assert run(second()) == [(L, 0, "fresh")]


def count_ticks(cluster: AsyncCluster) -> Dict[int, int]:
    """Count ``tick`` calls per process from now on."""
    ticks = {process.process_id: 0 for process in cluster.processes}
    for process in cluster.processes:

        def counted(now, process=process, tick=process.tick):
            ticks[process.process_id] += 1
            tick(now)

        process.tick = counted
    return ticks


async def closed_loop(cluster: AsyncCluster, clients: int, commands: int, replica_of):
    """Run ``clients`` closed-loop clients; returns every submit -> reply
    latency (seconds on the loop's clock) and the loop seconds it all took."""
    loop = asyncio.get_running_loop()
    latencies: List[float] = []

    async def client(client_id: int) -> None:
        for index in range(commands):
            key = "hot" if (client_id + index) % 20 == 0 else f"k{client_id}-{index}"
            started = loop.time()
            await cluster.submit(
                [key], process_id=replica_of(client_id, index), timeout=5.0
            )
            latencies.append(loop.time() - started)

    started = loop.time()
    await asyncio.gather(*(client(client_id) for client_id in range(clients)))
    return latencies, loop.time() - started


class TestDeadlineTicks:
    OPTIONS = dict(protocol="tempo", num_processes=3, faults=1, latency_seconds=L)

    def test_saturating_clients_do_not_starve_the_ticks(self):
        async def scenario():
            async with AsyncCluster(AsyncClusterOptions(**self.OPTIONS)) as cluster:
                ticks = count_ticks(cluster)
                _, elapsed = await closed_loop(
                    cluster, 16, 100, lambda client_id, index: (client_id + index) % 3
                )
                return dict(ticks), elapsed

        ticks, elapsed = run(scenario())
        for count in ticks.values():
            assert abs(count - elapsed / TICK) <= 1, (ticks, elapsed)

    def test_clients_pinned_to_one_replica_never_stall(self):
        """perfbench finding 3: with client c pinned to replica c mod 3 the
        seed repo left single commands waiting for seconds (max 3 976 ms,
        ticks 98/265/98 in 11.3 virtual s)."""

        async def scenario():
            async with AsyncCluster(AsyncClusterOptions(**self.OPTIONS)) as cluster:
                ticks = count_ticks(cluster)
                latencies, elapsed = await closed_loop(
                    cluster, 16, 200, lambda client_id, index: client_id % 3
                )
                await asyncio.sleep(0.5)
                return latencies, elapsed, dict(ticks), cluster.stores_agree()

        # A stalled command would raise TimeoutError out of the scenario.
        latencies, elapsed, ticks, agree = run(scenario())
        assert len(latencies) == 16 * 200
        assert max(latencies) <= 0.025
        assert len(set(ticks.values())) == 1, ticks
        assert agree

    def test_mean_latency_is_two_round_trips_and_a_tick(self):
        """The ``rt_delay2ms`` shape: 16 closed-loop clients, replicas drawn
        per command, one command in twenty on the hot key."""

        async def scenario():
            async with AsyncCluster(AsyncClusterOptions(**self.OPTIONS)) as cluster:
                latencies, _ = await closed_loop(
                    cluster, 16, 100, lambda client_id, index: (7 * client_id + index) % 3
                )
                return latencies

        latencies = run(scenario())
        assert sum(latencies) / len(latencies) <= 4 * L + TICK

    def test_promises_go_out_every_tick_and_bound_the_wait(self):
        """The loop's float clock puts ticks a hair under 5 ms apart; a
        broadcast gated on ``now - last >= 5.0`` went out every other tick
        (10 ms gaps, max latency 15 ms here).  Ungated, a command takes the
        fast path's three link delays (propose, ack, reply) plus at most one
        tick of waiting for promises."""

        async def scenario():
            loop = asyncio.get_running_loop()
            async with AsyncCluster(AsyncClusterOptions(**self.OPTIONS)) as cluster:
                sent: Dict[int, List[float]] = {p.process_id: [] for p in cluster.processes}
                send = cluster.router.send

                async def recording(sender, destination, message):
                    # A broadcast is one send per peer, all at one instant.
                    times = sent[sender]
                    if isinstance(message, MPromises) and loop.time() not in times[-1:]:
                        times.append(loop.time())
                    await send(sender, destination, message)

                cluster.router.send = recording
                latencies, _ = await closed_loop(
                    cluster, 16, 200, lambda client_id, index: client_id % 3
                )
                return latencies, sent

        latencies, sent = run(scenario())
        for times in sent.values():
            gaps = [later - earlier for earlier, later in zip(times, times[1:])]
            assert len(gaps) > 100
            assert all(gap == pytest.approx(TICK) for gap in gaps), max(gaps)
        assert max(latencies) <= 3 * L + TICK + 1e-9


class TestSubmitLeavesNothingBehind:
    def test_a_timed_out_submit_forgets_its_reply_future(self):
        async def scenario():
            # A majority never answers, so the command cannot commit.
            async with AsyncCluster(AsyncClusterOptions(num_processes=3)) as cluster:
                cluster.router.crash(1)
                cluster.router.crash(2)
                with pytest.raises(asyncio.TimeoutError):
                    await cluster.submit(["x"], process_id=0, timeout=0.05)
                return len(cluster._pending_replies)

        assert run(scenario()) == 0

    def test_a_cancelled_submit_forgets_its_reply_future(self):
        async def scenario():
            options = AsyncClusterOptions(num_processes=3, latency_seconds=L)
            async with AsyncCluster(options) as cluster:
                task = asyncio.ensure_future(cluster.submit(["x"]))
                await asyncio.sleep(L / 2)
                pending_while_waiting = len(cluster._pending_replies)
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
                return pending_while_waiting, len(cluster._pending_replies)

        assert run(scenario()) == (1, 0)


class TestOptionsAreChecked:
    @pytest.mark.parametrize(
        "field, value",
        [("latency_seconds", -0.001)],
    )
    def test_nonsense_intervals_are_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            AsyncClusterOptions(**{field: value})
