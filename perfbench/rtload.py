"""Load generators for the asyncio runtime workloads.

Both drive only ``AsyncCluster``'s public API (``start``/``submit``/
``stores_agree``/``executed_counts``/``stop``) from the cluster's own event
loop, one thread, one process.

* closed loop (``rt_delay2ms``): every client coroutine submits its next
  command when the previous reply arrives; latency is submit -> reply on the
  loop's clock (virtual milliseconds under ``run_with_virtual_clock``).
* open loop (``rt_open300``): requests are started at absolute due times
  whatever the cluster does, and each is timed *from its due time*, so a
  stall is charged to every request it delays.  The generator reports how
  late it started each request.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from perfbench.workloads import RT_CLOSED_TIMEOUT_S, RT_OPEN_TIMEOUT_S, WARMUP_SHARE

#: Loop-clock seconds granted to trailing commit/stability traffic before
#: the replicas' stores are compared.
DRAIN_S = 0.5
#: The open-loop generator starts its schedule this long after the cluster.
OPEN_LEAD_S = 0.05


@dataclass
class RuntimeOutcome:
    """What one runtime run produced, before any metric is derived."""

    attempted: int = 0
    failed: int = 0
    #: Failed requests of the measured window: no latency sample, and a miss
    #: of any latency limit.
    missed: int = 0
    #: Latencies of the measured requests that completed, milliseconds on the
    #: loop's clock.
    latencies_ms: List[float] = field(default_factory=list)
    #: Measured window on the loop's clock.
    clock_s: float = 0.0
    #: Host seconds from cluster construction to the last reply.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    stores_agree: bool = False
    #: Every replica executed every completed command.
    all_executed: bool = False
    #: How late the open-loop generator started each request (ms).
    late_ms: List[float] = field(default_factory=list)
    #: What the first failed requests raised, for the failure report.
    errors: List[str] = field(default_factory=list)
    delivered: int = 0
    bytes_shipped: int = 0
    messages_handled: int = 0
    footprints: List[Dict[str, int]] = field(default_factory=list)
    num_processes: int = 0

    def note_failure(self, error: BaseException, measured: bool) -> None:
        self.failed += 1
        self.missed += measured
        if len(self.errors) < 3:
            self.errors.append(repr(error))


def untraced(function: Callable, name: str) -> Callable:
    """The ``wrap`` of the untraced pass: leave the coroutine alone."""
    return function


async def _closed_clients(cluster, plan, outcome: RuntimeOutcome, wrap) -> None:
    loop = asyncio.get_running_loop()

    async def client(commands: Sequence[Tuple[int, str]]) -> None:
        for replica, key in commands:
            started = loop.time()
            outcome.attempted += 1
            try:
                await cluster.submit(
                    [key], process_id=replica, timeout=RT_CLOSED_TIMEOUT_S
                )
            except asyncio.TimeoutError as error:
                outcome.note_failure(error, measured=True)
                continue
            outcome.latencies_ms.append((loop.time() - started) * 1000.0)

    client = wrap(client, "cluster.client.closed_loop")
    started = loop.time()
    await asyncio.gather(*(client(commands) for commands in plan))
    outcome.clock_s = loop.time() - started


async def _open_clients(cluster, plan, outcome: RuntimeOutcome, wrap) -> None:
    loop = asyncio.get_running_loop()
    horizon = plan[-1][0] if plan else 0.0
    measured_from = horizon * WARMUP_SHARE
    epoch = loop.time() + OPEN_LEAD_S

    async def request(due: float, replica: int, key: str) -> None:
        measured = due >= measured_from
        try:
            await cluster.submit([key], process_id=replica, timeout=RT_OPEN_TIMEOUT_S)
        except Exception as error:  # noqa: BLE001 - whatever it raised, the request failed
            outcome.note_failure(error, measured)
            return
        if measured:
            outcome.latencies_ms.append((loop.time() - epoch - due) * 1000.0)

    async def generator() -> List[asyncio.Task]:
        tasks = []
        for due, replica, key in plan:
            delay = epoch + due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome.late_ms.append((loop.time() - epoch - due) * 1000.0)
            outcome.attempted += 1
            tasks.append(asyncio.create_task(request(due, replica, key)))
        return tasks

    request = wrap(request, "cluster.client.open_loop")
    generator = wrap(generator, "cluster.client.generator")
    await asyncio.gather(*(await generator()))
    outcome.clock_s = horizon - measured_from


def run_runtime(kind: str, options: Dict[str, object], plan, wrap=untraced) -> RuntimeOutcome:
    """Run one ``rt_*`` workload to completion and check its replicas.

    ``wrap(function, span_name)`` lets the traced pass time the generator's
    own coroutines; the untraced pass leaves them alone.
    """
    from repro.runtime import AsyncCluster, AsyncClusterOptions, run_with_virtual_clock

    outcome = RuntimeOutcome()

    async def scenario() -> None:
        cpu_started = time.process_time()
        wall_started = time.perf_counter()
        cluster = AsyncCluster(AsyncClusterOptions(**options))
        await cluster.start()
        try:
            clients = _closed_clients if kind == "rt_closed" else _open_clients
            await clients(cluster, plan, outcome, wrap)
            outcome.wall_s = time.perf_counter() - wall_started
            outcome.cpu_s = time.process_time() - cpu_started
            await asyncio.sleep(DRAIN_S)
            outcome.stores_agree = cluster.stores_agree()
            completed = outcome.attempted - outcome.failed
            outcome.all_executed = all(
                count >= completed for count in cluster.executed_counts().values()
            )
            outcome.delivered = cluster.router.delivered
            outcome.bytes_shipped = cluster.router.bytes_shipped
            outcome.messages_handled = sum(
                process.messages_handled() for process in cluster.processes
            )
            outcome.footprints = [
                process.memory_footprint() for process in cluster.processes
            ]
            outcome.num_processes = len(cluster.processes)
        finally:
            await cluster.stop()

    if kind == "rt_closed":
        run_with_virtual_clock(scenario())
    else:
        asyncio.run(scenario())
    return outcome
