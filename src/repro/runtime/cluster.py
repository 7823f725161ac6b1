"""AsyncCluster: run a replicated deployment as asyncio tasks.

Each protocol process runs as two tasks: one waits on its inbox and handles
one message at a time, the other ticks on an absolute deadline every
``tick_interval`` whatever the inbox holds.  After every step the outbox is
handed to the router, which never makes the sender wait for a link's delay
(``docs/runtime.md``).  Clients submit commands through
:meth:`AsyncCluster.submit` and await the execution reply.

The runtime works with any protocol from :mod:`repro.protocols.registry`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.replicas import build_replicas
from repro.core.base import ProcessBase
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot
from repro.core.messages import ClientReply
from repro.runtime.channel import Router


@dataclass
class AsyncClusterOptions:
    """Tunables of the asyncio runtime."""

    protocol: str = "tempo"
    num_processes: int = 3
    faults: int = 1
    num_partitions: int = 1
    latency_seconds: float = 0.0
    #: The router always ships protocol messages as encoded wire frames
    #: (encode on send, decode on receive), so every runtime test exercises
    #: the :mod:`repro.wire` codec path end-to-end.  Only ``True`` is
    #: accepted; the field stays while callers still pass it.
    wire_bytes: bool = True
    protocol_kwargs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")
        if self.wire_bytes is not True:
            raise ValueError(
                "the runtime always ships wire frames: wire_bytes must be True"
            )


class AsyncCluster:
    """A local cluster of protocol processes driven by asyncio."""

    def __init__(self, options: Optional[AsyncClusterOptions] = None) -> None:
        self.options = options or AsyncClusterOptions()
        self.config = ProtocolConfig(
            num_processes=self.options.num_processes,
            faults=self.options.faults,
            num_partitions=self.options.num_partitions,
        )
        self._replicas = build_replicas(
            self.options.protocol, self.config, **self.options.protocol_kwargs
        )
        self.partitioner = self._replicas.partitioner
        self.quorum_system = self._replicas.quorum_system
        self.stores = self._replicas.stores
        self.processes = self._replicas.processes
        latency = None
        if self.options.latency_seconds > 0:
            latency = lambda sender, destination: self.options.latency_seconds  # noqa: E731
        self.router = Router(latency=latency)
        for process in self.processes:
            self.router.register(process.process_id)
        self._tasks: List[asyncio.Task] = []
        self._running = False
        self._pending_replies: Dict[Dot, asyncio.Future] = {}
        self._client_endpoint = -1
        self.router.register(self._client_endpoint)
        #: Millisecond clock based on the event loop's time so the cluster
        #: works unchanged on a virtual-clock loop
        #: (:mod:`repro.runtime.virtual_clock`).  Bound lazily because the
        #: cluster may be constructed before any loop is running; falls
        #: back to ``time.monotonic`` outside a loop.
        self._time_fn = None
        self._start_time = 0.0

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Start the inbox and tick tasks of every process plus the
        client-reply dispatcher."""
        if self._running:
            return
        self._rebind_clock()
        self._running = True
        for process in self.processes:
            self._tasks.append(asyncio.create_task(self._run_process(process)))
            self._tasks.append(asyncio.create_task(self._run_ticks(process)))
        self._tasks.append(asyncio.create_task(self._run_client_inbox()))

    async def stop(self) -> None:
        """Cancel all tasks, wait for them to finish and empty the links,
        then re-raise the first exception a task died of.

        In-flight frames and undelivered inbox entries are dropped and the
        link timers cancelled, so nothing of this loop survives into a
        restart, which may happen under a different loop (e.g. a second
        ``run_with_virtual_clock`` call).  A process whose handler raised
        has stopped serving, so a run that lost one does not end quietly.
        """
        self._running = False
        for task in self._tasks:
            task.cancel()
        outcomes = await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        self.router.reset()
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome

    async def __aenter__(self) -> "AsyncCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- process loop ---------------------------------------------------------------

    def _rebind_clock(self) -> None:
        """(Re)bind the millisecond clock to the current loop's time.

        A cluster may be stopped and started again under a different event
        loop (each ``run_with_virtual_clock`` call creates a fresh one);
        the rebinding preserves the already-elapsed cluster time so
        ``_now_ms`` stays monotonic across restarts.
        """
        try:
            loop_time = asyncio.get_running_loop().time
        except RuntimeError:
            loop_time = time.monotonic
        # Bound-method equality: same loop (or same module function) only.
        if self._time_fn == loop_time:
            return
        elapsed = 0.0
        if self._time_fn is not None:
            elapsed = self._time_fn() - self._start_time
        self._time_fn = loop_time
        self._start_time = loop_time() - elapsed

    def _now_ms(self) -> float:
        if self._time_fn is None:
            self._rebind_clock()
        return (self._time_fn() - self._start_time) * 1000.0

    async def _flush(self, process: ProcessBase) -> None:
        """Hand the outbox to the router.

        ``Router.send`` never suspends, so neither does this: the inbox
        task, the tick task and :meth:`submit` of one process each drain
        and ship in one uninterrupted step and need no lock between them.
        """
        for envelope in process.drain_outbox():
            await self.router.send(
                envelope.sender, envelope.destination, envelope.message
            )

    async def _run_process(self, process: ProcessBase) -> None:
        channel = self.router.channel(process.process_id)
        assert channel is not None
        try:
            while self._running:
                sender, message = await channel.get()
                process.deliver(sender, message, self._now_ms())
                await self._flush(process)
        except asyncio.CancelledError:
            return

    async def _run_ticks(self, process: ProcessBase) -> None:
        """Tick ``process`` on absolute deadlines, ``tick_interval`` apart."""
        loop = asyncio.get_running_loop()
        interval = self.config.tick_interval / 1000.0
        deadline = loop.time() + interval
        while self._running:
            await asyncio.sleep(deadline - loop.time())
            process.tick(self._now_ms())
            await self._flush(process)
            deadline += interval
            now = loop.time()
            if deadline <= now:
                # More than an interval late: skip the missed ticks rather
                # than fire them in a burst.
                deadline = now + interval

    async def _run_client_inbox(self) -> None:
        channel = self.router.channel(self._client_endpoint)
        assert channel is not None
        try:
            while self._running:
                _, message = await channel.get()
                if isinstance(message, ClientReply):
                    future = self._pending_replies.pop(message.dot, None)
                    if future is not None and not future.done():
                        future.set_result(message)
        except asyncio.CancelledError:
            return

    # -- client API ---------------------------------------------------------------------

    async def submit(
        self,
        keys: Sequence[str],
        process_id: int = 0,
        payload_size: int = 64,
        timeout: float = 10.0,
    ) -> ClientReply:
        """Submit a write command at ``process_id`` and await its execution."""
        process = self.processes[process_id]
        command = process.new_command(keys, payload_size=payload_size, client_id=0)
        dot = command.dot
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending_replies[dot] = future
        try:
            process.submit(command, self._now_ms())
            await self._flush(process)
            return await asyncio.wait_for(future, timeout=timeout)
        finally:
            # A timeout or a cancelled caller leaves no reply future behind.
            self._pending_replies.pop(dot, None)

    async def submit_many(
        self, keys_list: Sequence[Sequence[str]], timeout: float = 30.0
    ) -> List[ClientReply]:
        """Submit several commands concurrently, round-robin over processes."""
        coros = [
            self.submit(keys, process_id=index % len(self.processes), timeout=timeout)
            for index, keys in enumerate(keys_list)
        ]
        return list(await asyncio.gather(*coros))

    # -- introspection -------------------------------------------------------------------

    def value_of(self, key: str, process_id: int = 0) -> Optional[str]:
        """Value of ``key`` in the store of ``process_id``."""
        return self.stores[process_id].get(key)

    def executed_counts(self) -> Dict[int, int]:
        """Number of commands executed per process."""
        return {
            process.process_id: len(process.executed) for process in self.processes
        }

    def stores_agree(self) -> bool:
        """Whether every replica of every partition has identical contents."""
        return self._replicas.stores_agree()
