"""Which callables the traced pass wraps, and the per-layer metrics it derives.

A layer is a module of ``src/repro``.  ``Instrumentation.install`` wraps the
public callables at each layer boundary (class attributes, and the module
attributes ``runtime/channel.py`` imported) before the public entry point is
called; ``restore`` puts the originals back.  Counts are taken at the same
boundaries, or read from the counters the program already keeps.
"""

from __future__ import annotations

import asyncio
import importlib
import inspect
from collections import deque
from typing import Deque, Dict, List, Tuple

from perfbench.metrics import PER_LAYER, percentile
from perfbench.tracing import Tracer

#: Frames replayed by the transport drill (enough for a steady rate).
DRILL_FRAMES = 20_000


def _classes_defining(module, attribute: str) -> List[type]:
    return [
        cls for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
        and inspect.isfunction(vars(cls).get(attribute))
    ]


class Instrumentation:
    """The tracer plus the boundary counters of one traced run."""

    def __init__(self, protocol: str) -> None:
        self.tracer = Tracer()
        self.protocol = protocol
        #: Loop-clock seconds ``Router.send`` calls took, call to return.
        self.flush_wait_s = 0.0
        #: Messages handed to ``Router.send``, by kind name.
        self.sent_kinds: Dict[str, int] = {}
        #: ``(sender, message)`` of the first frames shipped, for the drill.
        self.shipped: List[Tuple[int, object]] = []
        #: ``Channel.put`` -> ``Channel.get`` waits on the loop's clock (ms).
        self.queue_waits_ms: List[float] = []
        self._put_times: Dict[int, Deque[float]] = {}
        #: Simulated times of client replies, for the longest service gap.
        self.reply_times: List[float] = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        tracer = self.tracer
        patch = tracer.patch

        from repro.simulator.events import EventQueue
        for attribute in ("pop_lane", "push", "schedule_message"):
            patch(EventQueue, attribute, f"simulator.events.{attribute}")
        from repro.simulator.sim import Simulation
        patch(Simulation, "run", "simulator.sim.run")
        from repro.simulator.network import Network
        patch(Network, "transmit", "simulator.network.transmit", message_arg=3)
        patch(Network, "transmit_batch", "simulator.network.transmit_batch")

        for module_name in ("repro.core.messages", "repro.protocols.dep_messages"):
            module = importlib.import_module(module_name)
            for cls in _classes_defining(module, "size_bytes"):
                patch(cls, "size_bytes", "core.wiresize.size_bytes")

        from repro.protocols.registry import PROTOCOLS
        from repro.protocols.dependency import DependencyProtocolProcess
        process_class = PROTOCOLS[self.protocol]
        layer = (
            "protocols.dependency"
            if issubclass(process_class, DependencyProtocolProcess)
            else "core.process"
        )
        patch(process_class, "deliver", f"{layer}.deliver", message_arg=2)
        patch(process_class, "tick", f"{layer}.tick")
        patch(process_class, "submit", f"{layer}.submit", message_arg=1)

        from repro.core import promises
        for cls in (promises.PromiseSet, promises.PromiseTracker, promises.RangeCollector):
            tracer.patch_public_methods(cls, f"core.promises.{cls.__name__}")
        from repro.core.gc import GcTracker
        tracer.patch_public_methods(GcTracker, "core.gc")
        from repro.protocols.depgraph import DependencyGraphExecutor
        patch(DependencyGraphExecutor, "commit", "protocols.depgraph.commit")
        patch(DependencyGraphExecutor, "advance", "protocols.depgraph.advance")
        from repro.kvstore.store import KeyValueStore
        patch(KeyValueStore, "apply", "kvstore.apply", message_arg=1)

        from repro.cluster.client import ClosedLoopClient
        patch(ClosedLoopClient, "on_reply", "cluster.client.on_reply",
              message_arg=2, observe=self._saw_reply)
        patch(ClosedLoopClient, "submit_next", "cluster.client.submit_next")
        from repro.workloads.micro import MicroWorkload
        from repro.workloads.ycsbt import YcsbTWorkload
        patch(MicroWorkload, "next_keys", "cluster.client.next_keys")
        patch(YcsbTWorkload, "next_keys", "cluster.client.next_keys")

        from repro.reliability import RetransmitBuffer
        for attribute in ("track", "record_ack", "due"):
            patch(RetransmitBuffer, attribute, f"reliability.{attribute}")
        from repro.analysis.trace import ExecutionTraceRecorder
        patch(ExecutionTraceRecorder, "check", "analysis.trace.check")

        from repro.runtime import channel as channel_module
        patch(channel_module, "encode_frame", "wire.encode", message_arg=0)
        patch(channel_module, "decode_frame", "wire.decode")
        self._install_channel(channel_module.Router, channel_module.Channel)
        from repro.runtime.cluster import AsyncCluster
        # The process task, its flush and the reply dispatcher are private
        # coroutines of the public class; they are wrapped so that their
        # own work is not charged to asyncio.  A commit that renames them
        # moves that time to ``runtime.loop.self_s``.
        for attribute in ("_run_process", "_run_client_inbox", "_flush", "submit"):
            patch(AsyncCluster, attribute, f"runtime.cluster.{attribute.lstrip('_')}")
        patch(asyncio.BaseEventLoop, "_run_once", "runtime.loop.run_once")

    def _install_channel(self, router_class: type, channel_class: type) -> None:
        tracer = self.tracer
        traced_send = tracer.wrap(
            router_class.send, "runtime.channel.send",
            message_arg=3, observe=self._saw_send,
        )
        traced_put = tracer.wrap(
            channel_class.put, "runtime.channel.put", observe=self._saw_put
        )
        traced_get = tracer.wrap(channel_class.get, "runtime.channel.get")
        loop_time = lambda: asyncio.get_running_loop().time()  # noqa: E731

        async def send(router, sender, destination, message):
            started = loop_time()
            try:
                return await traced_send(router, sender, destination, message)
            finally:
                self.flush_wait_s += loop_time() - started

        async def get(channel):
            item = await traced_get(channel)
            stamps = self._put_times.get(channel.endpoint)
            if stamps:
                self.queue_waits_ms.append((loop_time() - stamps.popleft()) * 1000.0)
            return item

        tracer.replace(router_class, "send", send)
        tracer.replace(channel_class, "put", traced_put)
        tracer.replace(channel_class, "get", get)

    def restore(self) -> None:
        self.tracer.restore()

    # -- boundary counters ----------------------------------------------------------

    def _saw_reply(self, client, sender, message, now) -> None:
        self.reply_times.append(now)

    def _saw_send(self, router, sender, destination, message) -> None:
        kind = type(message).__name__
        self.sent_kinds[kind] = self.sent_kinds.get(kind, 0) + 1
        if len(self.shipped) < DRILL_FRAMES and sender >= 0:
            self.shipped.append((sender, message))

    def _saw_put(self, channel, sender, message) -> None:
        stamps = self._put_times.get(channel.endpoint)
        if stamps is None:
            stamps = self._put_times[channel.endpoint] = deque()
        stamps.append(asyncio.get_running_loop().time())

    # -- metrics ---------------------------------------------------------------------

    def metrics(self, run: dict) -> Dict[str, float]:
        """Every per-layer metric of one traced run.

        ``run`` holds what the worker measured around the public call:
        ``traced_wall_s`` (host seconds the spans were installed for),
        ``completed``, ``latencies_ms`` and, per kind of workload, the program's own counters (``stats``,
        ``sent``, ``delivered`` ...).  A metric that does not apply to a
        workload is 0: nothing of that layer ran.
        """
        tracer = self.tracer
        self_s = tracer.layer_self_s
        calls = tracer.layer_calls
        completed = max(1, run["completed"])
        stats = run.get("stats", {})
        sent = run.get("sent", {})
        handled = max(1, run.get("messages_handled", 0))
        latencies = sorted(run["latencies_ms"])
        waits = sorted(self.queue_waits_ms)
        events = stats.get("events", 0.0)
        wall = run["traced_wall_s"]
        # Host seconds the process did not compute are the event loop
        # asleep inside ``_run_once``; a simulator run has no loop.
        idle_s = run["idle_s"] if calls("runtime.loop") else 0.0
        values: Dict[str, float] = {
            # Filled in by run.py from the untraced run on the same input.
            "host.cmds_per_s": 0.0,
            "simulator.events.events": events,
            "simulator.events.heap_ops": stats.get("heap_ops", 0.0),
            "simulator.events.self_s": self_s("simulator.events"),
            "simulator.events.ns_per_event": (
                1e9 * self_s("simulator.events") / events if events else 0.0
            ),
            "simulator.sim.loop_self_s": self_s("simulator.sim"),
            "simulator.sim.ticks": run.get("ticks", 0),
            "simulator.sim.events_per_s": events / run["sim_run_s"] if events else 0.0,
            "simulator.network.self_s": self_s("simulator.network"),
            "simulator.network.msgs_per_cmd": stats.get("messages_sent", 0.0) / completed,
            "simulator.network.bytes_per_cmd": stats.get("bytes_sent", 0.0) / completed,
            "simulator.network.coalescing": (
                stats["messages_delivered"] / stats["deliveries"]
                if stats.get("deliveries") else 0.0
            ),
            "simulator.network.dropped": run.get("dropped", 0),
            "core.wiresize.calls": calls("core.wiresize"),
            "core.wiresize.self_s": self_s("core.wiresize"),
            "core.process.deliver_self_s": self_s("core.process.deliver"),
            "core.process.tick_self_s": self_s("core.process.tick"),
            "core.process.submit_self_s": self_s("core.process.submit"),
            "core.process.us_per_msg": (
                1e6 * self_s("core.process.deliver") / handled
                if calls("core.process.deliver") else 0.0
            ),
            "core.promises.calls": calls("core.promises"),
            "core.promises.self_s": self_s("core.promises"),
            "core.gc.self_s": self_s("core.gc"),
            "core.gc.collected": run.get("gc_collected", 0),
            "core.gc.live_records": run.get("live_records", 0),
            "core.gc.peak_live_per_key": run.get("peak_live_per_key", 0),
            "protocols.dependency.deliver_self_s": self_s("protocols.dependency.deliver"),
            "protocols.dependency.tick_self_s": self_s("protocols.dependency.tick"),
            "protocols.depgraph.calls": calls("protocols.depgraph"),
            "protocols.depgraph.self_s": self_s("protocols.depgraph"),
            "protocols.depgraph.max_component": run.get("max_component", 0),
            "kvstore.applies": calls("kvstore"),
            "kvstore.self_s": self_s("kvstore"),
            "cluster.client.self_s": self_s("cluster.client"),
            "cluster.client.samples": len(latencies),
            "cluster.client.p50_ms": percentile(latencies, 0.5),
            "cluster.client.p999_ms": percentile(latencies, 0.999),
            "cluster.client.max_ms": latencies[-1] if latencies else 0.0,
            "cluster.client.gen_late_p99_ms": percentile(sorted(run.get("late_ms", [])), 0.99),
            "cluster.runner.build_s": run.get("build_s", 0.0),
            "cluster.runner.collect_s": run.get("collect_s", 0.0),
            "reliability.tracked": stats.get("retransmit_tracked", 0.0),
            "reliability.resends": stats.get("retransmit_resends", 0.0),
            "reliability.expired": stats.get("retransmit_expired", 0.0),
            "reliability.self_s": self_s("reliability"),
            "faults.max_reply_gap_ms": run.get("max_reply_gap_ms", 0.0),
            "analysis.trace.check_s": self_s("analysis.trace"),
            "wire.encode_calls": calls("wire.encode"),
            "wire.encode_self_s": self_s("wire.encode"),
            "wire.decode_calls": calls("wire.decode"),
            "wire.decode_self_s": self_s("wire.decode"),
            "wire.bytes_per_cmd": run.get("bytes_shipped", 0) / completed,
            "runtime.channel.self_s": self_s("runtime.channel"),
            "runtime.channel.delivered": run.get("delivered", 0),
            "runtime.channel.queue_wait_p50_ms": percentile(waits, 0.5),
            "runtime.channel.queue_wait_p99_ms": percentile(waits, 0.99),
            "runtime.cluster.self_s": self_s("runtime.cluster"),
            "runtime.cluster.tick_rate_hz": run.get("tick_rate_hz", 0.0),
            "runtime.cluster.flush_wait_s": self.flush_wait_s,
            "runtime.loop.idle_s": idle_s,
            "runtime.loop.self_s": max(0.0, self_s("runtime.loop") - idle_s),
            "runtime.transport.frames_per_s": run.get("drill_frames_per_s", 0.0),
            "trace.overhead_ratio": run.get("overhead_ratio", 0.0),
            "trace.coverage_share": tracer.total_self_s() / wall,
            "trace.uncovered_s": max(0.0, wall - tracer.total_self_s()),
        }
        for metric in PER_LAYER:
            layer, _, kind = metric.name.rpartition(".sent.")
            if layer:
                values[metric.name] = sent.get(kind, 0)
        return {metric.name: float(values[metric.name]) for metric in PER_LAYER}


async def transport_drill(shipped: List[Tuple[int, object]], socket_name: str) -> float:
    """Replay shipped messages once through ``StreamConnection`` ->
    ``StreamServer`` over a Unix socket; returns frames per host second."""
    import time

    from repro.runtime.channel import Channel
    from repro.runtime.transport import StreamConnection, StreamServer
    from repro.wire import has_codec

    frames = [(s, m) for s, m in shipped if has_codec(type(m))]
    if not frames:
        return 0.0
    channel = Channel.create(0)
    server = await StreamServer.serve_unix(channel, socket_name)
    connection = await StreamConnection.open_unix(socket_name)
    try:
        async def produce() -> None:
            for sender, message in frames:
                await connection.send(sender, message)

        async def consume() -> None:
            for _ in frames:
                await channel.get()

        started = time.perf_counter()
        await asyncio.gather(produce(), consume())
        return len(frames) / (time.perf_counter() - started)
    finally:
        await connection.close()
        await server.close()
