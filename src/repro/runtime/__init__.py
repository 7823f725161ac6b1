"""Asyncio runtime: run the protocol state machines as real concurrent tasks.

While the discrete-event simulator (:mod:`repro.simulator`) drives the
protocols with virtual time, this package runs them "for real": each process
is an inbox task plus a tick task on an absolute deadline, messages travel
over in-memory channels whose links are pipelined (injected latency delays
the frame, never the sender), and clients are asyncio coroutines; see
``docs/runtime.md``.  The examples use it to demonstrate the library
outside the simulator, and the integration tests use it to exercise
concurrency.
"""

from repro.runtime.cluster import AsyncCluster, AsyncClusterOptions
from repro.runtime.channel import Channel, Router
from repro.runtime.virtual_clock import VirtualClockEventLoop, run_with_virtual_clock

__all__ = [
    "AsyncCluster",
    "AsyncClusterOptions",
    "Channel",
    "Router",
    "VirtualClockEventLoop",
    "run_with_virtual_clock",
]
