"""Virtual-time asyncio event loop for deterministic runtime tests.

The asyncio runtime (:mod:`repro.runtime.cluster`) is time-driven: every
process ticks on an absolute deadline each ``tick_interval`` and every
delayed frame lands when its link timer fires.  On a real clock those
timers burn wall time (5 ms per tick) and make test outcomes depend on
scheduler jitter.  :class:`VirtualClockEventLoop` removes both problems:
whenever the loop has no ready callbacks it jumps its clock straight to the
earliest pending timer instead of sleeping, so ticks, link delays, timeouts
and ``asyncio.sleep`` fire instantly and at their exact virtual time, while
message handling (which wakes tasks through ready callbacks) is always
fully drained before time advances.

Use :func:`run_with_virtual_clock` as a drop-in replacement for
``asyncio.run`` in tests.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Coroutine


class VirtualClockEventLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock only moves when the loop is idle."""

    def __init__(self) -> None:
        super().__init__()
        self._virtual_now = 0.0

    def time(self) -> float:
        return self._virtual_now

    def _run_once(self) -> None:
        # When nothing is ready to run, fast-forward the clock to the
        # earliest non-cancelled timer so the selector never blocks.  The
        # base implementation then computes a zero timeout for the poll and
        # fires the timer immediately.  ``_scheduled`` is a min-heap, so
        # popping cancelled heads (with the same bookkeeping the base loop
        # does) and reading the head is O(cancelled), not O(timers).
        if not self._ready and self._scheduled:
            scheduled = self._scheduled
            while scheduled and scheduled[0]._cancelled:
                self._timer_cancelled_count -= 1
                handle = heapq.heappop(scheduled)
                handle._scheduled = False
            if scheduled and scheduled[0]._when > self._virtual_now:
                self._virtual_now = scheduled[0]._when
        super()._run_once()


def _cancel_pending_tasks(loop: asyncio.AbstractEventLoop) -> None:
    """Cancel and reap leftover tasks, as ``asyncio.run`` does on exit."""
    tasks = asyncio.all_tasks(loop)
    if not tasks:
        return
    for task in tasks:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))


def run_with_virtual_clock(coroutine: Coroutine[Any, Any, Any]) -> Any:
    """Run ``coroutine`` to completion on a fresh virtual-clock loop."""
    loop = VirtualClockEventLoop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(coroutine)
    finally:
        try:
            _cancel_pending_tasks(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            asyncio.set_event_loop(None)
            loop.close()
