"""Two-level timestamp-lane event queue for the discrete-event simulator.

The simulated deployments deliver messages after delays drawn from a *small
discrete set* (the EC2 one-way latency matrix, the intra-site
``DEFAULT_LOCAL_LATENCY``, the 5 ms tick interval), so scheduled events cluster on
few distinct timestamps.  A single binary heap over every event pays an
O(log n) sift per event; this queue instead keeps

* a small binary heap of *unique* timestamps, and
* a FIFO ``deque`` lane per timestamp,

so N events scheduled at one instant cost one heap operation instead of N.
Ordering is ``(time, insertion order)`` **by construction**: events with the
same float time land in the same lane and leave it FIFO, so the explicit
``itertools.count`` tiebreak of the seed implementation disappears and events
never need to be comparable at all.

:class:`Event` is a ``NamedTuple``: events are the unit of work of the
simulation loop and a tuple allocates fast and unpacks at C speed.  The
validation-free hot path :meth:`EventQueue.schedule_message` appends *bare*
tuples with the same field order; :meth:`EventQueue.pop` normalises them back
to :class:`Event`, and the simulation loop (which drains whole lanes via
:meth:`EventQueue.pop_lane`) unpacks positionally, which works for both.

``heap_ops`` counts the operations on the timestamp heap (lane creations and
lane retirements); the ratio ``heap_ops / events`` is the scheduler's win
over the flat heap and is recorded in ``BENCH_fig6.json``.
"""

from __future__ import annotations

import enum
from collections import deque
from heapq import heappop, heappush
from typing import Any, Deque, Dict, Iterator, List, NamedTuple, Optional, Tuple


class EventKind(enum.IntEnum):
    """Kinds of simulator events.

    An ``IntEnum`` so the simulation loop can dispatch through a table
    indexed by kind; the values are the table slots.
    """

    MESSAGE = 0
    TICK = 1
    CLIENT = 2
    #: A scheduled action: the payload is called with the event's time
    #: (client start-ups, and every fault-plan edge: crash, restart, a
    #: window opening or closing).
    CUSTOM = 3


class Event(NamedTuple):
    """A scheduled simulator event."""

    time: float
    kind: EventKind
    target: int = -1
    payload: Any = None
    sender: int = -1


_MESSAGE = EventKind.MESSAGE

#: A lane: the events of one timestamp, in insertion order.
Lane = Deque[Event]


class EventQueue:
    """A deterministic two-level (timestamp -> FIFO lane) event queue.

    Public API summary:

    * :meth:`push` — validated scheduling of any event kind;
    * :meth:`schedule_message` — validation-free MESSAGE scheduling, the
      network-delivery hot path;
    * :meth:`pop` / :meth:`peek_time` / iteration — per-event consumption;
    * :meth:`pop_lane` / :meth:`requeue_lane` — batch consumption for the
      simulation loop (everything at the earliest instant at once).

    The attributes behind it (``_times``, ``_lanes``) are private: nothing
    outside this module may touch them (enforced by
    ``tests/test_simulator/test_scheduler_api.py``).
    """

    __slots__ = ("_times", "_lanes", "_size", "heap_ops")

    def __init__(self) -> None:
        #: Min-heap of the distinct timestamps that currently have a lane.
        self._times: List[float] = []
        #: Timestamp -> FIFO lane of events scheduled at that instant.
        self._lanes: Dict[float, Lane] = {}
        self._size = 0
        #: Operations performed on the timestamp heap (pushes + pops); the
        #: scheduler's cost metric, exposed through the experiment stats.
        self.heap_ops = 0

    # -- scheduling -----------------------------------------------------------

    def push(
        self,
        time: float,
        kind: EventKind,
        target: int = -1,
        payload: Any = None,
        sender: int = -1,
    ) -> Event:
        """Schedule an event and return it (validates the timestamp)."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        event = Event(time, kind, target, payload, sender)
        lane = self._lanes.get(time)
        if lane is None:
            self._lanes[time] = lane = deque()
            heappush(self._times, time)
            self.heap_ops += 1
        lane.append(event)
        self._size += 1
        return event

    def schedule_message(
        self, at: float, sender: int, destination: int, payload: Any
    ) -> None:
        """Schedule a MESSAGE delivery: the validation-free hot path.

        The signature matches the ``deliver(at, sender, destination,
        message)`` callback of :meth:`repro.simulator.network.Network.transmit`,
        so the bound method is passed to the network directly.  Network
        delays are non-negative sums of non-negative terms, so the
        ``time >= 0`` check of :meth:`push` is skipped, and a bare tuple
        (same field order as :class:`Event`) is appended instead of a
        ``NamedTuple``.
        """
        lane = self._lanes.get(at)
        if lane is None:
            self._lanes[at] = lane = deque()
            heappush(self._times, at)
            self.heap_ops += 1
        lane.append((at, _MESSAGE, destination, payload, sender))
        self._size += 1

    # -- per-event consumption ------------------------------------------------

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest event, or ``None`` when empty."""
        if not self._size:
            return None
        times = self._times
        time = times[0]
        lane = self._lanes[time]
        event = lane.popleft()
        if not lane:
            heappop(times)
            self.heap_ops += 1
            del self._lanes[time]
        self._size -= 1
        # ``schedule_message`` appends bare tuples; normalise so the public
        # API always yields Events.
        if type(event) is Event:
            return event
        return Event._make(event)

    def peek_time(self) -> Optional[float]:
        """Time of the earliest scheduled event, or ``None`` when empty."""
        return self._times[0] if self._times else None

    # -- lane consumption (the simulation loop) -------------------------------

    def pop_lane(
        self, horizon: Optional[float] = None
    ) -> Optional[Tuple[float, Lane]]:
        """Remove and return ``(time, lane)`` for the earliest timestamp.

        Returns ``None`` when the queue is empty or the earliest timestamp
        lies beyond ``horizon``.  The returned lane is owned by the caller:
        events pushed at the same timestamp *while the caller drains it* open
        a fresh lane, which a later :meth:`pop_lane` returns — preserving
        global insertion order exactly as a flat heap would.
        """
        times = self._times
        if not times:
            return None
        time = times[0]
        if horizon is not None and time > horizon:
            return None
        heappop(times)
        self.heap_ops += 1
        lane = self._lanes.pop(time)
        self._size -= len(lane)
        return time, lane

    def requeue_lane(self, time: float, events: Lane) -> None:
        """Return the unprocessed remainder of a popped lane to the queue.

        Used by the simulation loop when an event budget or stop predicate
        halts mid-lane.  The remainder is placed *ahead* of any event pushed
        at the same timestamp since the lane was popped, restoring the exact
        pre-pop order.
        """
        if not events:
            # Registering an empty lane would leave a phantom timestamp in
            # the heap (peek_time lies, pop crashes on the empty lane).
            return
        lane = self._lanes.get(time)
        if lane is None:
            self._lanes[time] = events if type(events) is deque else deque(events)
            heappush(self._times, time)
            self.heap_ops += 1
        else:
            lane.extendleft(reversed(events))
        self._size += len(events)

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Event]:
        """Drain the queue in time order (consumes it)."""
        while self._size:
            event = self.pop()
            if event is not None:
                yield event
