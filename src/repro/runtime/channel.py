"""In-memory message channels for the asyncio runtime.

A message's delay belongs to the link, never to the sender's next step:
:meth:`Router.send` stamps the frame with the time it is due, queues it on
the destination's in-flight heap and returns without suspending, and one
timer per destination lands the frames in its inbox (``docs/runtime.md``).

Every protocol message travels through the queues as its real encoded frame
(:mod:`repro.wire`): the router encodes on send and :meth:`Channel.get`
decodes on receipt, so anything the runtime exercises also exercises the
codecs end-to-end.  Payloads without a codec (plain strings, test sentinels)
pass through unchanged; a raw ``bytes`` payload is reserved for frames.
"""

from __future__ import annotations

import asyncio
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.wire import decode_frame, encode_frame, has_codec


@dataclass
class Channel:
    """An inbox for one endpoint (process or client)."""

    endpoint: int
    queue: "asyncio.Queue[Tuple[int, object]]"

    @classmethod
    def create(cls, endpoint: int) -> "Channel":
        return cls(endpoint=endpoint, queue=asyncio.Queue())

    def put(self, sender: int, message: object) -> None:
        """Append one inbox entry; the queue is unbounded, so this never waits."""
        self.queue.put_nowait((sender, message))

    async def get(self) -> Tuple[int, object]:
        """The next entry, a ``bytes`` entry decoded as its wire frame."""
        sender, message = await self.queue.get()
        if type(message) is bytes:
            message, _ = decode_frame(message)
        return sender, message

    def empty(self) -> bool:
        return self.queue.empty()


class _InFlight:
    """Frames on their way to one destination.

    ``frames`` is a heap of ``(due, send sequence, sender, message)`` and
    ``timer`` the one handle armed for its head.
    """

    __slots__ = ("frames", "timer")

    def __init__(self) -> None:
        self.frames: List[Tuple[float, int, int, object]] = []
        self.timer: Optional[asyncio.TimerHandle] = None

    def discard(self) -> int:
        """Cancel the timer and forget every frame; returns how many."""
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None
        count = len(self.frames)
        self.frames.clear()
        return count


class Router:
    """Routes messages between channels, optionally delaying them.

    ``latency(sender, destination)`` returns the one-way delay in seconds;
    by default delivery is immediate.  Links are independent and pipelined:
    a delayed frame waits on its destination's in-flight heap, not in the
    sender, so any number of frames travel at once.  Frames of one
    ``(sender, destination)`` link land in send order whatever ``latency``
    returns; frames of different links land by due time.  Crashed endpoints
    drop messages, those already in flight included, matching the
    crash-stop model.

    Every message whose type has a registered codec is encoded to its
    framed byte form before it enters the destination queue and decoded
    back by :meth:`Channel.get`, so the runtime ships real bytes rather
    than object references.
    """

    def __init__(self, latency=None) -> None:
        self._channels: Dict[int, Channel] = {}
        self._in_flight: Dict[int, _InFlight] = {}
        #: Due time of the last delayed frame per ``(sender, destination)``:
        #: a later frame of the link is never due earlier.
        self._last_due: Dict[Tuple[int, int], float] = {}
        self._sequence = 0
        self._latency = latency
        self._crashed: set = set()
        self.delivered = 0
        self.dropped = 0
        #: Total frame bytes shipped through the router.
        self.bytes_shipped = 0

    def register(self, endpoint: int) -> Channel:
        """Create (or return) the channel of ``endpoint``."""
        channel = self._channels.get(endpoint)
        if channel is None:
            channel = Channel.create(endpoint)
            self._channels[endpoint] = channel
            self._in_flight[endpoint] = _InFlight()
        return channel

    def channel(self, endpoint: int) -> Optional[Channel]:
        return self._channels.get(endpoint)

    def reset(self) -> None:
        """Discard every in-flight frame and recreate every channel's queue.

        Link timers belong to the loop that armed them and
        ``asyncio.Queue`` binds to the first loop that awaits it, so a
        cluster restarting under a fresh event loop needs both gone.
        Undelivered messages are dropped, which the crash-stop/fair-lossy
        link model permits.
        """
        for in_flight in self._in_flight.values():
            in_flight.discard()
        # Due times of another loop's clock mean nothing on the next one.
        self._last_due.clear()
        for channel in self._channels.values():
            channel.queue = asyncio.Queue()

    def crash(self, endpoint: int) -> None:
        """Crash-stop ``endpoint``: nothing reaches it from now on."""
        self._crashed.add(endpoint)
        in_flight = self._in_flight.get(endpoint)
        if in_flight is not None:
            self.dropped += in_flight.discard()

    def is_crashed(self, endpoint: int) -> bool:
        return endpoint in self._crashed

    async def send(self, sender: int, destination: int, message: object) -> None:
        """Ship one message, honouring latency and crashes; never suspends."""
        channel = self._channels.get(destination)
        if channel is None or destination in self._crashed:
            self.dropped += 1
            return
        if has_codec(type(message)):
            frame = encode_frame(message)
            self.bytes_shipped += len(frame)
            message = frame
        if self._latency is not None:
            loop = asyncio.get_running_loop()
            now = loop.time()
            link = (sender, destination)
            due = max(now + self._latency(sender, destination), self._last_due.get(link, now))
            in_flight = self._in_flight[destination]
            # A frame due now still queues behind frames in flight, which
            # may be of its own link.
            if due > now or in_flight.frames:
                self._last_due[link] = due
                self._sequence += 1
                heapq.heappush(in_flight.frames, (due, self._sequence, sender, message))
                if in_flight.frames[0][1] == self._sequence:
                    if in_flight.timer is not None:
                        in_flight.timer.cancel()
                    self._arm(loop, destination, in_flight)
                return
        channel.put(sender, message)
        self.delivered += 1

    def _arm(self, loop: asyncio.AbstractEventLoop, destination: int, in_flight: _InFlight) -> None:
        """Arm the destination's one timer for the head of its heap."""
        due = in_flight.frames[0][0]
        in_flight.timer = loop.call_at(due, self._land, loop, destination, due)

    def _land(self, loop: asyncio.AbstractEventLoop, destination: int, due: float) -> None:
        """Timer callback: move every frame that is due into the inbox."""
        in_flight = self._in_flight[destination]
        in_flight.timer = None
        channel = self._channels[destination]
        frames = in_flight.frames
        # The loop may fire a timer up to its clock resolution early; the
        # frame it was armed for lands regardless.
        now = max(due, loop.time())
        while frames and frames[0][0] <= now:
            _, _, sender, message = heapq.heappop(frames)
            channel.put(sender, message)
            self.delivered += 1
        if frames:
            self._arm(loop, destination, in_flight)
