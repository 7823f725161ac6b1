"""The discrete-event simulation loop.

A :class:`Simulation` owns a set of protocol processes (any
:class:`repro.core.base.ProcessBase` subclass), a :class:`Network`, optional
clients, and an event queue.  It repeatedly pops the earliest *timestamp
lane* (every event scheduled at that instant, in insertion order — see
:class:`repro.simulator.events.EventQueue`), delivers each event, drains the
outbox of the affected process into new network events, and schedules
periodic ticks.

Time is measured in milliseconds of simulated time.

Hot-path notes:

* the loop drains whole lanes via the public ``pop_lane`` API — one heap
  operation per distinct timestamp instead of one per event;
* MESSAGE events (the overwhelming majority) are dispatched inline; every
  other kind goes through a table indexed by the ``EventKind`` value;
* ticks are *fused*: one shared TICK event per interval walks every alive
  process, instead of one event per process per interval;
* only the outbox of the process an event was delivered to is drained —
  handlers can only ever append to their own process's outbox
  (self-addressed messages are delivered synchronously), so scanning every
  outbox after every event would be pure overhead.  Draining an outbox
  coalesces every message bound for the same destination into one ``MBatch``
  delivery (see ``route_envelopes`` and ``docs/batching.md``), so a
  broadcast-heavy step costs one scheduler call per destination instead of
  one per message.

See ``docs/event_loop.md`` for the ordering/determinism argument.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.base import Envelope, MBatch, ProcessBase
from repro.core.config import ProtocolConfig
from repro.faults.plan import Crash, FaultPlan, Restart
from repro.simulator.events import EventKind, EventQueue
from repro.simulator.network import Network

_MESSAGE = EventKind.MESSAGE
_TICK = EventKind.TICK
_CUSTOM = EventKind.CUSTOM


@dataclass
class SimulationStats:
    """Counters exposed after a run.

    ``ticks`` counts per-process tick deliveries (P per interval), matching
    the pre-fusion accounting even though the simulator now processes one
    fused TICK event per interval.
    """

    events_processed: int = 0
    messages_delivered: int = 0
    ticks: int = 0
    end_time: float = 0.0


class Simulation:
    """Discrete-event simulation of a replicated deployment."""

    def __init__(self, processes: Iterable[ProcessBase], network: Network) -> None:
        self.processes: Dict[int, ProcessBase] = {
            process.process_id: process for process in processes
        }
        self.network = network
        self.queue = EventQueue()
        self.now = 0.0
        self.stats = SimulationStats()
        #: Handlers for envelopes addressed to endpoints that are not
        #: processes (e.g. clients).  Keyed by endpoint id.
        self.external_endpoints: Dict[int, Callable[[int, object, float], None]] = {}
        #: Dispatch table indexed by ``EventKind`` value; MESSAGE (slot 0)
        #: is inlined in the run loops and never dispatched through it.
        self._dispatch: Tuple[Optional[Callable[[int, object], None]], ...] = (
            None,
            self._handle_tick_event,
            self._handle_client_event,
            self._handle_custom_event,
        )
        # One fused TICK event per interval walks every process; nothing to
        # tick means no tick chain (and an immediately-quiescent queue).
        if self.processes:
            self.queue.push(ProtocolConfig.tick_interval, _TICK)

    # -- wiring ----------------------------------------------------------------

    def register_external(
        self, endpoint: int, handler: Callable[[int, object, float], None]
    ) -> None:
        """Register a non-process endpoint (typically a client).

        ``handler(sender, message, now)`` is called on delivery.
        """
        self.external_endpoints[endpoint] = handler

    def schedule(
        self, delay: float, callback: Callable[[float], None]
    ) -> None:
        """Schedule an arbitrary callback ``delay`` ms from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.queue.push(self.now + delay, _CUSTOM, payload=callback)

    def submit_at(self, time: float, process_id: int, command) -> None:
        """Schedule a command submission at ``time`` on ``process_id``."""
        self.queue.push(time, EventKind.CLIENT, target=process_id, payload=command)

    def schedule_faults(
        self, plan: FaultPlan, process_id_of: Callable[[int, int], int]
    ) -> None:
        """Start and end every event of a validated plan at its simulated
        times: a crash or restart acts on the replica
        ``process_id_of(site_rank, shard)``; a window event is handed to
        the network when it opens and taken back when it closes.  Call
        once, before :meth:`run`.  Events are pushed in plan order (a
        window's start, then its end), an order each timestamp's FIFO lane
        keeps.
        """
        push = self.queue.push

        def at(time: float, action: Callable[[object], None], argument: object) -> None:
            push(time, _CUSTOM, payload=lambda now: action(argument))

        network = self.network
        for event in plan:
            if isinstance(event, Crash):
                at(event.at_ms, self.crash, process_id_of(event.site_rank, event.shard))
            elif isinstance(event, Restart):
                at(event.at_ms, self.restart, process_id_of(event.site_rank, event.shard))
            else:
                at(event.at_ms, network.start_fault, event)
                at(event.until_ms, network.end_fault, event)

    def crash(self, process_id: int) -> None:
        """Crash-stop a process: the network drops what is sent to it and
        every process suspects it from this instant (the oracle failure
        detector of :meth:`restart`)."""
        process = self.processes.get(process_id)
        if process is None:
            return
        process.crash()
        self.network.crash(process_id)
        for other in self.processes.values():
            other.set_alive_view(process_id, False)

    def restart(self, process_id: int) -> None:
        """Restart a crashed process with its durable state.

        The paper assumes crash-stop; restart models the crash-*recovery*
        variant where a replica returns with the protocol state it held at
        the crash (as if persisted).  The network delivers to it again and
        every process stops suspecting it: the simulator is an oracle
        failure detector that suspects a process at its crash instant and
        trusts it again here, and nothing else — a partition, a flaky link,
        a targeted loss — moves it.
        """
        process = self.processes.get(process_id)
        if process is None:
            return
        process.recover_process()
        self.network.restore(process_id)
        for other in self.processes.values():
            other.set_alive_view(process_id, True)

    # -- outbox routing -----------------------------------------------------------

    def route_envelopes(self, envelopes: List[Envelope]) -> None:
        """Turn outgoing envelopes into future MESSAGE events.

        All messages addressed to the same destination within one event-
        handling step are coalesced into a single :class:`MBatch` delivery
        (one simulator event), in their original send order.  Batches are
        formed in destination-first-seen order.  Note this is not exactly
        the unbatched event stream: when one step interleaves sends to two
        *equidistant* destinations (A, B, A), the unbatched schedule would
        deliver A's second message after B's, while the batch delivers
        both of A's together first.  Per-destination order is always
        preserved; the cross-destination reordering is accepted and is
        validated empirically by the byte-identical ``results/`` check.

        Deliveries are scheduled through the queue's first-class
        ``schedule_message`` API, whose signature is exactly the network's
        ``deliver`` callback.
        """
        network = self.network
        schedule_message = self.queue.schedule_message
        now = self.now
        if len(envelopes) == 1:
            sender, destination, message = envelopes[0]
            network.transmit(sender, destination, message, now, schedule_message)
            return
        groups: Dict[Tuple[int, int], List[object]] = {}
        for sender, destination, message in envelopes:
            key = (sender, destination)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [message]
            else:
                bucket.append(message)
        for (sender, destination), messages in groups.items():
            if len(messages) == 1:
                network.transmit(sender, destination, messages[0], now, schedule_message)
            else:
                network.transmit_batch(sender, destination, messages, now, schedule_message)

    def _drain_process(self, process: ProcessBase) -> None:
        """Route the pending outbox of one process (the only one an event
        handler can have filled)."""
        if process.outbox:
            envelopes = process.outbox
            process.outbox = []
            self.route_envelopes(envelopes)

    def flush_outboxes(self) -> None:
        """Drain every process outbox into the network."""
        for process in self.processes.values():
            self._drain_process(process)

    # -- main loop ----------------------------------------------------------------

    def run(self, until: float, max_events: int = 5_000_000) -> SimulationStats:
        """Run the simulation up to time ``until``, or until ``max_events``
        events have been processed in all."""
        # The loop allocates millions of short-lived objects (events,
        # envelopes, messages); pausing the cyclic collector for the run
        # avoids thousands of pointless generational passes.  Refcounting
        # still frees everything promptly — the collector only exists for
        # reference cycles, which the protocols do not create per event.
        collector_was_enabled = gc.isenabled()
        if collector_was_enabled:
            gc.disable()
        try:
            self._run_loop(until, max_events)
        finally:
            if collector_was_enabled:
                gc.enable()
        stats = self.stats
        stats.end_time = self.now
        return stats

    def _run_loop(self, horizon: float, max_events: int) -> None:
        """Drain timestamp lanes up to ``horizon`` or the event budget."""
        queue = self.queue
        pop_lane = queue.pop_lane
        stats = self.stats
        processes = self.processes
        external = self.external_endpoints
        route_envelopes = self.route_envelopes
        dispatch = self._dispatch
        message_kind = _MESSAGE
        events_processed = stats.events_processed
        while events_processed < max_events:
            popped = pop_lane(horizon)
            if popped is None:
                break
            time, lane = popped
            self.now = time
            overflow = None
            if len(lane) > max_events - events_processed:
                # Rare: the event budget ends mid-lane.  Trim the tail so the
                # cutoff is exact, and put it back afterwards.
                overflow = deque()
                budget = max_events - events_processed
                while len(lane) > budget:
                    overflow.appendleft(lane.pop())
            events_processed += len(lane)
            for event in lane:
                _, kind, target, payload, sender = event
                if kind is message_kind:
                    # Count logical messages, not delivery events: an MBatch
                    # is one event carrying several messages.
                    count = len(payload.messages) if type(payload) is MBatch else 1
                    stats.messages_delivered += count
                    process = processes.get(target)
                    if process is not None:
                        process.deliver(sender, payload, time)
                        if process.outbox:
                            envelopes = process.outbox
                            process.outbox = []
                            route_envelopes(envelopes)
                    else:
                        handler = external.get(target)
                        if handler is not None:
                            if type(payload) is MBatch:
                                for message in payload.messages:
                                    handler(sender, message, time)
                            else:
                                handler(sender, payload, time)
                            self.flush_outboxes()
                else:
                    dispatch[kind](target, payload)
            if overflow:
                queue.requeue_lane(time, overflow)
        stats.events_processed = events_processed

    # -- event handlers --------------------------------------------------------------

    def _handle_tick_event(self, target: int, payload: object) -> None:
        """One fused tick: walk every process, then schedule the next tick.

        The walk order is the process-insertion order, which is exactly the
        order the pre-fusion per-process TICK events popped in; ``stats.ticks``
        still counts one tick per process per interval.
        """
        processes = self.processes
        self.queue.push(self.now + ProtocolConfig.tick_interval, _TICK)
        self.stats.ticks += len(processes)
        now = self.now
        for process in processes.values():
            if process.alive:
                process.tick(now)
                if process.outbox:
                    envelopes = process.outbox
                    process.outbox = []
                    self.route_envelopes(envelopes)

    def _handle_client_event(self, process_id: int, command: object) -> None:
        process = self.processes.get(process_id)
        if process is None or not process.alive:
            return
        process.submit(command, self.now)
        self._drain_process(process)

    def _handle_custom_event(self, target: int, callback) -> None:
        callback(self.now)
        self.flush_outboxes()
