"""Simulated wide-area network.

The network delivers messages between processes (and clients) with one-way
latencies taken from a :class:`repro.simulator.latency.LatencyMatrix`.
Crashed processes silently drop incoming messages (crash-stop model).

Noise and loss exist only as fault state: the window events of a
:class:`repro.faults.FaultPlan` (:class:`~repro.faults.plan.Partition`,
:class:`~repro.faults.plan.FlakyLink`,
:class:`~repro.faults.plan.TargetedLoss`) the simulator has started and not
yet ended.  Plan events name sites by rank, a site's index in
``latency_matrix.sites``.  All fault randomness draws from a dedicated
:attr:`Network.fault_rng` stream split off the main RNG's seed, so a
healthy run is bit-identical with and without the fault machinery, and
activating a fault never shifts workload randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.base import MBatch
from repro.faults.plan import FlakyLink, Partition, TargetedLoss
from repro.simulator.latency import LatencyMatrix
from repro.simulator.rng import SeededRng

#: A plan event the network applies while it is active.
WindowEvent = Union[Partition, FlakyLink, TargetedLoss]


@dataclass
class NetworkStats:
    """Counters maintained by the network."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    #: Number of multi-message deliveries produced by :meth:`transmit_batch`.
    #: All per-message counters above count the *inner* messages, so batching
    #: never changes them.
    batches_sent: int = 0
    #: Number of delivery events (an ``MBatch`` of any size counts once):
    #: ``messages_delivered / deliveries`` is the measured MBatch coalescing
    #: factor; the benchmarks' traffic log reports ``deliveries``.
    deliveries: int = 0
    per_kind: Dict[str, int] = field(default_factory=dict)


class Network:
    """Latency-aware message transport between simulation endpoints.

    Endpoints are integers: non-negative identifiers are processes, negative
    identifiers are clients (the cluster layer's convention).  Every endpoint
    is placed at a site; the latency between two endpoints is the matrix's
    site-to-site one-way latency (its diagonal, the intra-site
    :data:`~repro.simulator.latency.DEFAULT_LOCAL_LATENCY`, when co-located).
    """

    def __init__(self, latency: LatencyMatrix, rng: Optional[SeededRng] = None) -> None:
        self.latency_matrix = latency
        self.rng = rng or SeededRng()
        #: Dedicated RNG stream for fault-injection decisions (partition and
        #: flaky-link drops, degradation jitter, targeted loss).  Derived
        #: from the main stream's *seed* — no draws are consumed — so the
        #: two streams are independent: a run that never activates a fault
        #: makes zero fault-stream draws and is bit-identical to one without
        #: the fault machinery at all.
        self.fault_rng = self.rng.fault_stream()
        self._site_of: Dict[int, str] = {}
        #: Site rank and shard of each placed endpoint (clients have no
        #: shard), the coordinates plan events name.
        self._rank_of: Dict[int, int] = {}
        self._shard_of: Dict[int, int] = {}
        self._crashed: Set[int] = set()
        #: The open window events, in the order they started; empty on a
        #: healthy network, so the per-message fault work only runs while
        #: at least one window is open.
        self.active_faults: List[WindowEvent] = []
        self.stats = NetworkStats()
        #: Cache of ``(sender, destination) -> base one-way delay`` pairs;
        #: invalidated when an endpoint is (re)placed.
        self._delay_cache: Dict[Tuple[int, int], float] = {}
        #: Cache of message type -> (kind name, size function or None).
        self._type_info: Dict[type, Tuple[str, Optional[Callable[[object], int]]]] = {}

    # -- topology -------------------------------------------------------------

    def place(self, endpoint: int, site: str, shard: Optional[int] = None) -> None:
        """Place an endpoint at a site; a process also names its shard."""
        sites = self.latency_matrix.sites
        if site not in sites:
            raise KeyError(f"unknown site {site!r}")
        self._site_of[endpoint] = site
        self._rank_of[endpoint] = sites.index(site)
        if shard is not None:
            self._shard_of[endpoint] = shard
        if self._delay_cache:
            self._delay_cache.clear()

    def site_of(self, endpoint: int) -> str:
        """Site hosting ``endpoint``."""
        try:
            return self._site_of[endpoint]
        except KeyError as exc:
            raise KeyError(f"endpoint {endpoint} was never placed") from exc

    def crash(self, endpoint: int) -> None:
        """Mark an endpoint as crashed; messages to it are dropped."""
        self._crashed.add(endpoint)

    def is_crashed(self, endpoint: int) -> bool:
        return endpoint in self._crashed

    def restore(self, endpoint: int) -> None:
        """Un-crash an endpoint (a restarted process receives again)."""
        self._crashed.discard(endpoint)

    # -- fault windows -----------------------------------------------------------

    def start_fault(self, event: WindowEvent) -> None:
        """Open one plan window; it applies until :meth:`end_fault`."""
        self.active_faults.append(event)

    def end_fault(self, event: WindowEvent) -> None:
        """Close one plan window; overlapping windows stay in effect.
        Messages it dropped stay lost (fair-lossy links)."""
        self.active_faults.remove(event)

    def _fault_verdict(
        self, sender: int, destination: int, kind: str
    ) -> Optional[float]:
        """Fault-injection outcome for one message while a window is open:
        ``None`` when a fault drops it, otherwise the extra delay (0.0 for
        unaffected links).  Partitions are checked first, then targeted
        losses, then flaky links; the first drop ends the checks.
        Overlapping windows all apply: their delays add up, and a window
        that opened earlier draws from :attr:`fault_rng` first.
        """
        rank_a = self._rank_of[sender]
        rank_b = self._rank_of[destination]
        active = self.active_faults
        for event in active:
            if type(event) is Partition and event.separates(rank_a, rank_b):
                return None
        for event in active:
            if type(event) is not TargetedLoss or event.kind != kind:
                continue
            if event.cross_shard_only and not self._crosses_shards(sender, destination):
                continue
            if event.probability >= 1.0 or self.fault_rng.uniform() < event.probability:
                return None
        extra = 0.0
        if rank_a != rank_b:
            for event in active:
                if type(event) is FlakyLink and event.covers(rank_a, rank_b):
                    if (
                        event.drop_probability
                        and self.fault_rng.uniform() < event.drop_probability
                    ):
                        return None
                    extra += event.extra_delay_ms
                    if event.jitter_ms:
                        extra += self.fault_rng.uniform_between(0.0, event.jitter_ms)
        return extra

    def _crosses_shards(self, sender: int, destination: int) -> bool:
        """Whether both endpoints are processes of different shards."""
        shard_a = self._shard_of.get(sender)
        shard_b = self._shard_of.get(destination)
        return shard_a is not None and shard_b is not None and shard_a != shard_b

    # -- delivery -------------------------------------------------------------

    def _base_delay(self, sender: int, destination: int) -> float:
        """One-way delay between two endpoints, cached per pair."""
        cached = self._delay_cache.get((sender, destination))
        if cached is not None:
            return cached
        base = self.latency_matrix.latency(
            self.site_of(sender), self.site_of(destination)
        )
        self._delay_cache[(sender, destination)] = base
        return base

    def _resolve_type_info(
        self, message_type: type
    ) -> Tuple[str, Optional[Callable[[object], int]]]:
        """Build and cache the stats metadata for one message type."""
        # Cache the *unbound* class attribute: a bound method would pin
        # the first instance seen for this type.  ``wire_size`` (the
        # per-instance memoised size) is preferred so broadcasts charge the
        # size arithmetic once per message rather than once per destination.
        size = getattr(message_type, "wire_size", None)
        if size is None:
            size = getattr(message_type, "size_bytes", None)
        info = (message_type.__name__, size if callable(size) else None)
        self._type_info[message_type] = info
        return info

    def transmit(
        self,
        sender: int,
        destination: int,
        message: object,
        now: float,
        deliver: Callable[[float, int, int, object], None],
    ) -> Optional[float]:
        """Route one message.

        ``deliver(at, sender, destination, message)`` is invoked (typically
        it schedules a simulator event) unless the message is dropped or the
        destination has crashed.  Returns the delivery time, or ``None`` when
        the message will never arrive.
        """
        stats = self.stats
        stats.messages_sent += 1
        message_type = message.__class__
        type_info = self._type_info.get(message_type)
        if type_info is None:
            type_info = self._resolve_type_info(message_type)
        kind, size_method = type_info
        per_kind = stats.per_kind
        per_kind[kind] = per_kind.get(kind, 0) + 1
        if size_method is not None:
            stats.bytes_sent += int(size_method(message))
        if destination in self._crashed:
            stats.messages_dropped += 1
            return None
        if self.active_faults:
            extra = self._fault_verdict(sender, destination, kind)
            if extra is None:
                stats.messages_dropped += 1
                return None
        else:
            extra = 0.0
        # Read the cached base delay directly, skipping a call frame per
        # message.
        base = self._delay_cache.get((sender, destination))
        if base is None:
            base = self._base_delay(sender, destination)
        at = now + base + extra
        deliver(at, sender, destination, message)
        stats.messages_delivered += 1
        stats.deliveries += 1
        return at

    def transmit_batch(
        self,
        sender: int,
        destination: int,
        messages: Sequence[object],
        now: float,
        deliver: Callable[[float, int, int, object], None],
    ) -> Optional[float]:
        """Route several messages to one destination as one delivery.

        On a healthy network all messages share one delivery time, so they
        are delivered as a single :class:`repro.core.base.MBatch` — one
        simulator event instead of one per message — with the stats that
        ``len(messages)`` calls to :meth:`transmit` would record.  To a
        crashed destination, or while a fault window is open (a degraded
        link draws its drop and its delay per message), the batch goes
        through :meth:`transmit` one message at a time, the unbatched
        behaviour bit for bit.  Returns the batch delivery time (``None``
        when the batch took the per-message path).
        """
        if not messages:
            return None
        if destination in self._crashed or self.active_faults:
            for message in messages:
                self.transmit(sender, destination, message, now, deliver)
            return None
        stats = self.stats
        # Every message survives and shares one delivery, so the
        # per-message stats work collapses to one ``per_kind`` update per
        # *run* of same-type inner messages (outboxes are dominated by
        # broadcast runs of a single kind).  Counter values are identical
        # to ``len(messages)`` calls of :meth:`transmit`.
        count = len(messages)
        per_kind = stats.per_kind
        type_info = self._type_info
        bytes_sent = 0
        index = 0
        while index < count:
            message = messages[index]
            message_type = message.__class__
            info = type_info.get(message_type)
            if info is None:
                info = self._resolve_type_info(message_type)
            kind, size_method = info
            run_end = index + 1
            while run_end < count and messages[run_end].__class__ is message_type:
                run_end += 1
            run_length = run_end - index
            per_kind[kind] = per_kind.get(kind, 0) + run_length
            if size_method is not None:
                for position in range(index, run_end):
                    bytes_sent += int(size_method(messages[position]))
            index = run_end
        stats.messages_sent += count
        stats.bytes_sent += bytes_sent
        at = now + self._base_delay(sender, destination)
        if count == 1:
            deliver(at, sender, destination, messages[0])
        else:
            deliver(at, sender, destination, MBatch(tuple(messages)))
            stats.batches_sent += 1
        stats.messages_delivered += count
        stats.deliveries += 1
        return at
