"""Simulated wide-area network.

The network delivers messages between processes (and clients) with one-way
latencies taken from a :class:`repro.simulator.latency.LatencyMatrix`.
Crashed processes silently drop incoming messages (crash-stop model).

Noise and loss are per-link fault state installed by ``repro.faults``: a
bidirectional site partition, per-link degradation windows (added delay,
jitter, probabilistic drop) and message-class-targeted loss.  All fault
randomness draws from a dedicated :attr:`Network.fault_rng` stream split off
the main RNG's seed, so a healthy run is bit-identical with and without the
fault machinery, and activating a fault never shifts workload randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.core.base import MBatch
from repro.simulator.latency import LatencyMatrix
from repro.simulator.rng import SeededRng


@dataclass
class LinkDegradation:
    """Active degradation of one site-to-site link (a flaky-link window).

    Installed by :meth:`Network.degrade_link`; all randomness (drop draws,
    jitter draws) comes from the network's dedicated fault RNG stream, never
    from the main RNG, so degrading one link cannot shift the randomness of
    anything else in the run.
    """

    extra_delay_ms: float = 0.0
    jitter_ms: float = 0.0
    drop_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.extra_delay_ms < 0 or self.jitter_ms < 0:
            raise ValueError("degradation delay/jitter must be non-negative")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")


@dataclass
class TargetedLoss:
    """Active message-class-targeted loss (e.g. cross-partition MStable).

    ``cross_group_only`` restricts the loss to messages whose endpoints
    carry *different* group tags (see :meth:`Network.set_group`; the cluster
    runner tags each process with its shard, so this expresses "only the
    cross-shard copies").
    """

    probability: float = 1.0
    cross_group_only: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")


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
        self._crashed: Set[int] = set()
        #: Fault-injection state, all empty on a healthy network.  The hot
        #: path tests the single ``_faults_active`` flag; the per-message
        #: fault work only runs while at least one fault is installed.
        self._partition_of: Dict[str, int] = {}
        self._degraded: Dict[Tuple[str, str], LinkDegradation] = {}
        self._targeted: Dict[str, TargetedLoss] = {}
        self._group_of: Dict[int, int] = {}
        self._faults_active = False
        self.stats = NetworkStats()
        #: Cache of ``(sender, destination) -> base one-way delay`` pairs;
        #: invalidated when an endpoint is (re)placed.
        self._delay_cache: Dict[Tuple[int, int], float] = {}
        #: Cache of message type -> (kind name, size function or None).
        self._type_info: Dict[type, Tuple[str, Optional[Callable[[object], int]]]] = {}

    # -- topology -------------------------------------------------------------

    def place(self, endpoint: int, site: str) -> None:
        """Place an endpoint (process or client) at a site."""
        if site not in self.latency_matrix.sites:
            raise KeyError(f"unknown site {site!r}")
        self._site_of[endpoint] = site
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

    def set_group(self, endpoint: int, group: int) -> None:
        """Tag an endpoint with a replica-group id (the cluster runner uses
        the protocol partition/shard).  Only consulted by targeted loss
        rules with ``cross_group_only``."""
        self._group_of[endpoint] = group

    # -- fault injection (partitions, flaky links, targeted loss) -------------

    def _refresh_faults_active(self) -> None:
        self._faults_active = bool(
            self._partition_of or self._degraded or self._targeted
        )

    def set_partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Install a bidirectional network partition between site groups.

        Messages between sites in *different* groups are dropped; sites not
        listed in any group reach (and are reached by) everyone.  Replaces
        any previously installed partition.
        """
        partition_of: Dict[str, int] = {}
        for group_id, group in enumerate(groups):
            for site in group:
                if site not in self.latency_matrix.sites:
                    raise KeyError(f"unknown site {site!r}")
                if site in partition_of:
                    raise ValueError(f"site {site!r} appears in two groups")
                partition_of[site] = group_id
        self._partition_of = partition_of
        self._refresh_faults_active()

    def clear_partition(self) -> None:
        """Heal the installed partition (links deliver again; messages
        dropped while it was up stay lost — fair-lossy links)."""
        self._partition_of = {}
        self._refresh_faults_active()

    @staticmethod
    def _link_key(site_a: str, site_b: str) -> Tuple[str, str]:
        return (site_a, site_b) if site_a <= site_b else (site_b, site_a)

    def degrade_link(
        self, site_a: str, site_b: str, degradation: LinkDegradation
    ) -> None:
        """Install a bidirectional degradation window on one link."""
        for site in (site_a, site_b):
            if site not in self.latency_matrix.sites:
                raise KeyError(f"unknown site {site!r}")
        if site_a == site_b:
            raise ValueError("cannot degrade a site's local link")
        self._degraded[self._link_key(site_a, site_b)] = degradation
        self._refresh_faults_active()

    def restore_link(self, site_a: str, site_b: str) -> None:
        """Remove the degradation installed on one link (end of window)."""
        self._degraded.pop(self._link_key(site_a, site_b), None)
        self._refresh_faults_active()

    def set_targeted_loss(self, kind: str, loss: TargetedLoss) -> None:
        """Drop messages of one kind (class name) with a probability."""
        self._targeted[kind] = loss
        self._refresh_faults_active()

    def clear_targeted_loss(self, kind: str) -> None:
        """Remove the targeted loss rule for one message kind."""
        self._targeted.pop(kind, None)
        self._refresh_faults_active()

    def _fault_verdict(
        self, sender: int, destination: int, kind: str
    ) -> Optional[float]:
        """Fault-injection outcome for one message on an active-fault
        network: ``None`` when a fault drops it, otherwise the extra delay
        (0.0 for unaffected links).  Only called while ``_faults_active``;
        all randomness comes from :attr:`fault_rng`.
        """
        site_a = self._site_of[sender]
        site_b = self._site_of[destination]
        partition_of = self._partition_of
        if partition_of:
            group_a = partition_of.get(site_a)
            group_b = partition_of.get(site_b)
            if group_a is not None and group_b is not None and group_a != group_b:
                return None
        targeted = self._targeted
        if targeted:
            loss = targeted.get(kind)
            if loss is not None:
                groups = self._group_of
                if not loss.cross_group_only or (
                    groups.get(sender) is not None
                    and groups.get(destination) is not None
                    and groups[sender] != groups[destination]
                ):
                    if (
                        loss.probability >= 1.0
                        or self.fault_rng.uniform() < loss.probability
                    ):
                        return None
        if self._degraded and site_a != site_b:
            degradation = self._degraded.get(self._link_key(site_a, site_b))
            if degradation is not None:
                if (
                    degradation.drop_probability
                    and self.fault_rng.uniform() < degradation.drop_probability
                ):
                    return None
                extra = degradation.extra_delay_ms
                if degradation.jitter_ms:
                    extra += self.fault_rng.uniform_between(
                        0.0, degradation.jitter_ms
                    )
                return extra
        return 0.0

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

    def _count_message(self, message: object) -> None:
        """Account for one logical message in the stats counters."""
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
        # Inline of :meth:`_count_message`: single-message transmits are the
        # bulk of the simulator's network traffic and the extra call frame
        # is measurable.
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
        if self._faults_active:
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

        Stats and crash handling are applied per inner message, in order,
        exactly as ``len(messages)`` calls to :meth:`transmit` would.  On a
        healthy network all messages share one delivery time, so they are
        delivered as a single :class:`repro.core.base.MBatch` — one
        simulator event instead of one per message.  While a fault is
        installed each message gets its own verdict (a degraded link draws
        its drop and its delay per message) and its own delivery,
        preserving the unbatched behaviour bit for bit.  Returns the batch
        delivery time (``None`` when the destination has crashed or faults
        forced the per-message path).
        """
        if not messages:
            return None
        stats = self.stats
        if destination in self._crashed:
            for message in messages:
                self._count_message(message)
            stats.messages_dropped += len(messages)
            return None
        if self._faults_active:
            base = self._base_delay(sender, destination)
            for message in messages:
                self._count_message(message)
                kind = self._type_info[message.__class__][0]
                extra = self._fault_verdict(sender, destination, kind)
                if extra is None:
                    stats.messages_dropped += 1
                    continue
                deliver(now + base + extra, sender, destination, message)
                stats.messages_delivered += 1
                stats.deliveries += 1
            return None
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
