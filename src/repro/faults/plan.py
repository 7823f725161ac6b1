"""The declarative fault-plan schema.

A :class:`FaultPlan` is a validated timeline of typed fault events.  Events
name replicas by ``(site_rank, shard)`` and links by site rank, the
deployment-independent coordinates of the cluster layer, so one plan can be
replayed against any deployment with enough sites/shards.  The events are
the only fault vocabulary: the simulator starts and ends each one at its
simulated times (``Simulation.schedule_faults``) and the network reads the
active window events themselves (``Network.start_fault``), so what a
window does is defined once, here.

Injected faults follow the crash-failure model in a message-passing system
(cf. "From Byzantine Failures to Crash Failures in Message-Passing
Systems"): processes fail by stopping, links lose or delay messages but
never corrupt them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union


@dataclass(frozen=True)
class Crash:
    """Crash-stop the replica of ``shard`` at site rank ``site_rank``."""

    at_ms: float
    site_rank: int
    shard: int = 0

    def validate(self, num_sites: int, num_shards: int) -> None:
        if self.at_ms <= 0:
            raise ValueError("Crash.at_ms must be positive")
        _check_rank(self.site_rank, num_sites)
        _check_shard(self.shard, num_shards)


@dataclass(frozen=True)
class Restart:
    """Restart a previously crashed replica with its durable state.

    The paper assumes crash-stop failures; a restart models the
    crash-recovery variant where the replica returns holding the protocol
    state it had at the crash (as if persisted to stable storage) and the
    failure detectors flip it back to alive.  In-flight messages lost while
    it was down stay lost.
    """

    at_ms: float
    site_rank: int
    shard: int = 0

    def validate(self, num_sites: int, num_shards: int) -> None:
        if self.at_ms <= 0:
            raise ValueError("Restart.at_ms must be positive")
        _check_rank(self.site_rank, num_sites)
        _check_shard(self.shard, num_shards)


@dataclass(frozen=True)
class Partition:
    """Bidirectional network partition between site groups, then heal.

    ``groups`` lists disjoint groups of site ranks; messages between sites
    in different groups are dropped from ``at_ms`` until ``heal_at_ms``.
    Sites not listed in any group keep full connectivity.  Messages dropped
    while the partition is up stay lost (fair-lossy links) — liveness after
    the heal relies on the protocols' retransmission/recovery machinery.
    """

    at_ms: float
    heal_at_ms: float
    groups: Tuple[Tuple[int, ...], ...]

    def __init__(
        self,
        at_ms: float,
        heal_at_ms: float,
        groups: Iterable[Iterable[int]],
    ) -> None:
        object.__setattr__(self, "at_ms", at_ms)
        object.__setattr__(self, "heal_at_ms", heal_at_ms)
        object.__setattr__(
            self, "groups", tuple(tuple(group) for group in groups)
        )

    def validate(self, num_sites: int, num_shards: int) -> None:
        if self.at_ms <= 0:
            raise ValueError("Partition.at_ms must be positive")
        if self.heal_at_ms <= self.at_ms:
            raise ValueError("Partition.heal_at_ms must be after at_ms")
        if len(self.groups) < 2:
            raise ValueError("Partition needs at least two groups")
        seen = set()
        for group in self.groups:
            for rank in group:
                _check_rank(rank, num_sites)
                if rank in seen:
                    raise ValueError(f"site rank {rank} appears in two groups")
                seen.add(rank)

    @property
    def until_ms(self) -> float:
        """End of the window: the heal."""
        return self.heal_at_ms

    def separates(self, rank_a: int, rank_b: int) -> bool:
        """Whether messages between the two site ranks are dropped: both
        sites are listed, in different groups."""
        group_a = group_b = None
        for index, group in enumerate(self.groups):
            if rank_a in group:
                group_a = index
            if rank_b in group:
                group_b = index
        return group_a is not None and group_b is not None and group_a != group_b


@dataclass(frozen=True)
class FlakyLink:
    """Degradation window on one link (or a whole site, or every link).

    Between ``at_ms`` and ``until_ms``, messages crossing the selected
    site-to-site link(s) gain ``extra_delay_ms`` plus a uniform jitter draw
    in ``[0, jitter_ms)`` and are dropped with ``drop_probability``.  With
    ``site_b=None`` every link touching ``site_a`` degrades; with
    ``site_a=None`` (and ``site_b=None``) every cross-site link does —
    the sustained-loss shape.  All randomness draws from the network's
    dedicated fault RNG stream.
    """

    at_ms: float
    until_ms: float
    site_a: Optional[int] = None
    site_b: Optional[int] = None
    extra_delay_ms: float = 0.0
    jitter_ms: float = 0.0
    drop_probability: float = 0.0

    def validate(self, num_sites: int, num_shards: int) -> None:
        if self.at_ms <= 0:
            raise ValueError("FlakyLink.at_ms must be positive")
        if self.until_ms <= self.at_ms:
            raise ValueError("FlakyLink.until_ms must be after at_ms")
        if self.site_a is None and self.site_b is not None:
            raise ValueError("FlakyLink.site_b requires site_a")
        for rank in (self.site_a, self.site_b):
            if rank is not None:
                _check_rank(rank, num_sites)
        if self.site_a is not None and self.site_a == self.site_b:
            raise ValueError("FlakyLink needs two distinct sites")
        if self.extra_delay_ms < 0 or self.jitter_ms < 0:
            raise ValueError("FlakyLink delay/jitter must be non-negative")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("FlakyLink.drop_probability must be in [0, 1]")
        if (
            self.extra_delay_ms == 0
            and self.jitter_ms == 0
            and self.drop_probability == 0
        ):
            raise ValueError("FlakyLink degrades nothing")

    def covers(self, rank_a: int, rank_b: int) -> bool:
        """Whether the window degrades the link between two distinct site
        ranks (in either direction)."""
        if self.site_a is None:
            return True
        if self.site_b is None:
            return self.site_a in (rank_a, rank_b)
        return {rank_a, rank_b} == {self.site_a, self.site_b}


@dataclass(frozen=True)
class TargetedLoss:
    """Message-class-targeted loss window (e.g. cross-partition MStable).

    Between ``at_ms`` and ``until_ms``, messages whose class name is
    ``kind`` are dropped with ``probability``.  ``cross_shard_only``
    restricts the loss to messages between processes of *different*
    protocol partitions (shards) — the multi-shard stability notifications
    the paper's happy-path figures never lose.
    """

    at_ms: float
    until_ms: float
    kind: str
    probability: float = 1.0
    cross_shard_only: bool = False

    def validate(self, num_sites: int, num_shards: int) -> None:
        if self.at_ms <= 0:
            raise ValueError("TargetedLoss.at_ms must be positive")
        if self.until_ms <= self.at_ms:
            raise ValueError("TargetedLoss.until_ms must be after at_ms")
        if not self.kind:
            raise ValueError("TargetedLoss.kind must be a message class name")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("TargetedLoss.probability must be in (0, 1]")
        if self.cross_shard_only and num_shards < 2:
            raise ValueError(
                "TargetedLoss.cross_shard_only needs a multi-shard deployment"
            )


FaultEvent = Union[Crash, Restart, Partition, FlakyLink, TargetedLoss]


def _check_rank(rank: int, num_sites: int) -> None:
    if not 0 <= rank < num_sites:
        raise ValueError(f"site rank {rank} out of range (num_sites={num_sites})")


def _check_shard(shard: int, num_shards: int) -> None:
    if not 0 <= shard < num_shards:
        raise ValueError(f"shard {shard} out of range (num_shards={num_shards})")


@dataclass(frozen=True)
class FaultPlan:
    """A validated timeline of fault events, sorted by activation time.

    The sort is stable, so events sharing one ``at_ms`` keep their given
    order; the simulator schedules them in timeline order, which its FIFO
    timestamp lanes preserve exactly.
    """

    events: Tuple[FaultEvent, ...]

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        # Tolerate non-events here so validate() gets to raise its
        # descriptive TypeError instead of the sort key blowing up.
        ordered = sorted(events, key=lambda event: getattr(event, "at_ms", 0.0))
        object.__setattr__(self, "events", tuple(ordered))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def validate(self, num_sites: int, num_shards: int) -> "FaultPlan":
        """Check every event against the deployment shape; returns self."""
        for event in self.events:
            if not hasattr(event, "validate"):
                raise TypeError(f"not a fault event: {event!r}")
            event.validate(num_sites, num_shards)
        return self
