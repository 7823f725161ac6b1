"""Commands and the key-based conflict relation.

A command is an operation on the replicated key-value store.  Each key
belongs to exactly one partition; the set of partitions a command accesses is
derived from the keys it touches.  Two commands *conflict* when they access a
common key (the paper's microbenchmark notion of conflict, §6.2).  The
baselines apply the relation through their per-key state
(:class:`~repro.protocols.dependency.KeyConflicts`); Tempo keeps no per-key
state at all: one scalar clock per process
(:class:`~repro.core.stability.TimestampOrder`) orders every command of its
partition, conflicting or not (one clock per key is ROADMAP item 15).

Tempo itself does not distinguish reads from writes (§3.3), but the baseline
protocols (EPaxos/Atlas/Janus*) do, so commands carry per-key operations with
a read/write kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.core.identifiers import Dot


class OpKind(enum.Enum):
    """Kind of a single-key operation."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class KeyOp:
    """A single-key operation inside a command."""

    key: str
    kind: OpKind = OpKind.WRITE
    value: Optional[str] = None

    def is_write(self) -> bool:
        return self.kind is OpKind.WRITE

    def is_read(self) -> bool:
        return self.kind is OpKind.READ


@dataclass(frozen=True)
class Command:
    """A client command, possibly spanning several partitions.

    Attributes:
        dot: unique identifier of the command.
        ops: per-key operations, keyed by key name.
        payload_size: size in bytes of the payload carried by the command
            (used by the resource/throughput model; the microbenchmark uses
            100 B or 4 KB payloads, §6.2).
        client_id: identifier of the submitting client, if any.
        links: ``(partition, previous)`` pairs, ascending by partition: for
            an accessed partition, the sequence of the last command the
            same source minted over it (0 for none), stated only where it
            is not ``dot.sequence - 1`` (:meth:`previous`).
    """

    dot: Dot
    ops: Tuple[KeyOp, ...]
    payload_size: int = 100
    client_id: Optional[int] = None
    links: Tuple[Tuple[int, int], ...] = ()

    _DIGEST_EXEMPT = frozenset({"_keys", "_read_only"})  # caches of ops

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("a command must access at least one key")
        if self.payload_size < 0:
            raise ValueError("payload_size must be non-negative")
        # Both are immutable functions of ``ops`` and sit on the conflict-
        # computation hot path of every dependency-based protocol.
        object.__setattr__(
            self, "_keys", frozenset(op.key for op in self.ops)
        )
        object.__setattr__(
            self, "_read_only", all(op.is_read() for op in self.ops)
        )

    @classmethod
    def write(
        cls,
        dot: Dot,
        keys: Iterable[str],
        payload_size: int = 100,
        client_id: Optional[int] = None,
        links: Tuple[Tuple[int, int], ...] = (),
    ) -> "Command":
        """Build a write command over ``keys``."""
        ops = tuple(KeyOp(key=k, kind=OpKind.WRITE, value=str(dot)) for k in keys)
        return cls(dot, ops, payload_size=payload_size, client_id=client_id, links=links)

    @classmethod
    def read(
        cls,
        dot: Dot,
        keys: Iterable[str],
        payload_size: int = 100,
        client_id: Optional[int] = None,
        links: Tuple[Tuple[int, int], ...] = (),
    ) -> "Command":
        """Build a read command over ``keys``."""
        ops = tuple(KeyOp(key=k, kind=OpKind.READ) for k in keys)
        return cls(dot, ops, payload_size=payload_size, client_id=client_id, links=links)

    def previous(self, partition: int) -> int:
        """Sequence of the last command this command's source minted over
        ``partition`` before it: the predecessor in the source's chain of
        dots at that partition (``repro.core.gc``)."""
        for linked, previous in self.links:
            if linked == partition:
                return previous
        return self.dot.sequence - 1

    @property
    def keys(self) -> FrozenSet[str]:
        """Set of keys this command accesses."""
        return self._keys

    def is_read_only(self) -> bool:
        """True when every operation of the command is a read."""
        return self._read_only

    def partitions(self, partitioner: "Partitioner") -> FrozenSet[int]:
        """Partitions accessed by this command under ``partitioner``."""
        return frozenset(partitioner.partition_of(key) for key in self.keys)


def stable_hash(key: str) -> int:
    """Stable, platform-independent string hash, so simulations are
    reproducible."""
    digest = 0
    for ch in key:
        digest = (digest * 131 + ord(ch)) % (2**31)
    return digest


class Partitioner:
    """Maps keys onto partitions.

    The paper assumes the service state is divided into partitions, each
    variable belonging to exactly one partition (§2).  The default mapping
    hashes keys onto ``num_partitions`` buckets; an explicit mapping can be
    supplied for fine-grained control in tests and experiments.
    """

    def __init__(
        self,
        num_partitions: int = 1,
        explicit: Optional[Mapping[str, int]] = None,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        self._explicit: Dict[str, int] = dict(explicit or {})
        for key, partition in self._explicit.items():
            if not 0 <= partition < num_partitions:
                raise ValueError(
                    f"explicit mapping for key {key!r} targets partition "
                    f"{partition}, outside [0, {num_partitions})"
                )

    def partition_of(self, key: str) -> int:
        """Partition the given key belongs to."""
        if key in self._explicit:
            return self._explicit[key]
        if self.num_partitions == 1:
            return 0
        return stable_hash(key) % self.num_partitions

    def assign(self, key: str, partition: int) -> None:
        """Pin ``key`` to ``partition`` explicitly."""
        if not 0 <= partition < self.num_partitions:
            raise ValueError("partition out of range")
        self._explicit[key] = partition
