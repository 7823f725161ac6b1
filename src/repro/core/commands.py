"""Commands and the key-based conflict relation.

A command is an operation on the replicated key-value store.  Each key
belongs to exactly one partition; the set of partitions a command accesses is
derived from the keys it touches.  Two commands *conflict* when they access a
common key (the paper's microbenchmark notion of conflict, §6.2).

Tempo itself does not distinguish reads from writes (§3.3), but the baseline
protocols (EPaxos/Atlas/Janus*) do, so commands carry per-key operations with
a read/write kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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

    def has_write(self) -> bool:
        return any(op.is_write() for op in self.ops)

    def conflicts_with(self, other: "Command") -> bool:
        """Key-based conflict relation used throughout the evaluation.

        Two commands conflict when they access a common key.  This is the
        conflict notion Tempo and all baselines are driven with in §6; the
        read/write refinement (reads do not conflict with reads) is applied
        only by the dependency-based baselines and is exposed through
        :meth:`interferes_with`.
        """
        return bool(self.keys & other.keys)

    def interferes_with(self, other: "Command") -> bool:
        """Read/write-aware conflict relation (EPaxos-style).

        Two commands interfere when they access a common key and at least
        one of them writes it.
        """
        shared = self.keys & other.keys
        if not shared:
            return False
        for key in shared:
            mine = [op for op in self.ops if op.key == key]
            theirs = [op for op in other.ops if op.key == key]
            if any(op.is_write() for op in mine) or any(op.is_write() for op in theirs):
                return True
        return False

    def partitions(self, partitioner: "Partitioner") -> FrozenSet[int]:
        """Partitions accessed by this command under ``partitioner``."""
        return frozenset(partitioner.partition_of(key) for key in self.keys)


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
        # Stable, platform-independent hash so simulations are reproducible.
        digest = 0
        for ch in key:
            digest = (digest * 131 + ord(ch)) % (2**31)
        return digest % self.num_partitions

    def assign(self, key: str, partition: int) -> None:
        """Pin ``key`` to ``partition`` explicitly."""
        if not 0 <= partition < self.num_partitions:
            raise ValueError("partition out of range")
        self._explicit[key] = partition


@dataclass
class KeyGenerator:
    """Generates keys according to the microbenchmark access pattern (§6.2).

    A client chooses the shared key ``conflict_key`` with probability
    ``conflict_rate`` and a unique private key otherwise, so that two
    commands from different clients conflict with probability roughly
    ``conflict_rate**2``... actually with probability ``conflict_rate`` of
    hitting the hot key each; this mirrors the paper's workload definition:
    "a client chooses key 0 with probability rho, and some unique key
    otherwise".
    """

    client_id: int
    conflict_rate: float = 0.02
    conflict_key: str = "key-0"
    _counter: int = field(default=0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.conflict_rate <= 1.0:
            raise ValueError("conflict_rate must be within [0, 1]")

    def next_key(self, uniform: float) -> str:
        """Return the next key given a uniform random draw in [0, 1)."""
        if uniform < self.conflict_rate:
            return self.conflict_key
        self._counter += 1
        return f"key-c{self.client_id}-{self._counter}"
