"""Protocol configuration shared by Tempo and the baseline protocols.

The configuration captures the replication factor ``r`` per partition, the
tolerated number of failures ``f`` (following Flexible Paxos,
``1 <= f <= floor((r - 1) / 2)``) and the number of partitions/shards; the
timer periods every deployment runs with (``tick_interval``, the one tick of
both engines, ``recovery_timeout`` and ``gc_interval``) are class constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List


@dataclass(frozen=True)
class ProtocolConfig:
    """Static configuration for a replicated deployment.

    Attributes:
        num_processes: total number of processes per partition (``r``).
        faults: number of tolerated failures per partition (``f``).
        num_partitions: number of partitions of the service state.
    """

    num_processes: int = 3
    faults: int = 1
    num_partitions: int = 1

    #: Period (milliseconds) of every process's tick, in the simulator and
    #: the asyncio runtime alike.  It is Tempo's promise cadence: each tick
    #: broadcasts pending promises and runs the stability check (Algorithm
    #: 2, lines 44 and 49).
    tick_interval: ClassVar[float] = 5.0
    #: How long (milliseconds) a pending command may stay un-committed
    #: before a process attempts recovery.
    recovery_timeout: ClassVar[float] = 500.0
    #: How often (milliseconds) a process announces its executed-watermark
    #: clock to its partition peers.  Collection latency only bounds the
    #: live-record window, so this runs slower than the promise cadence to
    #: keep the periodic traffic small.
    gc_interval: ClassVar[float] = 25.0

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("num_processes must be >= 1")
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        max_f = (self.num_processes - 1) // 2
        if not 1 <= self.faults <= max(max_f, 1):
            raise ValueError(
                f"faults must satisfy 1 <= f <= floor((r-1)/2) = {max_f} "
                f"for r = {self.num_processes}; got {self.faults}"
            )
        if self.faults > max_f and self.num_processes > 1:
            raise ValueError("faults too large for the replication factor")

    # -- derived quantities -------------------------------------------------

    @property
    def majority(self) -> int:
        """Size of a simple majority: ``floor(r/2) + 1``."""
        return self.num_processes // 2 + 1

    @property
    def fast_quorum_size(self) -> int:
        """Tempo/Atlas fast quorum size: ``floor(r/2) + f``."""
        return self.num_processes // 2 + self.faults

    @property
    def slow_quorum_size(self) -> int:
        """Flexible-Paxos phase-2 quorum size: ``f + 1``."""
        return self.faults + 1

    @property
    def recovery_quorum_size(self) -> int:
        """Flexible-Paxos phase-1 (recovery) quorum size: ``r - f``."""
        return self.num_processes - self.faults

    @property
    def epaxos_fast_quorum_size(self) -> int:
        """EPaxos fast quorum size: ``floor(3r/4)``, never below a majority
        (§6)."""
        return max((3 * self.num_processes) // 4, self.majority)

    @property
    def caesar_fast_quorum_size(self) -> int:
        """Caesar fast quorum size: ``ceil(3r/4)`` (§6)."""
        return -((-3 * self.num_processes) // 4)

    def total_processes(self) -> int:
        """Total number of processes across all partitions."""
        return self.num_processes * self.num_partitions

    def processes_of_partition(self, partition: int) -> List[int]:
        """Global process identifiers replicating ``partition``.

        Processes are numbered so that partition ``p`` is replicated by
        processes ``p * r .. p * r + r - 1``.
        """
        if not 0 <= partition < self.num_partitions:
            raise ValueError(f"partition {partition} out of range")
        start = partition * self.num_processes
        return list(range(start, start + self.num_processes))

    def partition_of_process(self, process: int) -> int:
        """Partition replicated by global process ``process``."""
        if not 0 <= process < self.total_processes():
            raise ValueError(f"process {process} out of range")
        return process // self.num_processes

    def rank_in_partition(self, process: int) -> int:
        """Index of ``process`` within its partition (0..r-1)."""
        return process % self.num_processes

    def site_of_process(self, process: int) -> int:
        """Site (region) hosting ``process``.

        Processes with the same rank across partitions are co-located at the
        same site, mirroring the paper's deployment where one machine per
        region hosts one replica of every shard.
        """
        return self.rank_in_partition(process)
