"""Shared pytest fixtures and helpers for the Tempo reproduction test suite."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import pytest

from repro.cluster.replicas import build_replicas
from repro.core.commands import Command, Partitioner
from repro.core.config import ProtocolConfig
from repro.core.process import TempoProcess
from repro.kvstore.store import KeyValueStore
from repro.simulator.inline import InlineNetwork


class TempoCluster:
    """A small helper wrapping a set of Tempo processes plus an inline
    network, used throughout the unit tests."""

    def __init__(
        self,
        num_processes: int = 3,
        faults: int = 1,
        num_partitions: int = 1,
        partitioner: Optional[Partitioner] = None,
        latencies=None,
    ) -> None:
        self.config = ProtocolConfig(
            num_processes=num_processes,
            faults=faults,
            num_partitions=num_partitions,
        )
        replicas = build_replicas(
            "tempo", self.config, partitioner=partitioner, latencies=latencies
        )
        self.stores: Dict[int, KeyValueStore] = replicas.stores
        self.processes: List[TempoProcess] = replicas.processes
        self.network = InlineNetwork(self.processes)

    def process(self, process_id: int) -> TempoProcess:
        return self.network.processes[process_id]

    def submit(self, process_id: int, keys: Sequence[str], now: float = 0.0) -> Command:
        process = self.process(process_id)
        command = process.new_command(keys)
        process.submit(command, now)
        return command

    def run(self, now: float = 0.0) -> None:
        self.network.run(now)

    def settle(self, now: float = 0.0, rounds: int = 10) -> None:
        self.network.settle(now, rounds)

    def executed_everywhere(self, dot) -> bool:
        relevant = [
            process
            for process in self.processes
            if process.partition in self._partitions_of_dot(dot)
        ]
        return all(dot in process.executed_dots() for process in relevant)

    def _partitions_of_dot(self, dot) -> set:
        for process in self.processes:
            record = process._info.get(dot)
            if record is not None and record.quorums:
                return set(record.quorums)
        return set(range(self.config.num_partitions))


@pytest.fixture
def cluster_3() -> TempoCluster:
    """Three processes, one partition, f = 1."""
    return TempoCluster(num_processes=3, faults=1)


@pytest.fixture
def cluster_5_f1() -> TempoCluster:
    """Five processes, one partition, f = 1."""
    return TempoCluster(num_processes=5, faults=1)


@pytest.fixture
def cluster_5_f2() -> TempoCluster:
    """Five processes, one partition, f = 2."""
    return TempoCluster(num_processes=5, faults=2)


@pytest.fixture
def cluster_2x3():
    """Two partitions, three processes each, f = 1, with explicit keys.

    Keys ``p0-*`` map to partition 0 and ``p1-*`` to partition 1.
    """
    partitioner = Partitioner(
        num_partitions=2,
        explicit={},
    )

    class _PrefixPartitioner(Partitioner):
        def __init__(self) -> None:
            super().__init__(num_partitions=2)

        def partition_of(self, key: str) -> int:
            return 1 if key.startswith("p1") else 0

    return TempoCluster(
        num_processes=3, faults=1, num_partitions=2, partitioner=_PrefixPartitioner()
    )
