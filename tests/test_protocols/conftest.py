"""Shared fixtures for the protocol test suite."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.cluster.replicas import build_replicas
from repro.core.config import ProtocolConfig
from repro.kvstore.store import KeyValueStore
from repro.simulator.inline import InlineNetwork


class ProtocolCluster:
    """A full-replication cluster of one protocol on an inline network."""

    def __init__(self, protocol: str, r: int = 5, f: int = 1, **kwargs) -> None:
        self.protocol = protocol
        self.config = ProtocolConfig(num_processes=r, faults=f)
        self.replicas = build_replicas(protocol, self.config, **kwargs)
        self.stores: Dict[int, KeyValueStore] = self.replicas.stores
        self.processes: List = self.replicas.processes
        self.network = InlineNetwork(self.processes)
        self.submitted: List = []

    def submit(self, process_id: int, keys, read_only: bool = False):
        process = self.processes[process_id]
        command = process.new_command(keys, read_only=read_only)
        process.submit(command, 0.0)
        self.submitted.append(command)
        return command

    def settle(self, rounds: int = 15) -> None:
        self.network.settle(rounds=rounds)

    def step(self) -> int:
        return self.network.step(0.0)

    def executed_everywhere(self, command) -> bool:
        return all(
            command.dot in process.executed_dots() for process in self.processes
        )

    def consistent_order(self, commands) -> bool:
        dots = {command.dot for command in commands}
        orders = {
            tuple(dot for dot in process.executed_dots() if dot in dots)
            for process in self.processes
        }
        return len(orders) == 1

    def stores_converged(self) -> bool:
        """Every replica executed every submitted command, every store holds
        every key they wrote, and the stores agree: empty stores agree too,
        so agreement alone shows nothing."""
        written = {op.key for command in self.submitted for op in command.ops if op.is_write()}
        return (
            all(self.executed_everywhere(command) for command in self.submitted)
            and all(written <= set(store.keys()) for store in self.stores.values())
            and self.replicas.stores_agree()
        )


@pytest.fixture
def make_cluster():
    return ProtocolCluster
