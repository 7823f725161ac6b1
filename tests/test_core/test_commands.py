"""Unit tests for commands, conflicts and partition mapping."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.cluster.replicas import build_replicas
from repro.core.commands import Command, KeyOp, OpKind, Partitioner
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot


class TestCommandConstruction:
    def test_write_command_touches_all_keys(self):
        command = Command.write(Dot(0, 1), ["a", "b"])
        assert command.keys == {"a", "b"}
        assert not command.is_read_only()

    def test_read_command_is_read_only(self):
        command = Command.read(Dot(0, 1), ["a"])
        assert command.is_read_only()

    def test_rejects_empty_key_set(self):
        with pytest.raises(ValueError):
            Command(dot=Dot(0, 1), ops=())

    def test_rejects_negative_payload(self):
        with pytest.raises(ValueError):
            Command.write(Dot(0, 1), ["a"], payload_size=-1)

    def test_payload_size_defaults_to_100_bytes(self):
        assert Command.write(Dot(0, 1), ["a"]).payload_size == 100


class TestConflicts:
    """The conflict relation as the dependency protocols ship it: the
    per-key :class:`~repro.protocols.dependency.KeyConflicts` index a
    read/write-aware replica consults (``_conflicts_of``)."""

    @staticmethod
    def depends(later: Command, earlier: Command) -> bool:
        """Whether ``later`` takes a dependency on ``earlier`` at a replica
        that has seen only ``earlier``."""
        config = ProtocolConfig(num_processes=3, faults=1)
        process = build_replicas("atlas", config).processes[0]
        process._register(earlier, earlier.dot.sequence)
        dependencies, _ = process._conflicts_of(later)
        return earlier.dot in dependencies

    def test_commands_sharing_a_key_conflict(self):
        first = Command.write(Dot(0, 1), ["x", "y"])
        second = Command.write(Dot(1, 1), ["y", "z"])
        assert self.depends(second, first)
        assert self.depends(first, second)

    def test_disjoint_commands_do_not_conflict(self):
        first = Command.write(Dot(0, 1), ["x"])
        second = Command.write(Dot(1, 1), ["y"])
        assert not self.depends(second, first)

    def test_two_reads_do_not_interfere(self):
        first = Command.read(Dot(0, 1), ["x"])
        second = Command.read(Dot(1, 1), ["x"])
        assert not self.depends(second, first)

    def test_read_and_write_interfere(self):
        read = Command.read(Dot(0, 1), ["x"])
        write = Command.write(Dot(1, 1), ["x"])
        assert self.depends(read, write)
        assert self.depends(write, read)

    def test_interference_requires_shared_key(self):
        read = Command.read(Dot(0, 1), ["x"])
        write = Command.write(Dot(1, 1), ["y"])
        assert not self.depends(read, write)
        assert not self.depends(write, read)


class TestPartitioner:
    def test_single_partition_maps_everything_to_zero(self):
        partitioner = Partitioner(1)
        assert partitioner.partition_of("anything") == 0

    def test_explicit_mapping_wins(self):
        partitioner = Partitioner(4, explicit={"a": 3})
        assert partitioner.partition_of("a") == 3

    def test_hashing_is_stable(self):
        partitioner = Partitioner(8)
        assert partitioner.partition_of("key-42") == partitioner.partition_of("key-42")

    def test_partitions_within_range(self):
        partitioner = Partitioner(5)
        for index in range(200):
            assert 0 <= partitioner.partition_of(f"key-{index}") < 5

    def test_rejects_invalid_explicit_mapping(self):
        with pytest.raises(ValueError):
            Partitioner(2, explicit={"a": 7})

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            Partitioner(0)

    def test_assign_pins_a_key(self):
        partitioner = Partitioner(3)
        partitioner.assign("hot", 2)
        assert partitioner.partition_of("hot") == 2

    def test_command_partitions(self):
        partitioner = Partitioner(2, explicit={"a": 0, "b": 1})
        command = Command.write(Dot(0, 1), ["a", "b"])
        assert command.partitions(partitioner) == {0, 1}

    @given(st.text(min_size=1, max_size=20), st.integers(min_value=1, max_value=16))
    def test_every_key_lands_in_exactly_one_partition(self, key, partitions):
        partitioner = Partitioner(partitions)
        partition = partitioner.partition_of(key)
        assert 0 <= partition < partitions
        assert partitioner.partition_of(key) == partition


class TestKeyOp:
    def test_write_op(self):
        op = KeyOp("k", OpKind.WRITE, "v")
        assert op.is_write() and not op.is_read()

    def test_read_op(self):
        op = KeyOp("k", OpKind.READ)
        assert op.is_read() and not op.is_write()
