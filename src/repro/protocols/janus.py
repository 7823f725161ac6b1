"""Janus* — dependency-based partial replication (§6.4).

Janus (OSDI'16) generalizes EPaxos to partial replication: a command that
accesses several shards collects dependencies from every shard it touches
and is executed over the resulting cross-shard dependency graph.  The paper
evaluates an improved variant, *Janus**, built on Atlas instead of plain
EPaxos: fast quorums of ``floor(r/2) + f`` per shard and the Atlas fast-path
condition.

Janus* is **not genuine**: ordering a command requires communication beyond
the processes that replicate the shards it accesses.  In this implementation
that shows up as the commit broadcast going to every process of the
deployment, so that the dependency graph every process executes over is
globally consistent (dependencies may point at commands of other shards).

Each process only *applies* the operations on keys of its own shard, but the
graph traversal — the execution bottleneck the paper measures — spans all
commands it has heard about.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.commands import Command, KeyOp
from repro.core.identifiers import Dot
from repro.protocols.atlas import AtlasProcess
from repro.protocols.dep_messages import MDepAccept, MPreAccept


class JanusProcess(AtlasProcess):
    """A Janus* replica of one shard (= one partition)."""

    name = "janus"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Per-command set of processes whose fast-path ack is expected.
        self._expected_fast: Dict[Dot, Set[int]] = {}
        #: Per-command set of processes whose slow-path ack is expected.
        self._expected_slow: Dict[Dot, Set[int]] = {}

    # -- submission ----------------------------------------------------------------

    def _accessed_shards(self, command: Command) -> List[int]:
        return sorted(command.partitions(self.partitioner))

    def submit(self, command: Command, now: float = 0.0) -> None:
        """Submit a (possibly multi-shard) command coordinated by this
        process."""
        record = self.info(command.dot)
        record.command = command
        record.submitted_here = True
        record.submitted_at = now
        dependencies, sequence = self._conflicts_of(command)
        self._register(command, sequence)
        record.dependencies = dependencies
        record.sequence = sequence
        record.status = "preaccept"
        shards = self._accessed_shards(command)
        expected: Set[int] = set()
        for shard in shards:
            coordinator = self.quorum_system.coordinator_for(self.process_id, shard)
            quorum = self.quorum_system.fast_quorum(coordinator, shard)
            expected.update(quorum)
        self._expected_fast[command.dot] = expected
        message = MPreAccept(command.dot, command, dependencies, sequence)
        self.send(sorted(expected), message, now)

    # -- coordinator-side overrides -----------------------------------------------------

    def _on_preaccept_ack(self, sender: int, message, now: float) -> None:
        record = self._info.get(message.dot)
        if record is None or record.status != "preaccept" or not record.submitted_here:
            return
        record.preaccept_acks[sender] = (message.dependencies, message.sequence)
        expected = self._expected_fast.get(message.dot, set())
        if set(record.preaccept_acks) < expected:
            return
        union_deps = frozenset().union(
            *(deps for deps, _ in record.preaccept_acks.values())
        )
        sequence = max(seq for _, seq in record.preaccept_acks.values())
        record.dependencies = union_deps
        record.sequence = sequence
        if self.allows_fast_path(union_deps, record.preaccept_acks, self.process_id):
            self._broadcast_commit(record, now)
            return
        record.status = "accept"
        record.ballot = self.config.rank_in_partition(self.process_id) + 1
        shards = self._accessed_shards(record.command)
        expected_slow: Set[int] = set()
        for shard in shards:
            coordinator = self.quorum_system.coordinator_for(self.process_id, shard)
            expected_slow.update(self.quorum_system.slow_quorum(coordinator, shard))
        self._expected_slow[record.command.dot] = expected_slow
        accept = MDepAccept(
            record.command.dot,
            record.command,
            union_deps,
            sequence,
            record.ballot,
        )
        self.send(sorted(expected_slow), accept, now)

    def _on_accept_ack(self, sender: int, message, now: float) -> None:
        record = self._info.get(message.dot)
        if record is None or record.status != "accept" or not record.submitted_here:
            return
        record.accept_acks.add(sender)
        expected = self._expected_slow.get(message.dot, set())
        if record.accept_acks < expected:
            return
        self._broadcast_commit(record, now)

    def _commit_targets(self, record) -> List[int]:
        """Non-genuine commit dissemination: every process of the
        deployment learns the commit, so the cross-shard dependency graph is
        complete everywhere."""
        return list(range(self.config.total_processes()))

    # -- execution ---------------------------------------------------------------------

    def _execute_all(self, dots: List[Dot], now: float) -> None:
        for dot in dots:
            self._expected_fast.pop(dot, None)
            self._expected_slow.pop(dot, None)
        super()._execute_all(dots, now)

    def _apply(self, command: Command):
        """Apply only the operations on keys of this process's shard."""
        local_command = self._restrict_to_shard(command)
        return super()._apply(local_command) if local_command is not None else None

    def _restrict_to_shard(self, command: Command) -> Optional[Command]:
        """Project ``command`` onto the keys of this process's shard."""
        ops: Tuple[KeyOp, ...] = tuple(
            op
            for op in command.ops
            if self.partitioner.partition_of(op.key) == self.partition
        )
        if not ops:
            return None
        return Command(
            dot=command.dot,
            ops=ops,
            payload_size=command.payload_size,
            client_id=command.client_id,
        )
