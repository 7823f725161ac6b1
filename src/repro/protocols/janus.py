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

from typing import List, Optional, Tuple

from repro.core.commands import Command, KeyOp
from repro.protocols.atlas import AtlasProcess


class JanusProcess(AtlasProcess):
    """A Janus* replica of one shard (= one partition): Atlas with every
    round asked of a quorum in each shard the command accesses."""

    name = "janus"

    # -- who is asked ----------------------------------------------------------------

    def _closest_in_accessed_shards(self, command: Command, count: int) -> List[int]:
        """Union, over the shards ``command`` accesses, of the ``count``
        replicas of the shard closest to this site's; ascending (the send
        order)."""
        members = set()
        for shard in command.partitions(self.partitioner):
            local = self.quorum_system.coordinator_for(self.process_id, shard)
            members.update(self.quorum_system.closest(local, count, self.suspected))
        return sorted(members)

    def _fast_targets(self, command: Command) -> List[int]:
        return self._closest_in_accessed_shards(command, self.fast_quorum_size())

    def _slow_targets(self, command: Command) -> List[int]:
        return self._closest_in_accessed_shards(command, self.slow_quorum_size())

    def _gc_members(self) -> List[int]:
        """Non-genuine: every process learns each commit, so the cross-shard
        dependency graph is complete everywhere, and executes it; a record
        is kept until all have, so one that lost the commit can pull it."""
        return list(range(self.config.total_processes()))

    # -- execution ---------------------------------------------------------------------

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
