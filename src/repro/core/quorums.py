"""Quorum system used by Tempo and the baselines.

Tempo uses three quorum kinds per partition (§3):

* *fast quorums* of size ``floor(r/2) + f`` including the coordinator, used
  to compute timestamp proposals;
* *slow quorums* of size ``f + 1``: the Flexible-Paxos consensus on the
  slow path sends ``MConsensus`` to every partition peer and waits for
  ``f + 1`` acks;
* *recovery quorums* of size ``r - f`` used by Paxos phase-1 during
  recovery.

Fast quorums are chosen as the processes closest to the coordinator (by
site latency when available, by rank distance otherwise), which is what the
paper's implementation does to minimise the fast-path round-trip.  A new
command's quorum skips the peers suspected by the process that picks it:
any ``floor(r/2) + f`` replicas that include the coordinator are a valid
fast quorum, and the choice travels with the command
(``docs/fault_injection.md``, "Failure detector").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import ProtocolConfig


class QuorumSystem:
    """Computes fast/slow/recovery quorums for one deployment.

    Args:
        config: the deployment configuration.
        latencies: optional mapping ``latencies[i][j]`` giving the one-way
            latency between global processes ``i`` and ``j``; when provided,
            fast quorums prefer the closest processes.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        latencies: Optional[Mapping[int, Mapping[int, float]]] = None,
    ) -> None:
        self.config = config
        self._latencies = latencies
        #: ``closest()`` results per ``(process, count)``.
        self._closest: Dict[Tuple[int, int], List[int]] = {}
        #: ``fast_quorums()`` results per ``(submitter, partitions,
        #: suspected)``.
        self._fast_quorums: Dict[
            Tuple[int, Tuple[int, ...], FrozenSet[int]], Dict[int, Tuple[int, ...]]
        ] = {}

    # -- quorum selection ----------------------------------------------------

    def distance(self, origin: int, target: int) -> float:
        """One-way latency between two processes when known, otherwise
        their rank distance within the partition (deterministic)."""
        if self._latencies is not None:
            return float(self._latencies[origin][target])
        config = self.config
        rank_a = config.rank_in_partition(origin)
        rank_b = config.rank_in_partition(target)
        span = abs(rank_a - rank_b)
        return float(min(span, config.num_processes - span))

    def closest(
        self, process: int, count: int, suspected: FrozenSet[int] = frozenset()
    ) -> List[int]:
        """``process`` followed by its ``count - 1`` nearest partition
        peers in ``(distance, id)`` order — the one quorum-selection rule
        every protocol uses.  Computed once per ``(process, count)``; the
        returned list is shared, callers must not mutate it.

        ``suspected`` is the caller's failure-detector output.  A cached
        quorum that holds no suspect is returned as it is; otherwise the
        nearest unsuspected peers replace it, unless fewer than ``count - 1``
        remain, when the cached quorum is the only one there is.
        """
        key = (process, count)
        quorum = self._closest.get(key)
        if quorum is None:
            quorum = self._closest[key] = self._by_distance(process, count)[:count]
        if suspected and not suspected.isdisjoint(quorum):
            live = [
                member
                for member in self._by_distance(process, count)[1:]
                if member not in suspected
            ]
            if len(live) >= count - 1:
                return [process] + live[: count - 1]
        return quorum

    def _by_distance(self, process: int, count: int) -> List[int]:
        """``process`` followed by every partition peer, nearest first;
        ``ValueError`` when the partition has fewer than ``count``."""
        config = self.config
        members = config.processes_of_partition(config.partition_of_process(process))
        if count > len(members):
            raise ValueError(
                f"cannot build a quorum of {count} out of {len(members)} processes"
            )
        others = sorted(
            (member for member in members if member != process),
            key=lambda member: (self.distance(process, member), member),
        )
        return [process] + others

    def commit_relays(
        self, quorum: Sequence[int], targets: Iterable[int]
    ) -> Dict[int, List[int]]:
        """Who sends the fast-path ``MCommit`` to whom: every process of
        ``targets`` outside ``quorum`` mapped to exactly one quorum member,
        the one whose copy arrives first.

        With the ack broadcast member ``m`` of a quorum led by
        ``c = quorum[0]`` holds every proposal at
        ``learn(m) = max_k d(c, k) + d(k, m)`` (``2 * d(c, k)`` for ``c``
        itself), and its copy reaches ``p`` at ``learn(m) + d(m, p)``.  Ties
        go to the coordinator, then to the lowest id.  A pure function of
        the quorum and the distances, so the coordinator and every member
        derive the same plan without exchanging a message
        (``docs/commit_relay.md``).
        """
        distance = self.distance
        coordinator = quorum[0]
        learn = {
            member: max(
                distance(coordinator, k) + distance(k, member) for k in quorum
            )
            for member in quorum
        }
        plan: Dict[int, List[int]] = {member: [] for member in quorum}
        for target in sorted(set(targets) - set(quorum)):
            sender = min(
                quorum,
                key=lambda member: (
                    learn[member] + distance(member, target),
                    member != coordinator,
                    member,
                ),
            )
            plan[sender].append(target)
        return plan

    def fast_quorum(
        self,
        coordinator: int,
        partition: int,
        suspected: FrozenSet[int] = frozenset(),
    ) -> List[int]:
        """Fast quorum for ``partition`` led by ``coordinator``, avoiding
        ``suspected`` as :meth:`closest` does."""
        self._check_replicates(coordinator, partition)
        return self.closest(coordinator, self.config.fast_quorum_size, suspected)

    def _check_replicates(self, coordinator: int, partition: int) -> None:
        if self.config.partition_of_process(coordinator) != partition:
            raise ValueError("coordinator must replicate the partition")

    def fast_quorums(
        self,
        submitter: int,
        partitions: Sequence[int],
        suspected: FrozenSet[int] = frozenset(),
    ) -> Dict[int, Tuple[int, ...]]:
        """Fast quorum per accessed partition (the ``Q`` mapping of Alg. 1),
        each avoiding ``suspected`` as :meth:`closest` does.

        The coordinator of each partition, the quorum's first member, is the
        replica of that partition co-located with (closest to) the
        submitting process.  Computed once per ``(submitter, partitions,
        suspected)``: the map travels with every command submitted there
        and each replica's record keeps it, so callers must not mutate it.
        """
        key = (submitter, tuple(partitions), suspected)
        quorums = self._fast_quorums.get(key)
        if quorums is None:
            quorums = self._fast_quorums[key] = {
                partition: tuple(
                    self.fast_quorum(
                        self.coordinator_for(submitter, partition), partition, suspected
                    )
                )
                for partition in partitions
            }
        return quorums

    def coordinator_for(self, submitter: int, partition: int) -> int:
        """The replica of ``partition`` that acts as coordinator for a
        command submitted by ``submitter`` (the closest one — typically the
        co-located replica)."""
        members = self.config.processes_of_partition(partition)
        if submitter in members:
            return submitter
        rank = self.config.rank_in_partition(submitter)
        colocated = partition * self.config.num_processes + rank
        if colocated in members:
            return colocated
        return min(members, key=lambda member: (self.distance(submitter, member), member))

    def coordinators_for(
        self, submitter: int, partitions: Sequence[int]
    ) -> Dict[int, int]:
        """Coordinator per partition for a multi-partition command (the set
        ``I^i_c`` of Algorithm 3)."""
        return {
            partition: self.coordinator_for(submitter, partition)
            for partition in partitions
        }
