"""Shared machinery for dependency-based leaderless protocols.

EPaxos, Atlas and Janus* all follow the same two-phase pattern:

1. the coordinator sends the command with its locally computed conflicts
   (*dependencies*) to a fast quorum;
2. every fast-quorum member extends the dependencies with the conflicting
   commands it knows about and replies;
3. the coordinator either commits on the fast path (when the replies allow
   the dependencies to be recovered after ``f`` failures) or runs a phase-2
   round on the union of dependencies (slow path);
4. commands are executed by traversing the committed dependency graph,
   strongly connected component by strongly connected component
   (:mod:`repro.protocols.depgraph`).

Subclasses customise the fast-quorum size, the fast-path condition and the
slow-quorum size, which is exactly where EPaxos and Atlas differ (§6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.base import ProcessBase
from repro.core.commands import Command
from repro.core.gc import WatermarkGcMixin
from repro.core.identifiers import Dot
from repro.core.messages import MDeliveryAck, MExecutedClock
from repro.protocols.dep_messages import (
    MDepAccept,
    MDepAcceptAck,
    MDepCommit,
    MPreAccept,
    MPreAcceptAck,
)
from repro.protocols.depgraph import DependencyGraphExecutor

_EMPTY_DEPS: FrozenSet[Dot] = frozenset()


class KeyConflicts:
    """Incrementally maintained conflict summary for one key.

    The summary splits the commands registered on a key into a *live* part
    (not yet executed here, bounded by in-flight commands) and an *executed*
    archive.  Per-command bookkeeping — registration, retirement on
    execution, the wait-free queries of ``_conflicts_of`` — touches only the
    live part or performs whole-set C-level unions, so the Python-level work
    per command is O(live) instead of the historical O(history) per-dot
    iteration.  The combined views are cached and rebuilt lazily, and they
    reproduce exactly the dependency sets the naive iteration emitted: the
    archive is unioned back in, because an emitted dependency set must not
    depend on how much of the history happens to have executed locally.
    """

    __slots__ = (
        "live",
        "live_writes",
        "executed",
        "executed_writes",
        "peak_live",
        "_all_cache",
        "_writes_cache",
    )
    _DIGEST_EXEMPT = frozenset({"_all_cache", "_writes_cache"})  # caches

    def __init__(self) -> None:
        #: Registered, not yet executed (any kind).  Exposed through
        #: ``DependencyProtocolProcess._conflicts`` and bounded by the
        #: number of in-flight commands.
        self.live: Set[Dot] = set()
        #: The non-read-only subset of :attr:`live`.
        self.live_writes: Set[Dot] = set()
        #: Executed dots, retired out of the live sets.
        self.executed: Set[Dot] = set()
        self.executed_writes: Set[Dot] = set()
        #: High-water mark of ``len(live)``, the boundedness witness used by
        #: the pruning regression tests.
        self.peak_live: int = 0
        self._all_cache: Optional[FrozenSet[Dot]] = None
        self._writes_cache: Optional[FrozenSet[Dot]] = None

    def register(self, dot: Dot, read_only: bool) -> None:
        live = self.live
        if dot in live:
            return
        live.add(dot)
        if len(live) > self.peak_live:
            self.peak_live = len(live)
        self._all_cache = None
        if not read_only:
            self.live_writes.add(dot)
            self._writes_cache = None

    def retire(self, dot: Dot, read_only: bool) -> None:
        """Move an executed dot from the live sets into the archive."""
        live = self.live
        if dot not in live:
            return
        live.discard(dot)
        self.executed.add(dot)
        if not read_only:
            self.live_writes.discard(dot)
            self.executed_writes.add(dot)
        # The combined views are unchanged (live + executed is the same
        # set), so the caches stay valid.

    def all_conflicts(self) -> FrozenSet[Dot]:
        """Every command ever registered on this key."""
        cache = self._all_cache
        if cache is None:
            cache = self._all_cache = frozenset(self.live.union(self.executed))
        return cache

    def write_conflicts(self) -> FrozenSet[Dot]:
        """Every non-read-only command ever registered on this key."""
        cache = self._writes_cache
        if cache is None:
            cache = self._writes_cache = frozenset(
                self.live_writes.union(self.executed_writes)
            )
        return cache

    def drop_archived(self, dot: Dot, read_only: bool) -> None:
        """Forget a *globally executed* dot from the archive.

        Unlike :meth:`retire` this changes the combined views, so the
        caches must be invalidated.  Dropping is safe exactly because the
        dot executed at every partition peer: a dependency edge on it would
        be satisfied everywhere before any newly submitted command can
        execute anywhere, so omitting it from future dependency sets
        changes no execution order.
        """
        executed = self.executed
        if dot not in executed:
            return
        executed.discard(dot)
        self._all_cache = None
        if not read_only:
            self.executed_writes.discard(dot)
            self._writes_cache = None


@dataclass
class DepInfo:
    """Per-command state at a dependency-protocol process."""

    command: Optional[Command] = None
    dependencies: FrozenSet[Dot] = frozenset()
    sequence: int = 0
    status: str = "start"  # start | preaccept | accept | commit | execute
    ballot: int = 0
    preaccept_acks: Dict[int, Tuple[FrozenSet[Dot], int]] = field(default_factory=dict)
    accept_acks: Set[int] = field(default_factory=set)
    #: The processes the coordinator's current round asked, in send order
    #: (set at submit and again on entering the slow path); the round
    #: completes when every one of them has acked.
    expected: Sequence[int] = ()
    submitted_here: bool = False
    submitted_at: Optional[float] = None
    #: Last time the coordinator re-solicited the missing quorum acks for
    #: this command (see _resolicit_tick); debounces to one round per
    #: recovery-timeout window.
    last_solicit: float = float("-inf")

    @property
    def is_committed(self) -> bool:
        return self.status in ("commit", "execute")

    def awaiting(self, acked) -> List[int]:
        """Members of the current round whose ack is missing from ``acked``."""
        return [member for member in self.expected if member not in acked]


class DependencyProtocolProcess(WatermarkGcMixin, ProcessBase):
    """Base class for EPaxos-style protocols.

    Subclasses must implement :meth:`fast_quorum_size`,
    :meth:`slow_quorum_size` and :meth:`allows_fast_path`.
    """

    #: Human-readable protocol name, overridden by subclasses.
    name = "dependency"

    _info: Dict[Dot, DepInfo]

    _DIGEST_EXEMPT = frozenset({"_dropped_peak_live"})  # statistic

    def __init__(self, *args, read_write_aware: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Whether reads only depend on writes (the read/write distinction of
        #: §3.3 that dependency-based protocols can exploit).
        self.read_write_aware = read_write_aware
        #: Per-key conflict summaries (live/executed split plus cached
        #: combined views), used to compute conflicts in O(live) per command.
        self._conflict_index: Dict[str, KeyConflicts] = {}
        #: Per-key set of *live* (not yet executed) commands.  Each value
        #: aliases the ``live`` set of the corresponding summary, so this
        #: view is pruned as commands execute and its peak size is bounded
        #: by the number of in-flight commands.
        self._conflicts: Dict[str, Set[Dot]] = {}
        #: Highest ``peak_live`` among the summaries :meth:`_collect` dropped.
        self._dropped_peak_live = 0
        self._max_sequence_per_key: Dict[str, int] = {}
        self.executor = DependencyGraphExecutor(collected=self.gc.collected)
        #: Message-type -> bound handler (exact class match); bound methods
        #: resolve subclass overrides (e.g. Janus) correctly.
        self._dispatch: Dict[type, Callable[[int, object, float], None]] = {
            MPreAccept: self._on_preaccept,
            MPreAcceptAck: self._on_preaccept_ack,
            MDepAccept: self._on_accept,
            MDepAcceptAck: self._on_accept_ack,
            MDepCommit: self._on_commit,
            MExecutedClock: self._on_executed_clock,
            MDeliveryAck: self._on_delivery_ack,
        }
        #: Last time _resolicit_tick scanned for stuck coordinator records.
        self._last_resolicit_scan = float("-inf")

    # -- protocol parameters (overridden by subclasses) ---------------------------

    def fast_quorum_size(self) -> int:
        raise NotImplementedError

    def slow_quorum_size(self) -> int:
        raise NotImplementedError

    def allows_fast_path(
        self,
        union_deps: FrozenSet[Dot],
        acks: Dict[int, Tuple[FrozenSet[Dot], int]],
        coordinator: int,
    ) -> bool:
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------------

    def info(self, dot: Dot) -> DepInfo:
        record = self._info.get(dot)
        if record is None:
            record = DepInfo()
            self._info[dot] = record
        return record

    def status_of(self, dot: Dot) -> str:
        record = self._info.get(dot)
        if record is None:
            if self.gc.collected(dot):
                return "execute"
            return "start"
        return record.status

    def committed_dependencies(self, dot: Dot) -> FrozenSet[Dot]:
        """Dependencies the command committed with (empty if not committed)."""
        record = self._info.get(dot)
        if record is None or record.status not in ("commit", "execute"):
            return frozenset()
        return record.dependencies

    def _conflicts_of(self, command: Command) -> Tuple[FrozenSet[Dot], int]:
        """Locally known conflicting commands and the next sequence number.

        Reads depend on every known write; everything else depends on every
        known command (§3.3).  The per-key summaries answer both queries
        with cached whole-set unions, so the work here is one C-level union
        per key instead of a per-dot scan of the key's full history.
        """
        # Reads do not depend on reads (§3.3).
        reads_matter = not (self.read_write_aware and command.is_read_only())
        max_sequence = self._max_sequence_per_key
        index = self._conflict_index
        keys = command.keys
        max_seq = 0
        if len(keys) == 1:
            (key,) = keys
            summary = index.get(key)
            if summary is None:
                deps = _EMPTY_DEPS
            else:
                deps = summary.all_conflicts() if reads_matter else summary.write_conflicts()
                if command.dot in deps:
                    deps = deps - {command.dot}
            max_seq = max_sequence.get(key, 0)
            return deps, max_seq + 1
        union: Set[Dot] = set()
        for key in keys:
            summary = index.get(key)
            if summary is not None:
                union |= (
                    summary.all_conflicts() if reads_matter else summary.write_conflicts()
                )
            key_seq = max_sequence.get(key, 0)
            if key_seq > max_seq:
                max_seq = key_seq
        union.discard(command.dot)
        return frozenset(union), max_seq + 1

    def _register(self, command: Command, sequence: int) -> None:
        """Make the command visible to future conflict computations."""
        dot = command.dot
        read_only = command.is_read_only()
        index = self._conflict_index
        conflicts = self._conflicts
        max_sequence = self._max_sequence_per_key
        for key in command.keys:
            summary = index.get(key)
            if summary is None:
                summary = index[key] = KeyConflicts()
                conflicts[key] = summary.live
            summary.register(dot, read_only)
            if sequence > max_sequence.get(key, 0):
                max_sequence[key] = sequence

    def _retire_executed(self, command: Command) -> None:
        """Prune an executed command out of the live conflict sets.

        Its contribution to future dependency sets is preserved by the
        per-key executed archive, so emitted dependencies are unchanged;
        only the per-command bookkeeping shrinks to the live window.
        """
        dot = command.dot
        read_only = command.is_read_only()
        index = self._conflict_index
        for key in command.keys:
            summary = index.get(key)
            if summary is not None:
                summary.retire(dot, read_only)

    def _fast_targets(self, command: Command) -> List[int]:
        """Who is asked to pre-accept ``command``, in send order: the
        nearest unsuspected quorum (:meth:`QuorumSystem.closest`)."""
        return self.quorum_system.closest(
            self.process_id, self.fast_quorum_size(), self.suspected
        )

    def _slow_targets(self, command: Command) -> List[int]:
        """Who is asked to accept ``command`` on the slow path, in send order."""
        return self.quorum_system.closest(
            self.process_id, self.slow_quorum_size(), self.suspected
        )

    # -- submission ----------------------------------------------------------------

    def submit(self, command: Command, now: float = 0.0) -> None:
        """Submit a command with this process acting as its coordinator."""
        record = self.info(command.dot)
        record.command = command
        record.submitted_here = True
        record.submitted_at = now
        dependencies, sequence = self._conflicts_of(command)
        self._register(command, sequence)
        record.dependencies = dependencies
        record.sequence = sequence
        record.status = "preaccept"
        record.expected = self._fast_targets(command)
        message = MPreAccept(command.dot, command, dependencies, sequence)
        self.send(record.expected, message, now)

    # -- message handling -------------------------------------------------------------

    def _on_preaccept(self, sender: int, message: MPreAccept, now: float) -> None:
        if self.gc.collected(message.dot):
            return
        record = self.info(message.dot)
        if record.status in ("commit", "execute"):
            return
        if record.submitted_here:
            # The coordinator already computed its dependencies in submit();
            # recomputing here would count the command against itself.
            self.send(
                [sender],
                MPreAcceptAck(message.dot, record.dependencies, record.sequence),
                now,
            )
            return
        local_deps, local_seq = self._conflicts_of(message.command)
        dependencies = frozenset(message.dependencies | local_deps)
        sequence = max(message.sequence, local_seq)
        record.command = message.command
        record.dependencies = dependencies
        record.sequence = sequence
        if record.status == "start":
            record.status = "preaccept"
        self._register(message.command, sequence)
        self.send([sender], MPreAcceptAck(message.dot, dependencies, sequence), now)

    def _on_preaccept_ack(self, sender: int, message: MPreAcceptAck, now: float) -> None:
        record = self._info.get(message.dot)
        if record is None or record.status != "preaccept" or not record.submitted_here:
            return
        record.preaccept_acks[sender] = (message.dependencies, message.sequence)
        if record.awaiting(record.preaccept_acks):
            return
        union_deps = frozenset().union(
            *(deps for deps, _ in record.preaccept_acks.values())
        )
        sequence = max(seq for _, seq in record.preaccept_acks.values())
        record.dependencies = union_deps
        record.sequence = sequence
        if self.allows_fast_path(union_deps, record.preaccept_acks, self.process_id):
            self._broadcast_commit(record, now)
        else:
            record.status = "accept"
            record.ballot = self.config.rank_in_partition(self.process_id) + 1
            record.expected = self._slow_targets(record.command)
            accept = MDepAccept(
                record.command.dot,
                record.command,
                union_deps,
                sequence,
                record.ballot,
            )
            self.send(record.expected, accept, now)

    def _on_accept(self, sender: int, message: MDepAccept, now: float) -> None:
        if self.gc.collected(message.dot):
            return
        record = self.info(message.dot)
        if record.status in ("commit", "execute"):
            return
        record.command = message.command
        record.dependencies = message.dependencies
        record.sequence = message.sequence
        record.status = "accept"
        self._register(message.command, message.sequence)
        self.send([sender], MDepAcceptAck(message.dot, message.ballot), now)

    def _on_accept_ack(self, sender: int, message: MDepAcceptAck, now: float) -> None:
        record = self._info.get(message.dot)
        if record is None or record.status != "accept" or not record.submitted_here:
            return
        record.accept_acks.add(sender)
        if record.awaiting(record.accept_acks):
            return
        self._broadcast_commit(record, now)

    def _commit_targets(self, record: DepInfo) -> List[int]:
        """Processes that must learn about the commit."""
        return list(self.partition_peers())

    def _broadcast_commit(self, record: DepInfo, now: float) -> None:
        if record.command is None:
            return
        commit = MDepCommit(
            record.command.dot, record.command, record.dependencies, record.sequence
        )
        targets = sorted(set(self._commit_targets(record)))
        self.send(targets, commit, now)
        if self.reliability is not None:
            # Lossy-run safety net: keep the commit buffered until every
            # non-self target acknowledges delivery (see repro.reliability).
            self.reliability.track(targets, commit, now)

    def _on_commit(self, sender: int, message: MDepCommit, now: float) -> None:
        if self.reliability is not None and sender != self.process_id:
            # Ack before any dedup/GC early return: a duplicate usually
            # means our first ack was lost.
            self._ack_delivery(sender, message, now)
        if self.gc.collected(message.dot):
            return
        record = self.info(message.dot)
        if record.status in ("commit", "execute"):
            return
        record.command = message.command
        record.dependencies = message.dependencies
        record.sequence = message.sequence
        record.status = "commit"
        # The quorum bookkeeping is dead past this point (the ack handlers
        # gate on the pre-commit statuses); drop it so each ack's
        # history-sized dependency snapshot can be reclaimed.
        if record.preaccept_acks:
            record.preaccept_acks = {}
        if record.accept_acks:
            record.accept_acks = set()
        self._register(message.command, message.sequence)
        newly = self.executor.commit(
            message.dot, message.dependencies, message.sequence
        )
        self._execute_all(newly, now)

    # -- execution ---------------------------------------------------------------------

    def _execute_all(self, dots: List[Dot], now: float) -> None:
        for dot in dots:
            record = self._info.get(dot)
            if record is None or record.command is None:
                continue
            if record.status == "execute":
                continue
            record.status = "execute"
            self._retire_executed(record.command)
            self._execute_command(dot, record.command, now, record.submitted_here)

    def tick(self, now: float) -> None:
        """Periodically retry execution (a commit elsewhere may have
        unblocked a component whose last commit message raced the check)."""
        newly = self.executor.advance()
        if newly:
            self._execute_all(newly, now)
        self._gc_announce(now)
        self._resolicit_tick(now)
        self._reliability_tick(now)

    def _resolicit_tick(self, now: float) -> None:
        """Re-solicit the missing quorum replies of stuck coordinations.

        These protocols have no recovery sub-protocol in this reproduction:
        a phase-1/phase-2 round-trip lost to a restart or a lossy link
        strands the command at its coordinator forever.  When reliable
        delivery is enabled, the coordinator re-sends the pre-accept (or
        accept) to exactly the quorum members whose reply is missing, once
        per recovery-timeout window per command, after the command has been
        pending for two full windows.  Crash-only plans keep this off, so
        the crash@s0 baseline rows keep their documented behaviour.
        """
        if self.reliability is None:
            return
        timeout = self.config.recovery_timeout
        if now - self._last_resolicit_scan < timeout:
            return
        self._last_resolicit_scan = now
        for dot, record in self._info.items():
            if not record.submitted_here or record.command is None:
                continue
            if record.status not in ("preaccept", "accept"):
                continue
            submitted_at = record.submitted_at
            if submitted_at is None or now - submitted_at < 2 * timeout:
                continue
            if now - record.last_solicit < timeout:
                continue
            record.last_solicit = now
            if record.status == "preaccept":
                acked = record.preaccept_acks
                message = MPreAccept(
                    dot, record.command, record.dependencies, record.sequence
                )
            else:
                acked = record.accept_acks
                message = MDepAccept(
                    dot,
                    record.command,
                    record.dependencies,
                    record.sequence,
                    record.ballot,
                )
            missing = record.awaiting(acked)
            if missing:
                self.send(missing, message, now)

    # -- watermark GC -------------------------------------------------------------------

    def _collect(self, dot: Dot) -> None:
        """Forget a globally-executed dot: its record, its per-key archive
        entries (with cache invalidation) and its dependency-graph node.

        A key whose summary this leaves empty loses the summary too — a
        missing key already reads as "no conflicts" — so the index holds
        the keys of in-flight commands, not every key ever written."""
        record = self._info.pop(dot, None)
        assert record is None or record.status == "execute", (
            f"collecting {dot} in status {record.status}: watermark ran "
            "ahead of local execution"
        )
        if record is not None and record.command is not None:
            command = record.command
            read_only = command.is_read_only()
            index = self._conflict_index
            for key in command.keys:
                summary = index.get(key)
                if summary is None:
                    continue
                summary.drop_archived(dot, read_only)
                if not summary.live and not summary.executed:
                    if summary.peak_live > self._dropped_peak_live:
                        self._dropped_peak_live = summary.peak_live
                    del index[key]
                    del self._conflicts[key]
        self.executor.collect(dot)

    # -- introspection -------------------------------------------------------------------

    def pending_dots(self) -> List[Dot]:
        return [
            dot
            for dot, record in self._info.items()
            if record.status in ("preaccept", "accept")
        ]

    def max_component_size(self) -> int:
        """Largest strongly connected component executed so far."""
        return self.executor.max_component_size()

    def conflict_footprint(self) -> Dict[str, int]:
        """Size accounting of the conflict-tracking structures.

        ``live`` (and its high-water mark ``peak_live``) must stay bounded
        by in-flight commands under the pruning scheme, while ``archived``
        carries the executed history needed to keep emitted dependency
        sets exact.
        """
        live = archived = 0
        peak = self._dropped_peak_live
        for summary in self._conflict_index.values():
            live += len(summary.live)
            peak = max(peak, summary.peak_live)
            archived += len(summary.executed)
        return {"live": live, "peak_live": peak, "archived": archived}

    def memory_footprint(self) -> Dict[str, int]:
        footprint = super().memory_footprint()
        conflicts = self.conflict_footprint()
        footprint["archived"] = conflicts["archived"]
        footprint["peak_live_per_key"] = conflicts["peak_live"]
        footprint["conflict_keys"] = len(self._conflict_index)
        return footprint
