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

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.base import ProcessBase
from repro.core.commands import Command
from repro.core.gc import WatermarkGcMixin
from repro.core.identifiers import Dot
from repro.core.messages import MExecutedClock, MRepairRequest, Need
from repro.core.repair import PullMixin
from repro.protocols.dep_messages import (
    MDepAccept,
    MDepAcceptAck,
    MDepCommit,
    MPreAccept,
    MPreAcceptAck,
)
from repro.protocols.depgraph import DependencyGraphExecutor, GraphNode

_EMPTY_DEPS: FrozenSet[Dot] = frozenset()
#: A dot's flags in its key's summary: not yet executed here; read-only.
_LIVE = 1
_READ = 2


class LoneConflict(NamedTuple):
    """Conflict state of a key with one uncollected command: the command,
    the key's floor and the command's flags, and no container.  It answers
    what :class:`KeyConflicts` answers; being immutable, each update
    returns the key's new entry."""

    dot: Dot
    floor: int
    flags: int

    #: The key never held more than this one command live.
    peak_live = 1

    @property
    def live(self) -> int:
        return self.flags & _LIVE

    @property
    def archived(self) -> int:
        return 1 - self.live

    def view(self, reads_matter: bool) -> FrozenSet[Dot]:
        if not reads_matter and self.flags & _READ:
            return _EMPTY_DEPS
        return frozenset((self.dot,))

    def register(
        self, dot: Dot, read_only: bool, sequence: int
    ) -> Union[LoneConflict, KeyConflicts]:
        if dot != self.dot:
            summary = KeyConflicts(self)
            summary.register(dot, read_only, sequence)
            return summary
        if sequence > self.floor:
            return LoneConflict(dot, sequence, self.flags)
        return self

    def retire(self, dot: Dot) -> LoneConflict:
        if dot == self.dot and self.flags & _LIVE:
            return LoneConflict(dot, self.floor, self.flags ^ _LIVE)
        return self

    def drop_archived(self, dot: Dot) -> Optional[LoneConflict]:
        """``None`` once the command is collected: the key keeps no entry."""
        if dot == self.dot and not self.flags & _LIVE:
            return None
        return self


class KeyConflicts:
    """Conflict summary for a key with two or more uncollected commands.

    One dict maps each registered dot to its flags (:data:`_LIVE` until
    it executes here, :data:`_READ` for a read-only command), with a count
    of each, and nothing else is kept per dot.  The views are cached
    frozensets rebuilt lazily: ``_conflicts_of`` pays one C-level union per
    key, never a per-dot scan, and the views reproduce exactly the
    dependency sets the naive iteration emitted — executed dots stay in
    them until collected, because an emitted dependency set must not depend
    on how much of the history happens to have executed locally.  The write
    view is derived only while the key has reads; without reads it is the
    full view.

    ``floor`` is the highest sequence number registered on the key (the
    next command's sequence is one above the floors of its keys).  It dies
    with the summary: "Dependency layer" in ``docs/conflict_pruning.md``
    says why no order can depend on a dropped floor.
    """

    __slots__ = ("dots", "live", "reads", "floor", "peak_live", "_all_cache", "_writes_cache")
    _DIGEST_EXEMPT = frozenset({"_all_cache", "_writes_cache"})  # caches

    def __init__(self, lone: LoneConflict) -> None:
        """The summary of a key that held ``lone`` alone until now."""
        self.dots: Dict[Dot, int] = {lone.dot: lone.flags}
        #: How many of :attr:`dots` are live; bounded by in-flight commands.
        self.live = lone.live
        #: How many of :attr:`dots` are read-only.
        self.reads = 1 if lone.flags & _READ else 0
        self.floor = lone.floor
        #: High-water mark of :attr:`live` since the key last held two
        #: commands, the boundedness witness used by the pruning regression
        #: tests.
        self.peak_live = lone.live
        self._all_cache: Optional[FrozenSet[Dot]] = None
        self._writes_cache: Optional[FrozenSet[Dot]] = None

    @property
    def archived(self) -> int:
        return len(self.dots) - self.live

    def register(self, dot: Dot, read_only: bool, sequence: int) -> KeyConflicts:
        if sequence > self.floor:
            self.floor = sequence
        dots = self.dots
        if dot in dots:
            return self
        self.live += 1
        if self.live > self.peak_live:
            self.peak_live = self.live
        self._all_cache = None
        if read_only:
            dots[dot] = _LIVE | _READ
            self.reads += 1
        else:
            dots[dot] = _LIVE
            self._writes_cache = None
        return self

    def retire(self, dot: Dot) -> KeyConflicts:
        """An executed dot stops being live.  The views are unchanged, so
        the caches stay valid."""
        flags = self.dots.get(dot)
        if flags is not None and flags & _LIVE:
            self.dots[dot] = flags ^ _LIVE
            self.live -= 1
        return self

    def view(self, reads_matter: bool) -> FrozenSet[Dot]:
        return self.all_conflicts() if reads_matter else self.write_conflicts()

    def all_conflicts(self) -> FrozenSet[Dot]:
        """Every uncollected command registered on this key."""
        cache = self._all_cache
        if cache is None:
            cache = self._all_cache = frozenset(self.dots)
        return cache

    def write_conflicts(self) -> FrozenSet[Dot]:
        """Every uncollected non-read-only command registered on this key."""
        if not self.reads:
            return self.all_conflicts()
        cache = self._writes_cache
        if cache is None:
            cache = self._writes_cache = frozenset(
                [dot for dot, flags in self.dots.items() if not flags & _READ]
            )
        return cache

    def drop_archived(self, dot: Dot) -> Union[KeyConflicts, LoneConflict]:
        """Forget a *globally executed* dot; a key left with one command
        keeps it as a :class:`LoneConflict`.

        Unlike :meth:`retire` this changes the views, so the caches must be
        invalidated.  Dropping is safe exactly because the dot executed at
        every partition peer: a dependency edge on it would be satisfied
        everywhere before any newly submitted command can execute anywhere,
        so omitting it from future dependency sets changes no execution
        order.
        """
        dots = self.dots
        flags = dots.get(dot)
        if flags is None or flags & _LIVE:
            return self
        del dots[dot]
        if len(dots) == 1:
            ((other, other_flags),) = dots.items()
            return LoneConflict(other, self.floor, other_flags)
        self._all_cache = None
        if flags & _READ:
            self.reads -= 1
        else:
            self._writes_cache = None
        return self


@dataclass(slots=True)
class DepInfo(GraphNode):
    """Per-command state at a dependency-protocol process.

    The record is also the command's node in the dependency graph from its
    commit until it executes here, so its ``dependencies`` and
    ``sequence`` are held once.
    """

    command: Optional[Command] = None
    status: str = "start"  # start | preaccept | accept | commit | execute
    ballot: int = 0
    #: The coordinator's quorum replies, created by the first reply of each
    #: round and dropped on commit.
    preaccept_acks: Optional[Dict[int, Tuple[FrozenSet[Dot], int]]] = None
    accept_acks: Optional[Set[int]] = None
    #: The processes the coordinator's current round asked, in send order
    #: (set at submit and again on entering the slow path); the round
    #: completes when every one of them has acked.
    expected: Sequence[int] = ()

    @property
    def is_committed(self) -> bool:
        return self.status in ("commit", "execute")

    @property
    def is_pending(self) -> bool:
        return self.status in ("preaccept", "accept")

    def awaiting(self, acked) -> List[int]:
        """Members of the current round whose ack is missing from ``acked``
        (``None`` before the first)."""
        return [member for member in self.expected if not acked or member not in acked]


class DependencyProtocolProcess(PullMixin, WatermarkGcMixin, ProcessBase):
    """Base class for EPaxos-style protocols.

    Subclasses must implement :meth:`fast_quorum_size`,
    :meth:`slow_quorum_size` and :meth:`allows_fast_path`.  Every message
    is sent once; what loss strands, the blocked side pulls through the
    pass Tempo runs (:class:`repro.core.repair.PullMixin`, "The baselines'
    pull" in ``docs/reliable_delivery.md``).
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
        #: Per-key conflict state with its sequence floor, for the keys of
        #: uncollected commands only: a :class:`LoneConflict` while the key
        #: has one such command, a :class:`KeyConflicts` while it has more.
        self._conflict_index: Dict[str, Union[LoneConflict, KeyConflicts]] = {}
        #: Highest ``peak_live`` among the summaries :meth:`_collect` dropped
        #: or turned back into a lone entry (a lone entry's is 1).
        self._dropped_peak_live = 0
        self.executor = DependencyGraphExecutor(self._settled, node=self._graph_node)
        #: Message-type -> bound handler (exact class match); bound methods
        #: resolve subclass overrides (e.g. Janus) correctly.
        self._dispatch: Dict[type, Callable[[int, object, float], None]] = {
            MPreAccept: self._on_preaccept,
            MPreAcceptAck: self._on_preaccept_ack,
            MDepAccept: self._on_accept,
            MDepAcceptAck: self._on_accept_ack,
            MDepCommit: self._on_commit,
            MExecutedClock: self._on_executed_clock,
            MRepairRequest: self._on_repair_request,
        }

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

    def _graph_node(self, dot: Dot, dependencies: FrozenSet[Dot], sequence: int) -> DepInfo:
        """A committed command's graph node is its record, which
        :meth:`_on_commit` filled with the same dependencies and sequence."""
        return self._info[dot]

    def status_of(self, dot: Dot) -> str:
        record = self._info.get(dot)
        if record is None:
            return "execute" if self.gc.collected(dot) else "start"
        return record.status

    def _settled(self, dot: Dot) -> bool:
        """The graph's one question: ``dot`` executed here or was collected."""
        return self.status_of(dot) == "execute"

    def committed_dependencies(self, dot: Dot) -> FrozenSet[Dot]:
        """Dependencies the command committed with (empty if not committed)."""
        record = self._info.get(dot)
        if record is None or not record.is_committed:
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
        index = self._conflict_index
        keys = command.keys
        if len(keys) == 1:
            (key,) = keys
            entry = index.get(key)
            if entry is None:
                return _EMPTY_DEPS, 1
            deps = entry.view(reads_matter)
            if command.dot in deps:
                deps = deps - {command.dot}
            return deps, entry.floor + 1
        union: Set[Dot] = set()
        floor = 0
        for key in keys:
            entry = index.get(key)
            if entry is not None:
                union |= entry.view(reads_matter)
                if entry.floor > floor:
                    floor = entry.floor
        union.discard(command.dot)
        return frozenset(union), floor + 1

    def _register(self, command: Command, sequence: int) -> None:
        """Make the command visible to future conflict computations."""
        dot = command.dot
        read_only = command.is_read_only()
        index = self._conflict_index
        for key in command.keys:
            entry = index.get(key)
            if entry is None:
                flags = _LIVE | _READ if read_only else _LIVE
                index[key] = LoneConflict(dot, max(sequence, 0), flags)
            else:
                index[key] = entry.register(dot, read_only, sequence)

    def _retire_executed(self, command: Command) -> None:
        """An executed command stops being live on its keys; it stays in
        their views, so emitted dependencies are unchanged, until collected."""
        dot = command.dot
        index = self._conflict_index
        for key in command.keys:
            entry = index.get(key)
            if entry is not None:
                index[key] = entry.retire(dot)

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
        self._check_minted_here(command)
        record = self.info(command.dot)
        record.command = command
        dependencies, sequence = self._conflicts_of(command)
        self._register(command, sequence)
        record.dependencies = dependencies
        record.sequence = sequence
        record.status = "preaccept"
        record.expected = self._fast_targets(command)
        self._await_commit(command.dot, now)
        message = MPreAccept(command.dot, command, dependencies, sequence)
        self.send(record.expected, message, now)

    # -- message handling -------------------------------------------------------------

    def _on_preaccept(self, sender: int, message: MPreAccept, now: float) -> None:
        if self.gc.collected(message.dot):
            return
        record = self.info(message.dot)
        if record.is_committed:
            return
        if message.dot.source == self.process_id:
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
        dot = message.dot
        record = self._info.get(dot)
        if record is None or record.status != "preaccept" or dot.source != self.process_id:
            return
        acks = record.preaccept_acks
        if acks is None:
            acks = record.preaccept_acks = {}
        acks[sender] = (message.dependencies, message.sequence)
        if record.awaiting(acks):
            return
        union_deps = frozenset().union(*(deps for deps, _ in acks.values()))
        sequence = max(seq for _, seq in acks.values())
        record.dependencies = union_deps
        record.sequence = sequence
        if self.allows_fast_path(union_deps, acks, self.process_id):
            self._send_commit(record, self._gc_members(), now)
        else:
            record.status = "accept"
            record.ballot = self.config.rank_in_partition(self.process_id) + 1
            record.expected = self._slow_targets(record.command)
            accept = MDepAccept(
                record.command.dot, record.command, union_deps, sequence, record.ballot
            )
            self.send(record.expected, accept, now)

    def _on_accept(self, sender: int, message: MDepAccept, now: float) -> None:
        if self.gc.collected(message.dot):
            return
        record = self.info(message.dot)
        if record.is_committed:
            return
        record.command = message.command
        record.dependencies = message.dependencies
        record.sequence = message.sequence
        record.status = "accept"
        self._register(message.command, message.sequence)
        self.send([sender], MDepAcceptAck(message.dot, message.ballot), now)

    def _on_accept_ack(self, sender: int, message: MDepAcceptAck, now: float) -> None:
        dot = message.dot
        record = self._info.get(dot)
        if record is None or record.status != "accept" or dot.source != self.process_id:
            return
        acks = record.accept_acks
        if acks is None:
            acks = record.accept_acks = set()
        acks.add(sender)
        if record.awaiting(acks):
            return
        self._send_commit(record, self._gc_members(), now)

    def _send_commit(self, record: DepInfo, targets: Sequence[int], now: float) -> None:
        """The commit goes to every process that executes the command
        (``_gc_members``) and, on request, to one that lost it."""
        command = record.command
        commit = MDepCommit(command.dot, command, record.dependencies, record.sequence)
        self.send(targets, commit, now)

    def _on_commit(self, sender: int, message: MDepCommit, now: float) -> None:
        if self.gc.collected(message.dot):
            return
        record = self.info(message.dot)
        if record.is_committed:
            return
        record.command = message.command
        record.dependencies = message.dependencies
        record.sequence = message.sequence
        record.status = "commit"
        self._blocked[Need.COMMIT].pop(message.dot, None)
        # The quorum bookkeeping is dead past this point (the ack handlers
        # gate on the pre-commit statuses); drop it so each ack's
        # dependency snapshot can be reclaimed.
        record.preaccept_acks = record.accept_acks = None
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
            self._execute_command(dot, record.command, now)

    def tick(self, now: float) -> None:
        """Retry execution (a commit elsewhere may have unblocked a
        component), announce the executed clock, pull what is overdue."""
        newly = self.executor.advance()
        if newly:
            self._execute_all(newly, now)
        self._gc_announce(now)
        awaiting = self._blocked[Need.COMMIT]
        unheard = [dot for dot in self.executor.missing() if dot not in awaiting]
        for dot in sorted(unheard):
            self._await_commit(dot, now)
        self._pull_overdue(now)

    # -- the pull --------------------------------------------------------------------

    def _on_executed_clock(self, sender: int, message: MExecutedClock, now: float) -> None:
        """Owed here: what a peer executed and this replica has not committed."""
        info = self._info
        self._await_owed(message.clock, lambda dot: dot in info and info[dot].is_committed, now)
        super()._on_executed_clock(sender, message, now)

    def _ask(self, need: Need, dot: Dot, now: float) -> None:
        """The coordinator re-sends its pending round to the members whose
        reply is missing.  Any other replica asks the processes that keep
        the record until it executed here (``_gc_members``) for the range
        of the source's dots from its lowest overdue one to its highest:
        one request per source and window, however long the backlog."""
        record = self._info.get(dot)
        if record is None or dot.source != self.process_id:
            window = self.config.recovery_timeout
            overdue = []
            for other, entry in self._blocked[Need.COMMIT].items():
                if other.source == dot.source and now - entry[0] >= window:
                    entry[1] = now
                    overdue.append(other.sequence)
            top = Dot(dot.source, max(overdue))
            targets, message = self._gc_peers, MRepairRequest(top, need, min(overdue) - 1)
        elif record.status == "preaccept":
            targets = record.awaiting(record.preaccept_acks)
            message = MPreAccept(dot, record.command, record.dependencies, record.sequence)
        else:
            targets = record.awaiting(record.accept_acks)
            message = MDepAccept(
                dot, record.command, record.dependencies, record.sequence, record.ballot
            )
        self.send([peer for peer in targets if self.believes_alive(peer)], message, now)

    def _on_repair_request(self, sender: int, message: MRepairRequest, now: float) -> None:
        """Answer with every commit held of the source's dots above
        ``frontier`` up to the named one (a source's dots are contiguous)."""
        source = message.dot.source
        for sequence in range(message.frontier + 1, message.dot.sequence + 1):
            record = self._info.get(Dot(source, sequence))
            if record is not None and record.is_committed:
                self._send_commit(record, [sender], now)

    # -- watermark GC -------------------------------------------------------------------

    def _collect(self, dot: Dot) -> None:
        """Forget a globally-executed dot: its record and its entries in
        the per-key conflict state (with cache invalidation).

        A key left with one uncollected command keeps it as a
        :class:`LoneConflict`, floor included; a key left with none loses
        its entry — a missing key reads as "no conflicts, floor 0" — so the
        index holds the keys of uncollected commands, not every key ever
        written."""
        record = self._info.pop(dot, None)
        assert record is None or record.status == "execute", (
            f"collecting {dot} in status {record.status}: watermark ran "
            "ahead of local execution"
        )
        if record is not None and record.command is not None:
            index = self._conflict_index
            for key in record.command.keys:
                entry = index.get(key)
                if entry is None:
                    continue
                remaining = entry.drop_archived(dot)
                if remaining is entry:
                    continue
                if entry.peak_live > self._dropped_peak_live:
                    self._dropped_peak_live = entry.peak_live
                if remaining is None:
                    del index[key]
                else:
                    index[key] = remaining

    # -- introspection -------------------------------------------------------------------

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
        for entry in self._conflict_index.values():
            live += entry.live
            peak = max(peak, entry.peak_live)
            archived += entry.archived
        return {"live": live, "peak_live": peak, "archived": archived}

    def memory_footprint(self) -> Dict[str, int]:
        footprint = super().memory_footprint()
        conflicts = self.conflict_footprint()
        footprint["archived"] = conflicts["archived"]
        footprint["peak_live_per_key"] = conflicts["peak_live"]
        footprint["conflict_keys"] = len(self._conflict_index)
        return footprint
