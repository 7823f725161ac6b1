"""Caesar (DSN'17) — timestamp ordering with explicit dependencies.

Caesar assigns each command a unique timestamp and executes commands in
timestamp order; dependencies are used to detect when a timestamp is stable
(§3.3).  The protocol's distinguishing feature — and its weakness, which the
paper demonstrates analytically (§D) and experimentally (§6) — is the *wait
condition*: a replica that receives a proposal ``(c, t)`` while it knows a
conflicting, not-yet-committed command with a higher timestamp must delay
its reply until that command commits.  This blocking sits on the critical
path of every contended command and produces both extra latency and the
pathological scenarios of §D.

This implementation reproduces:

* unique timestamp proposals ``(clock, process rank)``;
* fast quorums of size ``ceil(3r/4)``;
* the blocking wait condition, with deferred replies re-evaluated whenever a
  conflicting command commits;
* dependency collection (conflicting commands with smaller timestamps) and
  execution in timestamp order gated on dependency commitment.

Not modelled: Caesar's rejection / retry slow path.  No replica ever rejects
a proposal — once the wait condition clears it acknowledges the
coordinator's timestamp as proposed — so every command commits after one
round over the fast quorum with that timestamp and the union of the
reported dependencies, and there is no retry message on the wire.  The
evaluation's Caesar* variant measures commit-time behaviour (commands are
"executed as soon as committed", §6.3).  The wait condition is modelled,
but without reject / retry the timestamp order breaks: trace-checked runs
fail ``timestamp-order`` on some seeds (ROADMAP finding 1, item 16(a)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.base import ProcessBase
from repro.core.commands import Command
from repro.core.gc import WatermarkGcMixin
from repro.core.identifiers import Dot
from repro.core.messages import MDeliveryAck, MExecutedClock
from repro.protocols.dep_messages import (
    MCaesarCommit,
    MCaesarPropose,
    MCaesarProposeAck,
)

Timestamp = Tuple[int, int]


@dataclass
class CaesarInfo:
    """Per-command state at a Caesar replica."""

    command: Optional[Command] = None
    timestamp: Timestamp = (0, 0)
    dependencies: FrozenSet[Dot] = frozenset()
    status: str = "start"  # start | propose | commit | execute
    acks: Dict[int, FrozenSet[Dot]] = field(default_factory=dict)
    #: Dependencies not yet executed here (populated at commit time);
    #: the stability check walks only this live remainder instead of the
    #: full history-sized dependency set.
    live_deps: Optional[Set[Dot]] = None

    @property
    def is_committed(self) -> bool:
        return self.status in ("commit", "execute")

    @property
    def is_pending(self) -> bool:
        return self.status == "propose"


@dataclass
class _DeferredReply:
    """A proposal reply delayed by the wait condition."""

    dot: Dot
    coordinator: int
    #: Monotonic sequence number preserving the original deferral order, so
    #: re-evaluation (and therefore the reply order) matches the historical
    #: single-list scan exactly.
    sequence: int = 0
    #: Keys the deferred command conflicts on, captured at deferral time so
    #: index cleanup never needs the (possibly collected) command record.
    keys: Tuple[str, ...] = ()


class CaesarProcess(WatermarkGcMixin, ProcessBase):
    """A Caesar replica."""

    name = "caesar"

    _info: Dict[Dot, CaesarInfo]

    _DIGEST_EXEMPT = frozenset(
        {
            "blocked_replies_ever",  # statistic
            "peak_live_per_key",  # statistic
            "_commit_heap",  # derived from _info; the layout is insertion history
        }
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.clock = 0
        #: Per-key set of *live* (known but not yet committed) commands —
        #: the only ones the wait condition can block on.  Pruned on commit,
        #: so its peak size is bounded by in-flight commands.
        self._known_per_key: Dict[str, Set[Dot]] = {}
        #: Per-key archive of committed/executed commands and their final
        #: timestamps.  Dependency collection unions it back in, so pruning
        #: the live sets never changes an emitted dependency set.
        self._committed_per_key: Dict[str, Dict[Dot, Timestamp]] = {}
        #: High-water mark over the per-key live sets, the boundedness
        #: witness used by the pruning regression tests.
        self.peak_live_per_key = 0
        #: Replies delayed by the wait condition, keyed by sequence number
        #: (insertion-ordered) and indexed by conflicting key: a commit only
        #: re-evaluates the deferred replies that share a key with the
        #: committed command, instead of rescanning the whole deferred list.
        self._deferred: Dict[int, _DeferredReply] = {}
        self._deferred_by_key: Dict[str, Set[int]] = {}
        self._deferred_sequence = 0
        #: Min-heap of ``(timestamp, dot)`` over committed-but-unexecuted
        #: commands; its head is the execution candidate (see _try_execute).
        self._commit_heap: List[Tuple[Timestamp, Dot]] = []
        self._dispatch: Dict[type, Callable[[int, object, float], None]] = {
            MCaesarPropose: self._on_propose,
            MCaesarProposeAck: self._on_propose_ack,
            MCaesarCommit: self._on_commit,
            MExecutedClock: self._on_executed_clock,
            MDeliveryAck: self._on_delivery_ack,
        }
        #: Commands whose replies are currently blocked (for observability
        #: and for the §D pathological-scenario experiments).
        self.blocked_replies_ever = 0

    # -- helpers -----------------------------------------------------------------

    def info(self, dot: Dot) -> CaesarInfo:
        record = self._info.get(dot)
        if record is None:
            record = CaesarInfo()
            self._info[dot] = record
        return record

    def status_of(self, dot: Dot) -> str:
        record = self._info.get(dot)
        if record is None:
            if self.gc.collected(dot):
                return "execute"
            return "start"
        return record.status

    def committed_timestamp(self, dot: Dot) -> Optional[Timestamp]:
        """Final ``(clock, rank)`` timestamp of ``dot`` if committed here."""
        record = self._info.get(dot)
        if record is None or not record.is_committed:
            return None
        return record.timestamp

    def _next_timestamp(self) -> Timestamp:
        self.clock += 1
        return (self.clock, self.config.rank_in_partition(self.process_id))

    def _register(self, command: Command) -> None:
        """Track a not-yet-committed command in the live per-key sets."""
        dot = command.dot
        committed = self._committed_per_key
        for key in command.keys:
            if dot in committed.get(key, ()):
                continue
            live = self._known_per_key.setdefault(key, set())
            live.add(dot)
            if len(live) > self.peak_live_per_key:
                self.peak_live_per_key = len(live)

    def _register_committed(self, command: Command, timestamp: Timestamp) -> None:
        """Move a command from the live sets into the committed archive."""
        dot = command.dot
        known = self._known_per_key
        committed = self._committed_per_key
        for key in command.keys:
            live = known.get(key)
            if live is not None:
                live.discard(dot)
                if not live:
                    del known[key]
            committed.setdefault(key, {})[dot] = timestamp

    def _fast_quorum(self) -> List[int]:
        return self.quorum_system.closest(
            self.process_id, self.config.caesar_fast_quorum_size, self.suspected
        )

    # -- submission ----------------------------------------------------------------

    def submit(self, command: Command, now: float = 0.0) -> None:
        self._check_minted_here(command)
        record = self.info(command.dot)
        record.command = command
        record.status = "propose"
        record.timestamp = self._next_timestamp()
        self._register(command)
        self.send(
            self._fast_quorum(),
            MCaesarPropose(command.dot, command, record.timestamp),
            now,
        )

    # -- message handling -------------------------------------------------------------

    def _on_propose(self, sender: int, message: MCaesarPropose, now: float) -> None:
        if self.gc.collected(message.dot):
            return
        record = self.info(message.dot)
        if record.status in ("commit", "execute"):
            return
        record.command = message.command
        record.timestamp = message.timestamp
        if record.status == "start":
            record.status = "propose"
        self._register(message.command)
        self.clock = max(self.clock, message.timestamp[0])
        if self._wait_condition_blocks(message.dot, now):
            self._defer_reply(message.dot, sender)
            return
        self._reply_propose(message.dot, sender, now)

    def _defer_reply(self, dot: Dot, coordinator: int) -> None:
        """Park a blocked reply, indexed by every key it conflicts on."""
        sequence = self._deferred_sequence
        self._deferred_sequence += 1
        keys = tuple(self._info[dot].command.keys)
        self._deferred[sequence] = _DeferredReply(dot, coordinator, sequence, keys)
        for key in keys:
            self._deferred_by_key.setdefault(key, set()).add(sequence)
        self.blocked_replies_ever += 1

    def _wait_condition_blocks(self, dot: Dot, now: float) -> bool:
        """Caesar's wait condition (§3.3).

        The reply about ``dot`` must wait while some conflicting command with
        a *higher* timestamp is known here but not yet committed: its
        dependency set is still open, so this replica cannot promise that it
        will include ``dot``.
        """
        record = self._info[dot]
        if record.command is None:
            return False
        info = self._info
        known = self._known_per_key
        timestamp = record.timestamp
        for key in record.command.keys:
            # Only live (uncommitted) commands can block, so the scan is
            # bounded by in-flight commands rather than the key's history.
            for other_dot in known.get(key, ()):
                if other_dot == dot:
                    continue
                other = info.get(other_dot)
                if other is None or other.command is None:
                    continue
                if other.timestamp > timestamp:
                    return True
        return False

    def _reply_propose(self, dot: Dot, coordinator: int, now: float) -> None:
        record = self._info[dot]
        info = self._info
        known = self._known_per_key
        committed = self._committed_per_key
        timestamp = record.timestamp
        zero = (0, 0)
        dependencies: Set[Dot] = set()
        for key in record.command.keys:
            # Committed conflicts come from the archive with their final
            # timestamps; live conflicts still consult their records.
            for other_dot, other_timestamp in committed.get(key, {}).items():
                if other_timestamp < timestamp:
                    dependencies.add(other_dot)
            for other_dot in known.get(key, ()):
                if other_dot == dot:
                    continue
                other = info.get(other_dot)
                if other is not None and zero != other.timestamp < timestamp:
                    dependencies.add(other_dot)
        dependencies.discard(dot)
        self.send([coordinator], MCaesarProposeAck(dot, frozenset(dependencies)), now)

    def _on_propose_ack(self, sender: int, message: MCaesarProposeAck, now: float) -> None:
        dot = message.dot
        record = self._info.get(dot)
        if record is None or dot.source != self.process_id or record.status != "propose":
            return
        record.acks[sender] = message.dependencies
        if len(record.acks) < self.config.caesar_fast_quorum_size:
            return
        dependencies = frozenset().union(*record.acks.values()) if record.acks else frozenset()
        record.dependencies = dependencies
        commit = MCaesarCommit(dot, record.command, record.timestamp, dependencies)
        targets = self.partition_peers()
        self.send(targets, commit, now)
        if self.reliability is not None:
            # Lossy-run safety net: keep the commit buffered until every
            # non-self target acknowledges delivery (see repro.reliability).
            self.reliability.track(targets, commit, now)

    def _on_commit(self, sender: int, message: MCaesarCommit, now: float) -> None:
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
        record.timestamp = message.timestamp
        record.dependencies = message.dependencies
        record.status = "commit"
        # Stability only ever has to look at the dependencies that are not
        # yet executed here (or collected: a peer with a smaller watermark
        # may still list those); the history is filtered out once, now.
        status_of = self.status_of
        record.live_deps = {
            dep for dep in message.dependencies if status_of(dep) != "execute"
        }
        if record.acks:
            record.acks = {}
        heappush(self._commit_heap, (record.timestamp, message.dot))
        self._register_committed(message.command, message.timestamp)
        self.clock = max(self.clock, message.timestamp[0])
        self._flush_deferred_for(message.command.keys, now)
        self._try_execute(now)

    def _flush_deferred_for(self, keys, now: float) -> None:
        """Re-evaluate the deferred replies conflicting on ``keys``.

        Only a commit can clear the wait condition, and only for deferred
        commands sharing a key with the committed command, so this replaces
        the historical full rescan of the deferred list on every commit.
        Entries are re-evaluated in deferral order, matching the reply
        order of the full scan exactly.
        """
        affected: Set[int] = set()
        for key in keys:
            affected.update(self._deferred_by_key.get(key, ()))
        for sequence in sorted(affected):
            # A reply can synchronously complete a quorum at a self-
            # coordinated command and re-enter this method via _on_commit;
            # entries it resolved are already gone.
            deferred = self._deferred.get(sequence)
            if deferred is None:
                continue
            record = self._info.get(deferred.dot)
            resolved = record is None or record.status in ("commit", "execute")
            if not resolved:
                if self._wait_condition_blocks(deferred.dot, now):
                    continue
                self._reply_propose(deferred.dot, deferred.coordinator, now)
            self._remove_deferred(sequence, deferred)

    def _remove_deferred(self, sequence: int, deferred: _DeferredReply) -> None:
        del self._deferred[sequence]
        # The keys were captured at deferral time, so cleanup works even if
        # the command's record has since been collected by the watermark GC.
        for key in deferred.keys:
            bucket = self._deferred_by_key.get(key)
            if bucket is not None:
                bucket.discard(sequence)
                if not bucket:
                    del self._deferred_by_key[key]

    # -- execution ---------------------------------------------------------------------

    def _try_execute(self, now: float) -> None:
        """Execute committed commands in timestamp order.

        A command may execute once every dependency is committed and every
        dependency with a smaller timestamp has executed (dependency-based
        timestamp stability).  Execution is strictly in timestamp order among
        the commands this replica knows, so an unstable command blocks its
        successors — the behaviour responsible for Caesar's tail latency.

        The committed-but-unexecuted commands wait in a min-heap: only the
        lowest-timestamped one can ever execute (an unstable head blocks the
        rest), so peeking the head replaces re-sorting the whole record
        table on every commit and tick.
        """
        heap = self._commit_heap
        while heap:
            _, dot = heap[0]
            record = self._info[dot]
            if not self._is_stable(record):
                return
            heappop(heap)
            self._execute(dot, record, now)

    def _is_stable(self, record: CaesarInfo) -> bool:
        live = record.live_deps
        if not live:
            return True
        info = self._info
        gc = self.gc
        timestamp = record.timestamp
        settled: List[Dot] = []
        stable = True
        for dependency in live:
            other = info.get(dependency)
            if other is None:
                if gc.collected(dependency):
                    # Globally executed and collected: settled forever.
                    settled.append(dependency)
                    continue
                stable = False
                break
            status = other.status
            if status == "execute":
                # Permanently satisfied; drop it from the live remainder.
                settled.append(dependency)
                continue
            if status != "commit":
                stable = False
                break
            if other.timestamp < timestamp:
                # Committed with a smaller timestamp but not yet executed:
                # still unstable, and must stay live until it executes.
                stable = False
                break
            # Committed with a larger (final) timestamp: satisfied forever.
            settled.append(dependency)
        for dependency in settled:
            live.discard(dependency)
        return stable

    def _execute(self, dot: Dot, record: CaesarInfo, now: float) -> None:
        record.status = "execute"
        record.live_deps = None
        self._execute_command(dot, record.command, now)

    def tick(self, now: float) -> None:
        # No deferred flush here: only a commit can clear the wait
        # condition, and _on_commit already re-evaluates the replies
        # conflicting with the committed command via the per-key index.
        self._try_execute(now)
        self._gc_announce(now)
        self._reliability_tick(now)

    # -- watermark GC -------------------------------------------------------------------

    def _collect(self, dot: Dot) -> None:
        """Forget a globally-executed dot: its record and its committed-
        timestamp archive entries."""
        record = self._info.pop(dot, None)
        assert record is None or record.status == "execute", (
            f"collecting {dot} in status {record.status}: watermark ran "
            "ahead of local execution"
        )
        if record is not None and record.command is not None:
            committed = self._committed_per_key
            for key in record.command.keys:
                archive = committed.get(key)
                if archive is not None and archive.pop(dot, None) is not None:
                    if not archive:
                        del committed[key]

    # -- introspection -------------------------------------------------------------------

    def blocked_count(self) -> int:
        """Number of replies currently delayed by the wait condition."""
        return len(self._deferred)

    def memory_footprint(self) -> Dict[str, int]:
        footprint = super().memory_footprint()
        footprint["archived"] = sum(
            len(bucket) for bucket in self._committed_per_key.values()
        )
        footprint["peak_live_per_key"] = self.peak_live_per_key
        footprint["conflict_keys"] = len(self._known_per_key) + len(
            self._committed_per_key
        )
        return footprint
