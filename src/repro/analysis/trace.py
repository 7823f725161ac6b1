"""Execution-trace recording for the consistency checker.

An :class:`ExecutionTraceRecorder` attaches to protocol processes through
:meth:`repro.core.base.ProcessBase.add_execution_listener` and records, per
replica, the sequence of executed commands — identifier, keys, partition and
(for the timestamp-ordered protocols) the committed timestamp read off the
process at execution time.  Client submit/reply times are recorded as
*windows* so the checker can assert PSMR's real-time order.

Recording is observation-only: it never touches protocol state, RNG draws or
the event schedule, so a traced run produces byte-identical results to an
untraced one.

:meth:`ExecutionTraceRecorder.snapshot` adds each replica's end-of-run
:class:`ReplicaState` for the liveness row; the small-model explorer, whose
pickled processes keep no listener, uses :meth:`~ExecutionTraceRecorder.rebuild`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.base import ProcessBase
from repro.core.commands import Command, Partitioner
from repro.core.identifiers import Dot


class TraceEvent(NamedTuple):
    """One command execution at one replica."""

    process_id: int
    partition: int
    dot: Dot
    keys: Tuple[str, ...]
    #: Committed timestamp at execution time
    #: (:meth:`ProcessBase.committed_timestamp`): an ``int`` for Tempo, a
    #: ``(clock, rank)`` tuple for Caesar, ``None`` for the protocols that
    #: do not order execution by an agreed timestamp (Atlas/EPaxos/Janus
    #: execute by dependency ordering, FPaxos by slot) — their events skip
    #: the timestamp checks.
    timestamp: Optional[object]
    time: float
    #: Subset of ``keys`` the command *writes*.  The consistency checks use
    #: it for the conflict relation (§3.3): two commands conflict on a key
    #: only if at least one writes it, so read-read pairs are unordered.
    #: ``None`` (e.g. hand-built events in tests) is the conservative
    #: reading: every key counts as written.
    write_keys: Optional[Tuple[str, ...]] = None


def _event(process: ProcessBase, dot: Dot, command: Command, now: float) -> TraceEvent:
    return TraceEvent(
        process_id=process.process_id,
        partition=process.partition,
        dot=dot,
        keys=tuple(command.keys),
        timestamp=process.committed_timestamp(dot),
        time=now,
        write_keys=tuple(op.key for op in command.ops if op.is_write()),
    )


class ReplicaState(NamedTuple):
    """One replica at the end of a run."""

    alive: bool
    #: Identifiers in a pending phase (:meth:`ProcessBase.pending_dots`).
    pending: Tuple[Dot, ...]
    #: Identifiers committed here whose record is live
    #: (:meth:`ProcessBase.committed_dots`).
    committed: Tuple[Dot, ...]


@dataclass
class CommandWindow:
    """Client-side real-time window of one command."""

    keys: Tuple[str, ...]
    sent_at: float
    replied_at: Optional[float] = None


@dataclass
class ExecutionTraceRecorder:
    """Collects execution events and client windows for one run."""

    events_by_process: Dict[int, List[TraceEvent]] = field(default_factory=dict)
    windows: Dict[Dot, CommandWindow] = field(default_factory=dict)
    partitions: Dict[int, int] = field(default_factory=dict)
    #: End-of-run state per replica (:meth:`snapshot`); liveness needs it.
    replicas: Dict[int, ReplicaState] = field(default_factory=dict)
    #: Whether the processes declare ``TOTAL_TIMESTAMP_ORDER``.
    total_order: bool = False
    #: Which partition owns each key; ``None`` in hand-built traces.
    partitioner: Optional[Partitioner] = None

    # -- wiring ----------------------------------------------------------------

    def attach(self, processes: Sequence[ProcessBase]) -> "ExecutionTraceRecorder":
        """Subscribe to the execution events of every given process."""
        self._register(processes)
        for process in processes:
            events = self.events_by_process[process.process_id]
            process.add_execution_listener(
                lambda _, dot, command, now, process=process, events=events: (
                    events.append(_event(process, dot, command, now))
                )
            )
        return self

    @classmethod
    def rebuild(
        cls, processes: Sequence[ProcessBase], commands: Mapping[Dot, Command]
    ) -> "ExecutionTraceRecorder":
        """The snapshotted trace of a finished run, from each process's
        ``executed`` log and the submitted ``commands`` (a timestamp reads
        ``None`` once the watermark GC dropped its record)."""
        trace = cls()
        trace._register(processes)
        for process in processes:
            trace.events_by_process[process.process_id] = [
                _event(process, dot, commands[dot], 0.0) for dot in process.executed
            ]
        return trace.snapshot(processes)

    def snapshot(self, processes: Sequence[ProcessBase]) -> "ExecutionTraceRecorder":
        """Record every replica's end-of-run :class:`ReplicaState`."""
        for process in processes:
            self.replicas[process.process_id] = ReplicaState(
                process.alive,
                tuple(process.pending_dots()),
                tuple(process.committed_dots()),
            )
        return self

    def _register(self, processes: Sequence[ProcessBase]) -> None:
        for process in processes:
            self.partitions[process.process_id] = process.partition
            self.events_by_process.setdefault(process.process_id, [])
            self.partitioner = process.partitioner
        self.total_order = all(process.TOTAL_TIMESTAMP_ORDER for process in processes)

    # -- client windows ---------------------------------------------------------

    def note_submit(self, dot: Dot, keys: Sequence[str], now: float) -> None:
        """Record the client-side submission time of ``dot``."""
        if dot not in self.windows:
            self.windows[dot] = CommandWindow(keys=tuple(keys), sent_at=now)

    def note_reply(self, dot: Dot, now: float) -> None:
        """Record the client-side completion time of ``dot``."""
        window = self.windows.get(dot)
        if window is not None and window.replied_at is None:
            window.replied_at = now

    # -- inspection --------------------------------------------------------------

    def event_count(self) -> int:
        return sum(len(events) for events in self.events_by_process.values())

    def check(self):
        """:func:`repro.analysis.consistency.check_run` over this trace."""
        from repro.analysis.consistency import check_run

        return check_run(self)
