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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.base import ProcessBase
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


@dataclass
class CommandWindow:
    """Client-side real-time window of one command."""

    keys: Tuple[str, ...]
    submitted_at: float
    replied_at: Optional[float] = None


@dataclass
class ExecutionTraceRecorder:
    """Collects execution events and client windows for one run."""

    events_by_process: Dict[int, List[TraceEvent]] = field(default_factory=dict)
    windows: Dict[Dot, CommandWindow] = field(default_factory=dict)
    partitions: Dict[int, int] = field(default_factory=dict)

    # -- wiring ----------------------------------------------------------------

    def attach(self, processes: Sequence[ProcessBase]) -> "ExecutionTraceRecorder":
        """Subscribe to the execution events of every given process."""
        for process in processes:
            self.partitions[process.process_id] = process.partition
            self.events_by_process.setdefault(process.process_id, [])
            process.add_execution_listener(self._listener_for(process))
        return self

    def _listener_for(self, process: ProcessBase):
        events = self.events_by_process[process.process_id]
        partition = process.partition

        def listener(process_id: int, dot: Dot, command, now: float) -> None:
            events.append(
                TraceEvent(
                    process_id=process_id,
                    partition=partition,
                    dot=dot,
                    keys=tuple(command.keys),
                    timestamp=process.committed_timestamp(dot),
                    time=now,
                    write_keys=tuple(op.key for op in command.ops if op.is_write()),
                )
            )

        return listener

    # -- client windows ---------------------------------------------------------

    def note_submit(self, dot: Dot, keys: Sequence[str], now: float) -> None:
        """Record the client-side submission time of ``dot``."""
        if dot not in self.windows:
            self.windows[dot] = CommandWindow(keys=tuple(keys), submitted_at=now)

    def note_reply(self, dot: Dot, now: float) -> None:
        """Record the client-side completion time of ``dot``."""
        window = self.windows.get(dot)
        if window is not None and window.replied_at is None:
            window.replied_at = now

    # -- inspection --------------------------------------------------------------

    def event_count(self) -> int:
        return sum(len(events) for events in self.events_by_process.values())

    def check(self):
        """Run the full consistency check over the recorded trace."""
        from repro.analysis.consistency import check_trace

        return check_trace(self)
