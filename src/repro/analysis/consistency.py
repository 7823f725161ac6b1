"""The one definition of a correct run: :func:`check_run` over a trace.

Every engine calls it at the end of a run: ``run_experiment`` (through
:meth:`~repro.analysis.trace.ExecutionTraceRecorder.check`), the scenario
matrix and the small-model explorer, which rebuilds its trace after settle.
Its rows are the executable form of PSMR (§2) and Tempo's ordering (§3);
``docs/correctness_spec.md`` tables them with the engines that run them.

* ``execute-twice``: no replica executes an identifier twice.
* ``order-divergence``: replicas of one partition execute the commands
  *conflicting* on a key in one order (on the identifiers both executed),
  and replicas of different partitions order the commands they share alike.
  Two commands conflict on a key only if one writes it (§3.3).
* ``timestamp-order``: a replica of a timestamp-ordered protocol (Tempo,
  Caesar) executes conflicting commands in ``(timestamp, id)`` order; an
  inversion is the footprint of premature stability.
* ``timestamp-divergence``: every replica executed an identifier at the
  same committed timestamp.
* ``real-time-order``: a command that completed at its client before a
  conflicting one was submitted executes first everywhere.
* ``liveness``: every live replica of a partition executed what a live
  replica of it executed or committed and every expected command whose
  submitter did not crash, and holds nothing pending.  ``stuck`` counts what
  live replicas left pending or committed but unexecuted.

Under ``TOTAL_TIMESTAMP_ORDER`` (Tempo) the order rows compare every pair of
a partition's commands.  Only safety rows make ``raise_if_violations``
raise; the caller judges :attr:`ConsistencyReport.converged`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional
from typing import Set, Tuple

from repro.core.identifiers import Dot

#: The code of the liveness row; every other code is a safety violation.
LIVENESS = "liveness"


@dataclass(frozen=True)
class Violation:
    """One invariant violation found in a trace."""

    code: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.code}] {self.detail}"


@dataclass
class ConsistencyReport:
    """Outcome of checking one trace."""

    violations: List[Violation] = field(default_factory=list)
    events: int = 0
    processes: int = 0
    commands: int = 0
    #: Commands live replicas left pending or committed-but-unexecuted;
    #: ``None`` when the trace has no replica states (liveness did not run).
    stuck: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def converged(self) -> bool:
        """No liveness violation."""
        return not any(violation.code == LIVENESS for violation in self.violations)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        line = (
            f"trace check: {status} — {self.events} executions across "
            f"{self.processes} processes, {self.commands} commands"
        )
        if self.stuck is not None:
            state = "converged" if self.converged else "NOT converged"
            line += f"\nliveness: {state}, {self.stuck} stuck"
        return line

    def raise_if_violations(self) -> None:
        """Raise on any violation of a safety row; a liveness violation is
        the caller's to judge (:attr:`converged`)."""
        unsafe = [violation for violation in self.violations if violation.code != LIVENESS]
        if unsafe:
            lines = "\n".join(str(violation) for violation in unsafe)
            raise AssertionError(f"{self.summary()}\n{lines}")


def check_run(
    trace,
    *,
    expected: Optional[Mapping[Dot, FrozenSet[int]]] = None,
    crashed: FrozenSet[int] = frozenset(),
) -> ConsistencyReport:
    """Every row over one finished run.  ``expected`` maps submitted
    commands to the partitions they access; ``crashed`` names the processes
    that crashed, whose commands no one else may have learnt."""
    report = ConsistencyReport(
        events=trace.event_count(),
        processes=len(trace.events_by_process),
        commands=len(
            {event.dot for events in trace.events_by_process.values() for event in events}
            | set(trace.windows)
        ),
    )
    violations = report.violations
    scope = _whole_partition if trace.total_order else _conflicts
    _check_at_most_once(trace, violations)
    _check_order(trace, scope, violations)
    _check_timestamp_monotonicity(trace, scope, violations)
    _check_timestamp_agreement(trace, violations)
    _check_real_time_order(trace, violations)
    if trace.replicas:
        report.stuck = _check_liveness(trace, expected or {}, crashed, violations)
    return report


# -- individual checks -----------------------------------------------------------


def _check_at_most_once(trace, violations: List[Violation]) -> None:
    for process_id, events in trace.events_by_process.items():
        seen = set()
        for event in events:
            if event.dot in seen:
                violations.append(
                    Violation(
                        "execute-twice",
                        f"process {process_id} executed {event.dot} more than once",
                    )
                )
            seen.add(event.dot)


#: An order row's scope: the ``(key, writes it)`` pairs of one event.
Scope = Callable[[object], Iterable[Tuple[str, bool]]]

#: The one "key" every command of a total-order partition touches.
_PARTITION_KEY = "<every key>"


def _conflicts(event) -> List[Tuple[str, bool]]:
    """Each key of the event and whether it writes it (``True`` when the
    event carries no write keys)."""
    writes = event.write_keys
    return [(key, writes is None or key in writes) for key in event.keys]


def _whole_partition(event) -> Tuple[Tuple[str, bool], ...]:
    """Total order: every command conflicts with every other."""
    return ((_PARTITION_KEY, True),)


def _check_order(trace, scope: Scope, violations: List[Violation]) -> None:
    """One order of the conflicting commands fits every replica: the union
    of each replica's per-key conflict order (writes in order, each read
    between the writes around it) has no cycle.  A key's order binds across
    partitions at the partition owning it, so shards order their shared
    commands alike; elsewhere, or without a partitioner, it binds that
    partition's replicas only."""
    partitioner, partitions = trace.partitioner, trace.partitions
    owner: Dict[str, int] = {_PARTITION_KEY: -1}
    successors: Dict[tuple, Set[tuple]] = {}
    for process_id, events in trace.events_by_process.items():
        partition = partitions.get(process_id, 0)
        last_write: Dict[str, tuple] = {}
        reads: Dict[str, List[tuple]] = {}
        for event in events:
            for key, is_write in scope(event):
                if partitioner is not None and key not in owner:
                    owner[key] = partitioner.partition_of(key)
                if owner.get(key) in (partition, -1):
                    node = (-1, "", event.dot)
                else:
                    node = (partition, key, event.dot)
                earlier = reads.pop(key, []) if is_write else []
                if key in last_write:
                    earlier.append(last_write[key])
                if is_write:
                    last_write[key] = node
                else:
                    reads.setdefault(key, []).append(node)
                for before in earlier:
                    if before != node:
                        successors.setdefault(before, set()).add(node)
    cycle = _find_cycle(successors)
    if cycle:
        partition, key, _ = cycle[0]
        where = f" on key {key!r} of partition {partition}" if key else ""
        violations.append(
            Violation(
                "order-divergence",
                f"replicas disagree{where} on the order of "
                f"{' -> '.join(str(node[2]) for node in cycle)}",
            )
        )


def _find_cycle(successors: Mapping[tuple, Set[tuple]]) -> Optional[List[tuple]]:
    """One cycle of the graph, closed on its first node; ``None`` if acyclic."""
    done: Set[tuple] = set()
    for root in sorted(successors):
        if root in done:
            continue
        path, on_path = [root], {root}
        pending = [iter(sorted(successors[root]))]
        while pending:
            following = next(pending[-1], None)
            if following is None:
                on_path.discard(path[-1])
                done.add(path.pop())
                pending.pop()
            elif following in on_path:
                return path[path.index(following) :] + [following]
            elif following not in done:
                path.append(following)
                on_path.add(following)
                pending.append(iter(sorted(successors.get(following, ()))))
    return None


def _check_timestamp_monotonicity(trace, scope: Scope, violations: List[Violation]) -> None:
    """Conflicting executions are strictly increasing in ``(timestamp, id)``
    (per key: Caesar's wait condition legally releases non-conflicting
    commands out of timestamp order)."""
    for process_id, events in trace.events_by_process.items():
        # Per key: the largest (timestamp, id) executed so far over all
        # commands touching it, and over the writes only.  A write must
        # exceed the former (it conflicts with everything), a read only the
        # latter (reads do not conflict with reads).
        max_any: Dict[str, Tuple[tuple, Dot]] = {}
        max_write: Dict[str, Tuple[tuple, Dot]] = {}
        flagged = set()
        for event in events:
            if event.timestamp is None:
                continue
            current = (event.timestamp, event.dot)
            for key, is_write in scope(event):
                bound = max_any.get(key) if is_write else max_write.get(key)
                if (
                    bound is not None
                    and current <= bound[0]
                    and (bound[1], event.dot) not in flagged
                ):
                    # One report per inverted pair, even if they share
                    # several keys.
                    flagged.add((bound[1], event.dot))
                    violations.append(
                        Violation(
                            "timestamp-order",
                            f"process {process_id} executed {event.dot} at "
                            f"timestamp {event.timestamp} after {bound[1]} "
                            f"at timestamp {bound[0][0]} (key {key!r}) — "
                            f"not stable when executed",
                        )
                    )
                if key not in max_any or current > max_any[key][0]:
                    max_any[key] = (current, event.dot)
                if is_write and (key not in max_write or current > max_write[key][0]):
                    max_write[key] = (current, event.dot)


def _check_timestamp_agreement(trace, violations: List[Violation]) -> None:
    """Every replica observed the same committed timestamp per identifier."""
    observed: Dict[Dot, Dict[object, List[int]]] = {}
    for process_id, events in trace.events_by_process.items():
        for event in events:
            if event.timestamp is None:
                continue
            observed.setdefault(event.dot, {}).setdefault(event.timestamp, []).append(
                process_id
            )
    for dot, per_timestamp in observed.items():
        if len(per_timestamp) > 1:
            detail = ", ".join(
                f"{timestamp} at {sorted(processes)}"
                for timestamp, processes in sorted(
                    per_timestamp.items(), key=lambda item: repr(item[0])
                )
            )
            violations.append(
                Violation(
                    "timestamp-divergence",
                    f"{dot} committed with different timestamps: {detail}",
                )
            )


def _check_real_time_order(trace, violations: List[Violation]) -> None:
    """Per process and key, an earlier-executed command submitted after a
    later-executed one's reply is an inversion (the minimum reply time over
    each suffix finds it); commands without a window are skipped."""
    windows = trace.windows
    if not windows:
        return
    infinity = float("inf")
    for process_id, events in trace.events_by_process.items():
        per_key: Dict[str, List[Tuple[Dot, bool]]] = {}
        for event in events:
            if event.dot in windows:
                for key, is_write in _conflicts(event):
                    per_key.setdefault(key, []).append((event.dot, is_write))
        for key, sequence in per_key.items():
            replies = [
                windows[dot].replied_at
                if windows[dot].replied_at is not None
                else infinity
                for dot, _ in sequence
            ]
            # suffix_min_any[i] = min reply time over sequence[i:];
            # suffix_min_write[i] = the same over the writes in sequence[i:].
            # An earlier-executed write is checked against any later command,
            # an earlier-executed read only against later writes (a read
            # pair is not a conflict, so its order carries no obligation).
            suffix_min_any = list(replies)
            suffix_min_write = [
                reply if is_write else infinity
                for reply, (_, is_write) in zip(replies, sequence)
            ]
            for index in range(len(sequence) - 2, -1, -1):
                if suffix_min_any[index + 1] < suffix_min_any[index]:
                    suffix_min_any[index] = suffix_min_any[index + 1]
                if suffix_min_write[index + 1] < suffix_min_write[index]:
                    suffix_min_write[index] = suffix_min_write[index + 1]
            for index, (dot, is_write) in enumerate(sequence[:-1]):
                submitted = windows[dot].sent_at
                suffix = suffix_min_any if is_write else suffix_min_write
                if suffix[index + 1] < submitted:
                    witness = next(
                        later
                        for later, later_write in sequence[index + 1 :]
                        if (is_write or later_write)
                        and windows[later].replied_at is not None
                        and windows[later].replied_at < submitted
                    )
                    violations.append(
                        Violation(
                            "real-time-order",
                            f"process {process_id} key {key!r}: executed {dot} "
                            f"(submitted {submitted:.3f}) before {witness} "
                            f"(replied {windows[witness].replied_at:.3f})",
                        )
                    )
                    break


def _check_liveness(
    trace,
    expected: Mapping[Dot, FrozenSet[int]],
    crashed: FrozenSet[int],
    violations: List[Violation],
) -> int:
    """Every live replica finished what its partition started; returns the
    ``stuck`` count (a committed command whose stability prerequisites were
    lost stalls execution without ever being pending, so it counts too)."""
    replicas = trace.replicas
    partitions = trace.partitions
    executed = {
        process_id: {event.dot for event in events}
        for process_id, events in trace.events_by_process.items()
    }
    live = sorted(process_id for process_id, state in replicas.items() if state.alive)
    owed: Dict[int, Set[Dot]] = {}
    for dot, accessed in expected.items():
        if dot.source not in crashed:
            for partition in accessed:
                owed.setdefault(partition, set()).add(dot)
    for process_id in live:
        owed.setdefault(partitions[process_id], set()).update(
            executed[process_id], replicas[process_id].committed
        )
    stuck = 0
    for process_id in live:
        state = replicas[process_id]
        done = executed[process_id]
        stuck += len(state.pending) + len(set(state.committed) - done)
        missing = owed[partitions[process_id]] - done
        if missing:
            violations.append(
                Violation(
                    LIVENESS,
                    f"process {process_id} never executed "
                    f"{sorted(str(dot) for dot in missing)}",
                )
            )
        elif state.pending:
            violations.append(
                Violation(
                    LIVENESS,
                    f"process {process_id} still holds pending "
                    f"{sorted(str(dot) for dot in state.pending)}",
                )
            )
    return stuck
