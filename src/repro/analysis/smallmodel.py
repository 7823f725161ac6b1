"""Exhaustive small-model exploration of bounded protocol schedules.

TLA+-style explicit-state enumeration, in the spirit of the mechanized
event-system checkers (GeneSyst, BesFS): build a bounded cluster (2–4
processes, one partition, ≤3 conflicting commands), submit every command up
front, then DFS over *all* delivery-order interleavings.  Messages travel on
per-``(sender, destination)`` FIFO channels — the same ordering guarantee
the simulator's deterministic per-pair latencies provide — so a schedule is
a choice, at each step, of which channel delivers its head next.  States
are memoized by a canonical fingerprint (channel contents + protocol state
digest), which collapses the exponential interleaving tree into the
commuting-delivery state lattice.

At every quiescent point (all channels empty) the model runs a
deterministic *settle* phase (periodic ticks — promise broadcast, stability
detection, recovery — with FIFO delivery to quiescence) and then asserts
the protocol's final-state invariants:

* every command executes at every live replica (liveness within bounds);
* all replicas execute in the same order;
* committed timestamps agree per identifier and execution order is
  monotone in ``(timestamp, id)`` — premature stability (e.g. the even-``r``
  majority-index bug in ``PromiseSet.stable_timestamp``) surfaces here;
* for Caesar, execution respects the wait-condition ordering (timestamp
  order among conflicting commands).

The optional coordinator-crash branch crashes one process at every depth of
the schedule (once per path); the settle phase then jumps past the recovery
timeout so Algorithm 4 runs, and the invariants are asserted over the
surviving replicas.

The optional message-loss branch (``lose_kinds``) drops one in-flight
message of any registered kind at every depth (once per path, fair-lossy
links): the model then proves that the repair pass
(:mod:`repro.core.repair` — the blocked side asks for the commit, the
promises or the remote ``MStable`` it is missing, and the partition leader
recovers, §B.1) re-delivers what was lost; the full liveness invariant
still holds with no process crashed.  A
two-partition topology (``num_partitions=2``) makes every command
cross-shard, so losing a cross-partition ``MStable`` is exhaustively
enumerated — the model counterpart of the scenario matrix's
``mstable-loss/x-shard`` cell.

The fast-path MCommit elision and relay (fast-quorum members self-commit,
so nobody sends them a commit message, and each of them sends it to its
share of the other processes) and the globally-executed watermark exchange
are part of the model.  Every reachable state — not just quiescent
ones — is checked against the collection-safety invariant: a dot at or
below any process's watermark must have executed at EVERY replica, i.e. no
committed command's bookkeeping is ever dropped before it is globally
executed.
"""

from __future__ import annotations

import copy
import io
import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.consistency import Violation
from repro.cluster.replicas import build_replicas
from repro.core.base import ProcessBase
from repro.core.commands import Command, Partitioner
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot
from repro.core.process import TempoProcess
from repro.protocols.caesar import CaesarProcess

#: A channel is the FIFO of in-flight messages from one process to another.
Channels = Dict[Tuple[int, int], List[object]]


@dataclass
class ExplorationResult:
    """Outcome of one exhaustive exploration."""

    protocol: str
    states_explored: int = 0
    distinct_states: int = 0
    final_states: int = 0
    max_depth: int = 0
    complete: bool = True
    #: Why the DFS ended early: "" (ran to completion), "max_states", or
    #: "first-violation" (``stop_at_first_violation`` unwound the search).
    stop_reason: str = ""
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        suffix = "" if self.complete else f" (stopped early: {self.stop_reason})"
        return (
            f"{self.protocol} small model: {status} — "
            f"{self.states_explored} states explored "
            f"({self.distinct_states} distinct, {self.final_states} final, "
            f"depth ≤ {self.max_depth}){suffix}"
        )


class _StateBudgetExceeded(Exception):
    pass


class _FoundViolation(Exception):
    pass


def _snapshot(processes: Sequence[ProcessBase], channels: Channels):
    """Capture a branchable copy of the model state.

    Pickling the whole ``(processes, channels)`` pair round-trips roughly
    twice as fast as :func:`copy.deepcopy`, and the DFS restores one copy
    per branch, so this dominates exploration throughput.  Deepcopy remains
    the fallback for protocol state that does not pickle (e.g. an
    ``apply_fn`` closure).
    """
    try:
        blob = pickle.dumps((list(processes), channels), pickle.HIGHEST_PROTOCOL)
    except Exception:
        state = (list(processes), channels)
        return lambda: copy.deepcopy(state)
    return lambda: pickle.loads(blob)


def _drain_outboxes(processes: Sequence[ProcessBase], channels: Channels) -> None:
    """Move every pending outgoing message onto its FIFO channel.

    Client-addressed envelopes (negative destinations) are dropped — the
    model has no clients; liveness is asserted on the replicas directly.
    """
    for process in processes:
        if not process.outbox:
            continue
        for envelope in process.drain_outbox():
            if envelope.destination < 0:
                continue
            channels.setdefault(
                (envelope.sender, envelope.destination), []
            ).append(envelope.message)


def _pump_fifo(processes: Sequence[ProcessBase], channels: Channels, now: float) -> None:
    """Deliver every in-flight message in deterministic FIFO order."""
    for _ in range(10_000):
        pairs = sorted(pair for pair, queue in channels.items() if queue)
        if not pairs:
            return
        for pair in pairs:
            queue = channels.get(pair)
            if not queue:
                continue
            message = queue.pop(0)
            if not queue:
                del channels[pair]
            target = processes[pair[1]]
            if target.alive:
                target.deliver(pair[0], message, now)
            _drain_outboxes(processes, channels)
    raise RuntimeError("small-model settle did not quiesce")  # pragma: no cover


class _Explorer:
    """Generic DFS over delivery interleavings with memoized fingerprints."""

    def __init__(
        self,
        result: ExplorationResult,
        digest: Callable[[ProcessBase], object],
        settle: Callable[[List[ProcessBase], Channels, bool], None],
        final_check: Callable[[List[ProcessBase], bool, List[Violation]], None],
        crash_process: Optional[int],
        max_states: int,
        state_check: Callable[[Sequence[ProcessBase], List[Violation]], None],
        stop_at_first_violation: bool = False,
        lose_predicate: Optional[Callable[[object], bool]] = None,
    ) -> None:
        self.result = result
        self.digest = digest
        self.settle = settle
        self.final_check = final_check
        self.crash_process = crash_process
        self.max_states = max_states
        self.stop_at_first_violation = stop_at_first_violation
        self.state_check = state_check
        self.lose_predicate = lose_predicate
        self.seen: Set[object] = set()

    def fingerprint(
        self,
        processes: Sequence[ProcessBase],
        channels: Channels,
        crashed: bool,
        lost: bool,
    ) -> object:
        in_flight = tuple(
            (pair, tuple(repr(message) for message in queue))
            for pair, queue in sorted(channels.items())
            if queue
        )
        return (crashed, lost, in_flight, tuple(self.digest(p) for p in processes))

    def explore(
        self,
        processes: List[ProcessBase],
        channels: Channels,
        crashed: bool,
        lost: bool,
        depth: int,
    ) -> None:
        fingerprint = self.fingerprint(processes, channels, crashed, lost)
        if fingerprint in self.seen:
            return
        self.seen.add(fingerprint)
        result = self.result
        result.states_explored += 1
        result.distinct_states = len(self.seen)
        if depth > result.max_depth:
            result.max_depth = depth
        if result.states_explored > self.max_states:
            raise _StateBudgetExceeded
        # Invariants that must hold in EVERY reachable state, not just at
        # quiescence (TLA+-style safety properties).
        self.state_check(processes, result.violations)
        if result.violations and self.stop_at_first_violation:
            raise _FoundViolation
        choices = sorted(
            pair
            for pair, queue in channels.items()
            if queue and processes[pair[1]].alive
        )
        restore = _snapshot(processes, channels)
        if not choices:
            final_processes, final_channels = restore()
            self.settle(final_processes, final_channels, crashed or lost)
            result.final_states += 1
            self.final_check(final_processes, crashed, result.violations)
            if result.violations and self.stop_at_first_violation:
                raise _FoundViolation
        for pair in choices:
            branch_processes, branch_channels = restore()
            queue = branch_channels[pair]
            message = queue.pop(0)
            if not queue:
                del branch_channels[pair]
            branch_processes[pair[1]].deliver(pair[0], message, 0.0)
            _drain_outboxes(branch_processes, branch_channels)
            self.explore(branch_processes, branch_channels, crashed, lost, depth + 1)
        if self.lose_predicate is not None and not lost:
            # Message-loss transition (fair-lossy links): at every depth,
            # any deliverable head message matching the predicate may
            # instead vanish in transit — once per path, so the model stays
            # bounded while covering a loss at every protocol stage.
            for pair in choices:
                if not self.lose_predicate(channels[pair][0]):
                    continue
                branch_processes, branch_channels = restore()
                queue = branch_channels[pair]
                queue.pop(0)
                if not queue:
                    del branch_channels[pair]
                self.explore(
                    branch_processes, branch_channels, crashed, True, depth + 1
                )
        if self.crash_process is not None and not crashed:
            branch_processes, branch_channels = restore()
            victim = self.crash_process
            branch_processes[victim].crash()
            # Crash-stop: in-flight traffic to and from the victim is lost,
            # and the failure detector eventually reports the crash.
            for pair in list(branch_channels):
                if victim in pair:
                    del branch_channels[pair]
            for process in branch_processes:
                if process.process_id != victim:
                    process.set_alive_view(victim, False)
            self.explore(branch_processes, branch_channels, True, lost, depth + 1)


def _run(
    result: ExplorationResult,
    processes: List[ProcessBase],
    digest,
    settle,
    final_check,
    crash_process: Optional[int],
    max_states: int,
    state_check,
    stop_at_first_violation: bool = False,
    lose_predicate=None,
) -> ExplorationResult:
    channels: Channels = {}
    _drain_outboxes(processes, channels)
    explorer = _Explorer(
        result,
        digest,
        settle,
        final_check,
        crash_process,
        max_states,
        state_check,
        stop_at_first_violation=stop_at_first_violation,
        lose_predicate=lose_predicate,
    )
    try:
        explorer.explore(processes, channels, False, False, 0)
    except _FoundViolation:
        result.complete = False
        result.stop_reason = "first-violation"
    except _StateBudgetExceeded:
        result.complete = False
        result.stop_reason = "max_states"
        result.violations.append(
            Violation(
                "state-budget",
                f"exploration truncated after {max_states} states — tighten "
                "the model bounds or raise max_states",
            )
        )
    return result


# -- shared final-state checks ----------------------------------------------------


def _check_common_final_state(
    processes: Sequence[ProcessBase],
    expected_dots: Set,
    timestamp_of,
    violations: List[Violation],
    require_all: bool,
) -> None:
    live = [process for process in processes if process.alive]
    # Liveness within the bounded schedule: a command committed anywhere
    # live must execute at every live replica; without a crash, every
    # submitted command must execute everywhere.
    must_execute = set(expected_dots) if require_all else set()
    for process in live:
        must_execute.update(process.executed)
        must_execute.update(process.committed_dots())
    for process in live:
        executed = process.executed
        missing = must_execute - set(executed)
        if missing:
            violations.append(
                Violation(
                    "liveness",
                    f"process {process.process_id} never executed "
                    f"{sorted(str(dot) for dot in missing)} after settle",
                )
            )
        if len(executed) != len(set(executed)):
            violations.append(
                Violation(
                    "execute-twice",
                    f"process {process.process_id} executed a command twice: "
                    f"{executed}",
                )
            )
    # Order agreement across every replica (crashed ones too: their executed
    # prefix is immutable history and must embed in the common order).
    orders = {}
    for process in processes:
        executed = tuple(process.executed)
        orders[process.process_id] = executed
    reference: Optional[Tuple] = None
    for process_id, executed in sorted(orders.items()):
        if reference is None and processes[process_id].alive:
            reference = executed
            continue
        if reference is None:
            continue
        common = set(executed) & set(reference)
        left = [dot for dot in executed if dot in common]
        right = [dot for dot in reference if dot in common]
        if left != right:
            violations.append(
                Violation(
                    "order-divergence",
                    f"process {process_id} executed {left} but the reference "
                    f"order is {right}",
                )
            )
    # Timestamp agreement per dot and per-process monotone execution order.
    timestamps: Dict[object, Dict[object, List[int]]] = {}
    for process in processes:
        previous = None
        for dot in process.executed:
            timestamp = timestamp_of(process, dot)
            if timestamp is None:
                continue
            timestamps.setdefault(dot, {}).setdefault(timestamp, []).append(
                process.process_id
            )
            current = (timestamp, dot)
            if previous is not None and current <= previous:
                violations.append(
                    Violation(
                        "timestamp-order",
                        f"process {process.process_id} executed {dot} at "
                        f"{timestamp} after {previous[1]} at {previous[0]} — "
                        "executed before stable",
                    )
                )
            previous = current
    for dot, per_timestamp in timestamps.items():
        if len(per_timestamp) > 1:
            violations.append(
                Violation(
                    "timestamp-divergence",
                    f"{dot} committed at different timestamps: "
                    f"{sorted(per_timestamp)}",
                )
            )


# -- watermark GC (shared between the Tempo and Caesar models) --------------------


def _gc_digest(process: ProcessBase) -> object:
    """Canonical fingerprint of a process's ``GcTracker`` state."""
    gc = process.gc
    return (
        tuple(sorted(gc._frontier.items())),
        tuple(sorted(gc._watermark.items())),
        tuple(
            (peer, tuple(sorted(clock.items())))
            for peer, clock in sorted(gc._peer_clocks.items())
        ),
        tuple(
            (source, tuple(sorted(pending)))
            for source, pending in sorted(gc._pending.items())
            if pending
        ),
        tuple(sorted(gc._stale)),
        gc._dirty,
    )


def _gc_collection_safety(
    current: Sequence[ProcessBase], violations: List[Violation]
) -> None:
    """The watermark-GC safety invariant, checked in EVERY reachable state.

    A dot at or below any process's globally-executed watermark has had its
    bookkeeping dropped (or is about to); that is sound only if the dot
    already executed at *every* replica — crashed ones included, since the
    watermark can only cover sequences the crashed peer announced as
    executed before dying.  A violation here means a committed command was
    garbage-collected before it was globally executed.
    """
    executed_sets = {
        process.process_id: set(process.executed)
        for process in current
    }
    for process in current:
        gc = process.gc
        for source in sorted(gc._sources):
            watermark = gc.watermark_of(source)
            for sequence in range(1, watermark + 1):
                dot = Dot(source, sequence)
                for peer_id, executed in sorted(executed_sets.items()):
                    if dot not in executed:
                        violations.append(
                            Violation(
                                "gc-before-global-execution",
                                f"process {process.process_id} holds watermark "
                                f"{watermark} for source {source}, collecting "
                                f"{dot}, but process {peer_id} never executed "
                                "it — collected before globally executed",
                            )
                        )


# -- Tempo model ------------------------------------------------------------------


def _tempo_digest(process: TempoProcess) -> object:
    info = tuple(
        sorted(
            (
                dot.source,
                dot.sequence,
                record.phase.name,
                record.timestamp,
                record.final_timestamp or 0,
                record.ballot,
                record.accepted_ballot,
                record.stable_sent,
                tuple(sorted(record.partition_commits.items())),
                # Released (None) once executed: reads as empty.
                tuple(sorted((record.proposals or {}).items())),
                tuple(
                    sorted(
                        record.collected_detached.to_wire().items()
                        if record.collected_detached
                        else ()
                    )
                ),
                tuple(
                    (ts, tuple(sorted(acks)))
                    for ts, acks in sorted((record.consensus_acks or {}).items())
                ),
                tuple(sorted(record.stable_from)),
            )
            for dot, record in process._info.items()
        )
    )
    peers = process.partition_peers()
    buffered = tuple(
        sorted(
            (dot.source, dot.sequence, tuple(sorted(entries)))
            for dot, entries in process._buffered_attached.items()
        )
    )
    return (
        process.process_id,
        process.alive,
        process.clock.value,
        tuple(process.promises.frontier(peers)),
        len(process.promises),
        buffered,
        tuple((dot.source, dot.sequence) for dot in process.executed),
        _gc_digest(process),
        info,
    )


def explore_tempo(
    num_processes: int = 3,
    faults: int = 1,
    num_commands: int = 2,
    num_keys: int = 1,
    crash_coordinator: bool = False,
    lose_kinds: Optional[Sequence[str]] = None,
    num_partitions: int = 1,
    ack_broadcast: bool = True,
    max_states: int = 400_000,
    settle_rounds: int = 8,
    stop_at_first_violation: bool = False,
) -> ExplorationResult:
    """Exhaustively explore a bounded Tempo schedule.

    ``num_commands`` conflicting commands (cycling over ``num_keys`` keys)
    are submitted up front at distinct replicas; every delivery interleaving
    is explored.  With ``crash_coordinator`` the replica submitting the
    first command may crash at any depth, exercising recovery (Algorithm 4).

    The loss transition generalises over message kinds: ``lose_kinds`` names
    the registered message classes (for instance ``["MCommit", "MStable"]``)
    of which one in-flight instance may vanish at any depth (once per path,
    fair-lossy links).  No process crashes on a loss path, so the
    full liveness invariant stands — the repair pass must pull whatever
    was lost.

    ``num_partitions=2`` builds a two-partition topology (``num_processes``
    replicas *per partition*); every command then accesses one key in each
    partition, so commit and stability must cross the shard boundary and a
    lost cross-partition ``MStable`` is exhaustively enumerated — the model
    counterpart of the scenario matrix's ``mstable-loss/x-shard`` cell.

    The digest covers the GC tracker, and every reachable state is checked
    against the collection-safety invariant (no dot collected before it
    executed everywhere).

    State-space sizes (exhaustive, clean, ``r=3``): two commands close in
    88 states, three in 1 682 (64 and 976 with ``ack_broadcast=False``);
    ``r=4`` with two commands in 10 101.  The fingerprint must stay a pure
    function of protocol state — an object address in it (a default
    ``repr``) makes every restored copy a new state and turns these
    lattices into interleaving trees of 10^4-10^5 nodes.  Mutation hunts
    should pass ``stop_at_first_violation=True``: the DFS unwinds at the
    first settled state that breaks an invariant instead of enumerating
    the rest of the space.
    """
    config = ProtocolConfig(
        num_processes=num_processes, faults=faults, num_partitions=num_partitions
    )
    if num_partitions == 1:
        partitioner = Partitioner(1)
    else:
        partitioner = Partitioner(
            num_partitions,
            explicit={
                f"key{partition}": partition for partition in range(num_partitions)
            },
        )
    processes = build_replicas(
        "tempo", config, partitioner=partitioner, ack_broadcast=ack_broadcast
    ).processes
    dots = []
    for index in range(num_commands):
        submitter = processes[index % len(processes)]
        if num_partitions == 1:
            keys = [f"key{index % num_keys}"]
        else:
            # One key per partition: every command is cross-shard, so its
            # execution needs the remote partitions' MStable notifications.
            keys = [f"key{partition}" for partition in range(num_partitions)]
        command = submitter.new_command(keys)
        submitter.submit(command, 0.0)
        dots.append(command.dot)
    expected = set(dots)

    interval = config.promise_interval
    recovery_at = config.recovery_timeout + interval
    #: GC-safety violations observed at intermediate settle rounds of the
    #: CURRENT final state; ``final_check`` folds them into the result (the
    #: explorer calls settle and final_check back to back per final state).
    settle_violations: List[Violation] = []

    def settle(
        final_processes: List[ProcessBase], channels: Channels, degraded: bool
    ) -> None:
        # Periodic duties at the normal cadence first (promise broadcast and
        # stability detection), then — so recovery can run for schedules
        # that crashed the coordinator or lost a payload — the same cadence
        # past the recovery timeout.
        times = [interval * (round + 1) for round in range(settle_rounds)]
        times.extend(recovery_at + interval * round for round in range(settle_rounds))
        if degraded:
            # Crash/loss schedules need a second timeout: a dot first heard
            # of during the recovery window above (a commit hint, say) is
            # only overdue one recovery timeout later, and the repair
            # pass's patience with a frozen frontier or a missing remote
            # MStable is two timeouts from the first tick.
            times.extend(
                2 * recovery_at + interval * round for round in range(settle_rounds)
            )
        for now in times:
            for process in final_processes:
                if process.alive:
                    process.tick(now)
            _drain_outboxes(final_processes, channels)
            _pump_fifo(final_processes, channels, now)
            if not settle_violations:
                # The watermark only moves during the settle-phase clock
                # exchange, so the transient windows live here: check after
                # every round, not just at the settled state.
                _gc_collection_safety(final_processes, settle_violations)

    def timestamp_of(process: TempoProcess, dot) -> Optional[int]:
        return process.committed_timestamp(dot)

    majority = num_processes // 2 + 1

    def stability_safety(
        current: Sequence[ProcessBase], violations: List[Violation]
    ) -> None:
        # Theorem 1, re-derived independently of the implementation: a
        # timestamp ``s`` may be considered stable at a process only if a
        # strict majority of its peers have promised every timestamp up to
        # ``s``.  The even-``r`` majority-index regression (picking the
        # ``r//2``-th sorted frontier instead of the ``(r-1)//2``-th) yields
        # an ``s`` backed by only ``r/2`` processes — one short — and is
        # caught here at the first asymmetric frontier, long before the
        # premature execution it licenses would diverge.
        for process in current:
            if not process.alive:
                continue
            peers = list(process.partition_peers())
            stable = process.promises.stable_timestamp(peers)
            if stable <= 0:
                continue
            backed = sum(
                1
                for frontier in process.promises.frontier(peers)
                if frontier >= stable
            )
            if backed < majority:
                violations.append(
                    Violation(
                        "stability-safety",
                        f"process {process.process_id} considers timestamp "
                        f"{stable} stable with promises from only {backed} of "
                        f"{len(peers)} processes (majority is {majority}) — "
                        "Theorem 1 requires a strict majority",
                    )
                )

    def state_check(
        current: Sequence[ProcessBase], violations: List[Violation]
    ) -> None:
        stability_safety(current, violations)
        _gc_collection_safety(current, violations)

    def final_check(
        final_processes: List[ProcessBase], crashed: bool, violations: List[Violation]
    ) -> None:
        _check_common_final_state(
            final_processes,
            expected,
            timestamp_of,
            violations,
            require_all=not crashed,
        )
        # Collection happens mostly during settle (the clock exchange
        # rides the periodic tick), so re-assert GC safety on the
        # settled state, not just along the schedule — and fold in any
        # transient violation the per-round settle checks observed.
        _gc_collection_safety(final_processes, violations)
        violations.extend(settle_violations)
        settle_violations.clear()

    lose_names = set(lose_kinds or ())
    protocol_label = f"tempo r={num_processes} f={faults}"
    if num_partitions > 1:
        protocol_label += f" p={num_partitions}"
    result = ExplorationResult(protocol=protocol_label)
    return _run(
        result,
        processes,
        _tempo_digest,
        settle,
        final_check,
        crash_process=dots[0].source if crash_coordinator else None,
        max_states=max_states,
        stop_at_first_violation=stop_at_first_violation,
        state_check=state_check,
        lose_predicate=(
            (lambda message: type(message).__name__ in lose_names)
            if lose_names
            else None
        ),
    )


# -- Caesar model -----------------------------------------------------------------


def _caesar_digest(process: CaesarProcess) -> object:
    info = tuple(
        sorted(
            (
                dot.source,
                dot.sequence,
                record.status,
                record.timestamp,
                tuple(
                    sorted(
                        (dep.source, dep.sequence) for dep in record.dependencies
                    )
                ),
                tuple(
                    (sender, tuple(sorted((d.source, d.sequence) for d in deps)))
                    for sender, deps in sorted(record.acks.items())
                ),
            )
            for dot, record in process._info.items()
        )
    )
    deferred = tuple(
        sorted(
            (entry.dot.source, entry.dot.sequence, entry.coordinator)
            for entry in process._deferred.values()
        )
    )
    return (
        process.process_id,
        process.clock,
        deferred,
        tuple((dot.source, dot.sequence) for dot in process.executed),
        _gc_digest(process),
        info,
    )


def explore_caesar(
    num_processes: int = 3,
    faults: int = 1,
    num_commands: int = 2,
    num_keys: int = 1,
    max_states: int = 400_000,
) -> ExplorationResult:
    """Exhaustively explore a bounded Caesar schedule.

    Checks that the wait condition and dependency-based stability never let
    conflicting commands execute out of timestamp order or diverge across
    replicas.  Caesar here commits purely through messages (no periodic
    duties), so the settle phase only drives the execution retry tick —
    plus a second round of ticks one ``gc_interval`` later so the clock
    exchange and collection run before the final checks (the GC safety
    invariant is asserted in every reachable state either way).
    """
    config = ProtocolConfig(num_processes=num_processes, faults=faults)
    processes = build_replicas("caesar", config).processes
    dots = []
    for index in range(num_commands):
        submitter = processes[index % num_processes]
        command = submitter.new_command([f"key{index % num_keys}"])
        submitter.submit(command, 0.0)
        dots.append(command.dot)
    expected = set(dots)

    times = [float(round + 1) for round in range(4)]
    # A second tick window one gc_interval later: executions recorded
    # during the first window get announced, ingested and collected.
    times.extend(config.gc_interval + round + 1 for round in range(4))
    settle_violations: List[Violation] = []

    def settle(
        final_processes: List[ProcessBase], channels: Channels, crashed: bool
    ) -> None:
        for now in times:
            for process in final_processes:
                process.tick(now)
            _drain_outboxes(final_processes, channels)
            _pump_fifo(final_processes, channels, now)
            if not settle_violations:
                _gc_collection_safety(final_processes, settle_violations)

    def timestamp_of(process: CaesarProcess, dot) -> Optional[object]:
        record = process._info.get(dot)
        if record is not None and record.status in ("commit", "execute"):
            return record.timestamp
        return None

    def final_check(
        final_processes: List[ProcessBase], crashed: bool, violations: List[Violation]
    ) -> None:
        _check_common_final_state(
            final_processes, expected, timestamp_of, violations, require_all=True
        )
        _gc_collection_safety(final_processes, violations)
        violations.extend(settle_violations)
        settle_violations.clear()

    result = ExplorationResult(protocol=f"caesar r={num_processes} f={faults}")
    return _run(
        result,
        processes,
        _caesar_digest,
        settle,
        final_check,
        crash_process=None,
        max_states=max_states,
        state_check=_gc_collection_safety,
    )


# -- CLI entry point ---------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one bounded model from the command line; non-zero on violations.

    ``python -m repro.analysis.smallmodel --protocol tempo --commands 2``
    prints the exploration summary (state counts, completeness) and every
    violation.  The CI ``analysis`` job uses this to drive the models too
    large for the per-commit pytest gate.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.analysis.smallmodel",
        description="Exhaustive small-model exploration of a bounded schedule.",
    )
    parser.add_argument("--protocol", choices=("tempo", "caesar"), default="tempo")
    parser.add_argument("--processes", type=int, default=3)
    parser.add_argument("--faults", type=int, default=1)
    parser.add_argument("--commands", type=int, default=2)
    parser.add_argument("--keys", type=int, default=1)
    parser.add_argument("--crash", action="store_true", help="crash the coordinator")
    parser.add_argument(
        "--lose-kind",
        action="append",
        default=None,
        metavar="KIND",
        help="allow one in-flight message of this class (e.g. MStable) to be "
        "lost; repeatable (tempo only)",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=1,
        help="number of partitions (PROCESSES replicas each); >1 makes every "
        "command cross-shard (tempo only)",
    )
    parser.add_argument(
        "--ack-broadcast",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="Tempo ack-broadcast optimisation (default on)",
    )
    parser.add_argument("--max-states", type=int, default=400_000)
    parser.add_argument(
        "--bounded",
        action="store_true",
        help="treat a clean run truncated by --max-states as success: a "
        "sound-but-bounded sweep for models too large to close (e.g. the "
        "6-process two-partition topology); any protocol violation inside "
        "the explored prefix still fails",
    )
    args = parser.parse_args(argv)
    if args.protocol == "tempo":
        result = explore_tempo(
            num_processes=args.processes,
            faults=args.faults,
            num_commands=args.commands,
            num_keys=args.keys,
            crash_coordinator=args.crash,
            lose_kinds=args.lose_kind,
            num_partitions=args.partitions,
            ack_broadcast=args.ack_broadcast,
            max_states=args.max_states,
        )
    else:
        result = explore_caesar(
            num_processes=args.processes,
            faults=args.faults,
            num_commands=args.commands,
            num_keys=args.keys,
            max_states=args.max_states,
        )
    print(result.summary())
    for violation in result.violations:
        print(f"  {violation}")
    if args.bounded and result.stop_reason == "max_states":
        protocol_violations = [
            violation
            for violation in result.violations
            if violation.code != "state-budget"
        ]
        return 1 if protocol_violations else 0
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    import sys

    sys.exit(main())
