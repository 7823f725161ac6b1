"""Exhaustive small-model exploration of bounded protocol schedules.

TLA+-style explicit-state enumeration, in the spirit of the mechanized
event-system checkers (GeneSyst, BesFS): :func:`explore` builds a bounded
cluster of any registered protocol with ``build_replicas``, submits every
command up front, then runs a DFS over *all* delivery-order interleavings of
per-``(sender, destination)`` FIFO channels (the ordering the simulator's
per-pair latencies provide).  Tempo, the one protocol whose coordinator
recovery is in the tree, also takes a coordinator crash at any depth; Tempo,
Atlas, EPaxos, Janus* and FPaxos, whose blocked side pulls what loss
strands, take the loss of one message of named kinds at any depth, once per
path.

States are memoized by a fingerprint derived, not written: every process is
digested by :func:`canonical`, a walker over all of its attributes except
those its classes exempt in ``_DIGEST_EXEMPT`` (caches, constant wiring and
statistics, each with its reason), and every in-flight message as the bytes
the runtime ships (:func:`repro.wire.encode`).  New protocol state is thus
digested unless someone exempts it: a field left out would merge distinct
states and prune reachable ones.

Every reachable state is checked for collection safety (no dot at or below
a watermark unexecuted at a replica of a partition it accesses) and, at
Tempo processes, Theorem 1 (a stable timestamp is backed by a strict
majority's promises).  At quiescence one settle schedule built from the
``ProtocolConfig`` timers runs the periodic duties; the settled state is
rebuilt as an execution trace and held to
:func:`repro.analysis.consistency.check_run`, the end-of-run check every
engine shares.
"""

from __future__ import annotations

import copy
import enum
import pickle
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence
from typing import Set, Tuple

from repro.analysis.consistency import Violation, check_run
from repro.analysis.trace import ExecutionTraceRecorder
from repro.cluster.replicas import build_replicas
from repro.core.base import ExecutionLog, ProcessBase
from repro.core.commands import Command, Partitioner
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot
from repro.core.process import TempoProcess
from repro.protocols.registry import PROTOCOLS
from repro.wire import encode, registered_types

#: A channel is the FIFO of in-flight messages from one process to another.
Channels = Dict[Tuple[int, int], List[object]]

#: The protocols with coordinator recovery (Algorithm 4) in the tree: the
#: baselines have none (ROADMAP 4(c)), so a coordinator crash strands them.
_CRASH_TOLERANT = frozenset({"tempo"})
#: The protocols whose blocked side pulls what loss strands
#: (``repro.core.repair``); Caesar re-sends through its retransmit buffer.
_LOSS_TOLERANT = frozenset({"tempo", "atlas", "epaxos", "janus", "fpaxos"})
#: The protocols that order a command across the partitions it accesses;
#: the others run it at the submitter's partition alone.
_PARTIAL_REPLICATION = frozenset({"tempo", "janus"})


@dataclass
class ExplorationResult:
    """Outcome of one exhaustive exploration."""

    protocol: str
    states_explored: int = 0
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
            f"({self.final_states} final, depth ≤ {self.max_depth}){suffix}"
        )


class _StateBudgetExceeded(Exception):
    pass


class _FoundViolation(Exception):
    pass


# -- the derived state digest -------------------------------------------------------

_ATOMS = frozenset({int, float, str, bytes, bool, type(None)})


def _fields(value: object) -> List[str]:
    """``value``'s slots and ``__dict__`` names, sorted, minus the names its
    classes exempt in ``_DIGEST_EXEMPT``."""
    names = set(getattr(value, "__dict__", ()))
    exempt: Set[str] = set()
    for klass in type(value).__mro__:
        declared = vars(klass).get("__slots__", ())
        names.update((declared,) if isinstance(declared, str) else declared)
        exempt.update(vars(klass).get("_DIGEST_EXEMPT", ()))
    return sorted(names - exempt - {"__dict__", "__weakref__"})


def canonical(value: object) -> object:
    """The canonical, hashable form of ``value``, for state fingerprints.

    Atoms stay as they are, a ``Dot`` becomes a pair, an execution log the
    tuple of its dots' pairs (as a list of dots does), an enum its name and a
    ``range`` a pair; lists and tuples keep their order while dicts and sets
    are sorted.  Any other object becomes its class name followed by its
    slots and ``__dict__`` in name order, minus the names its classes list
    in ``_DIGEST_EXEMPT``.  A function, method, type or fieldless object has
    no canonical form and raises ``TypeError`` — never a ``repr``, which
    would put an address in the fingerprint.
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is Dot:
        return (value.source, value.sequence)
    if kind is ExecutionLog:
        return value.canonical()
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (list, tuple)):
        return tuple([canonical(item) for item in value])
    if isinstance(value, dict):
        return tuple(
            sorted([(canonical(key), canonical(item)) for key, item in value.items()])
        )
    if isinstance(value, (set, frozenset)):
        return tuple(sorted([canonical(item) for item in value]))
    if kind is range:
        return (value.start, value.stop)
    if callable(value):
        raise TypeError(f"{kind.__qualname__} {value!r} has no canonical form")
    names = _fields(value)
    if not names:
        raise TypeError(f"{kind.__qualname__} has no fields to digest")
    return (kind.__qualname__, *[canonical(getattr(value, name)) for name in names])


def _in_flight(channels: Channels) -> Tuple[object, ...]:
    """The channels' digest: every undelivered message as the bytes the
    runtime would ship (the codec writes collections sorted, so equal
    messages digest equal however their dicts were filled)."""
    return tuple(
        (pair, tuple([encode(message) for message in queue]))
        for pair, queue in sorted(channels.items())
    )


# -- model plumbing -----------------------------------------------------------------


def _snapshot(processes: Sequence[ProcessBase], channels: Channels):
    """A branchable copy of the model state: pickling round-trips about twice
    as fast as :func:`copy.deepcopy`, the fallback for state that does not
    pickle, and the DFS restores one copy per branch."""
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


def _pop(channels: Channels, pair: Tuple[int, int]) -> object:
    """Take the head of ``pair``'s channel; an emptied channel goes."""
    queue = channels[pair]
    message = queue.pop(0)
    if not queue:
        del channels[pair]
    return message


def _pump_fifo(processes: Sequence[ProcessBase], channels: Channels, now: float) -> None:
    """Deliver every in-flight message in deterministic FIFO order."""
    for _ in range(10_000):
        if not channels:
            return
        for pair in sorted(channels):
            if pair not in channels:
                continue
            message = _pop(channels, pair)
            target = processes[pair[1]]
            if target.alive:
                target.deliver(pair[0], message, now)
            _drain_outboxes(processes, channels)
    raise RuntimeError("small-model settle did not quiesce")  # pragma: no cover


def _settle_times(config: ProtocolConfig, degraded: bool) -> List[float]:
    """The one settle schedule: eight ticks at the tick cadence, eight
    past the recovery timeout (eight more one timeout later on a crash or
    loss path, where the repair pass waits up to two windows), then eight
    one GC interval later, so the last executions are collected before the
    final checks."""
    cadence = config.tick_interval
    recovery = config.recovery_timeout + cadence
    starts = [cadence, recovery] + ([2 * recovery] if degraded else [])
    times = [start + cadence * tick for start in starts for tick in range(8)]
    start = times[-1] + config.gc_interval
    return times + [start + cadence * tick for tick in range(8)]


# -- invariants ---------------------------------------------------------------------


def _gc_collection_safety(
    processes: Sequence[ProcessBase],
    accessed: Mapping[Dot, FrozenSet[int]],
    violations: List[Violation],
) -> None:
    """No dot is collected before it executed everywhere it runs.

    A dot at or below any process's globally-executed watermark for its
    source has had its bookkeeping dropped (or is about to); that is sound
    only if it already executed at every replica of every partition it
    accesses — crashed ones included, since the watermark only covers
    sequences a crashed peer announced before dying.  ``accessed`` maps each
    submitted dot to those partitions.
    """
    executed = [set(process.executed) for process in processes]
    for process in processes:
        for source, watermark in sorted(process.gc._watermark.items()):
            for sequence in range(1, watermark + 1):
                dot = Dot(source, sequence)
                for peer, held in zip(processes, executed):
                    if peer.partition in accessed[dot] and dot not in held:
                        violations.append(
                            Violation(
                                "gc-before-global-execution",
                                f"process {process.process_id} holds watermark "
                                f"{watermark} for source {source}, but process "
                                f"{peer.process_id} never executed {dot}",
                            )
                        )


def _stability_safety(
    processes: Sequence[ProcessBase], violations: List[Violation]
) -> None:
    """Theorem 1, re-derived independently of the implementation.

    A timestamp ``s`` may be stable at a Tempo process only if a strict
    majority of its partition has promised every timestamp up to ``s``.
    The even-``r`` majority-index regression (the ``r//2``-th sorted
    frontier instead of the ``(r-1)//2``-th) yields an ``s`` backed by only
    ``r/2`` processes and is caught at the first asymmetric frontier, long
    before the premature execution it licenses would diverge.
    """
    for process in processes:
        if not process.alive or not isinstance(process, TempoProcess):
            continue
        peers = process.partition_peers()
        stable = process.order.stable_up_to()
        if stable <= 0:
            continue
        majority = process.config.majority
        backed = sum(1 for peer in peers if process.order.frontier(peer) >= stable)
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


# -- the explorer -------------------------------------------------------------------


@dataclass
class _Explorer:
    """DFS over delivery interleavings with memoized fingerprints."""

    result: ExplorationResult
    config: ProtocolConfig
    #: Every submitted dot, with the partitions its command accesses.
    expected: Dict[Dot, FrozenSet[int]]
    #: Every submitted command, for the trace rebuilt after settle.
    commands: Dict[Dot, Command]
    crash_victim: Optional[int]
    lose_names: FrozenSet[str]
    max_states: int
    stop_at_first_violation: bool
    seen: Set[object] = field(default_factory=set)

    #: A transition re-digests only the processes it touched; the others'
    #: digests are inherited from the parent state.  Tests turn this off to
    #: show the inheritance changes no count.
    inherit_digests = True

    def redigest(
        self,
        digests: Tuple[object, ...],
        processes: Sequence[ProcessBase],
        touched: Optional[int],
    ) -> Tuple[object, ...]:
        """Digests after a transition that changed process ``touched``
        (``None``: possibly every process)."""
        if touched is None or not self.inherit_digests:
            return tuple(canonical(process) for process in processes)
        return (
            digests[:touched] + (canonical(processes[touched]),) + digests[touched + 1 :]
        )

    def _stop_if_violated(self) -> None:
        if self.result.violations and self.stop_at_first_violation:
            raise _FoundViolation

    def settle_and_check(
        self, processes: List[ProcessBase], channels: Channels, crashed: bool, lost: bool
    ) -> None:
        """Run the settle schedule, then ``check_run`` over the trace the
        settled processes rebuild."""
        violations = self.result.violations
        transient: List[Violation] = []
        for now in _settle_times(self.config, crashed or lost):
            for process in processes:
                if process.alive:
                    process.tick(now)
            _drain_outboxes(processes, channels)
            _pump_fifo(processes, channels, now)
            if not transient:
                # The watermark moves mostly during the settle-phase clock
                # exchange, so the transient windows live here: check after
                # every round, not just at the settled state.
                _gc_collection_safety(processes, self.expected, transient)
        trace = ExecutionTraceRecorder.rebuild(processes, self.commands)
        victims = frozenset([self.crash_victim]) if crashed else frozenset()
        violations.extend(
            check_run(trace, expected=self.expected, crashed=victims).violations
        )
        _gc_collection_safety(processes, self.expected, violations)
        violations.extend(transient)

    def explore(
        self,
        processes: List[ProcessBase],
        channels: Channels,
        digests: Tuple[object, ...],
        crashed: bool,
        lost: bool,
        depth: int,
    ) -> None:
        fingerprint = (crashed, lost, _in_flight(channels), digests)
        if fingerprint in self.seen:
            return
        self.seen.add(fingerprint)
        result = self.result
        result.states_explored += 1
        result.max_depth = max(result.max_depth, depth)
        if result.states_explored > self.max_states:
            raise _StateBudgetExceeded
        # Invariants that must hold in EVERY reachable state, not just at
        # quiescence (TLA+-style safety properties).
        _stability_safety(processes, result.violations)
        _gc_collection_safety(processes, self.expected, result.violations)
        self._stop_if_violated()
        choices = sorted(pair for pair in channels if processes[pair[1]].alive)
        restore = _snapshot(processes, channels)
        if not choices:
            result.final_states += 1
            self.settle_and_check(*restore(), crashed, lost)
            self._stop_if_violated()
        for pair in choices:
            branch_processes, branch_channels = restore()
            message = _pop(branch_channels, pair)
            branch_processes[pair[1]].deliver(pair[0], message, 0.0)
            _drain_outboxes(branch_processes, branch_channels)
            self.explore(
                branch_processes,
                branch_channels,
                self.redigest(digests, branch_processes, pair[1]),
                crashed,
                lost,
                depth + 1,
            )
        if self.lose_names and not lost:
            # Message-loss transition (fair-lossy links): at every depth, any
            # deliverable head message of a named kind may instead vanish in
            # transit — once per path, so the model stays bounded while
            # covering a loss at every protocol stage.
            for pair in choices:
                if type(channels[pair][0]).__name__ not in self.lose_names:
                    continue
                branch_processes, branch_channels = restore()
                _pop(branch_channels, pair)
                self.explore(
                    branch_processes, branch_channels, digests, crashed, True, depth + 1
                )
        if self.crash_victim is not None and not crashed:
            branch_processes, branch_channels = restore()
            victim = self.crash_victim
            branch_processes[victim].crash()
            # Crash-stop: in-flight traffic to and from the victim is lost,
            # and the failure detector eventually reports the crash.
            for pair in list(branch_channels):
                if victim in pair:
                    del branch_channels[pair]
            for process in branch_processes:
                if process.process_id != victim:
                    process.set_alive_view(victim, False)
            self.explore(
                branch_processes,
                branch_channels,
                self.redigest(digests, branch_processes, None),
                True,
                lost,
                depth + 1,
            )


def explore(
    protocol: str,
    *,
    num_processes: int = 3,
    faults: int = 1,
    num_commands: int = 2,
    num_keys: int = 1,
    num_partitions: int = 1,
    crash_coordinator: bool = False,
    lose_kinds: Optional[Sequence[str]] = None,
    max_states: int = 400_000,
    stop_at_first_violation: bool = False,
    **protocol_kwargs,
) -> ExplorationResult:
    """Exhaustively explore a bounded schedule of ``protocol``.

    ``num_commands`` conflicting commands (cycling over ``num_keys`` keys)
    are submitted up front at distinct replicas and every delivery
    interleaving is explored.  With ``num_partitions > 1`` there are
    ``num_processes`` replicas per partition and every command accesses one
    key in each partition.  ``protocol_kwargs`` reach the protocol
    constructor (``ack_broadcast=False`` for Tempo, say), which rejects the
    ones it does not take.

    ``crash_coordinator`` lets the first command's submitter crash at any
    depth; ``lose_kinds`` names the registered message kinds (for instance
    ``["MCommit", "MStable"]``) of which one in-flight instance may vanish
    at any depth.  The crash needs coordinator recovery (Tempo), the loss a
    protocol that pulls what it strands (all but Caesar); each
    raises ``ValueError`` elsewhere, as do an unregistered kind and
    partitions on a protocol that does not order a command across them: a
    typo must not explore a loss-free lattice and report it clean.

    Counts are exact: the fingerprint is a pure function of protocol state,
    so a count that moves means the reachable states moved.  Mutation hunts
    should pass ``stop_at_first_violation=True``: the DFS unwinds at the
    first state that breaks an invariant.
    """
    lose_names = frozenset(lose_kinds or ())
    for option, asked, able in (
        ("crash_coordinator", crash_coordinator, _CRASH_TOLERANT),
        ("lose_kinds", lose_names, _LOSS_TOLERANT),
    ):
        if asked and protocol not in able:
            raise ValueError(f"{option} needs one of {sorted(able)}, not {protocol}")
    unknown = lose_names - {kind.__name__ for kind in registered_types()}
    if unknown:
        raise ValueError(f"lose_kinds names unregistered kinds {sorted(unknown)}")
    if num_partitions > 1 and protocol not in _PARTIAL_REPLICATION:
        raise ValueError(
            f"{protocol} does not replicate a command across partitions: "
            f"num_partitions > 1 needs one of {sorted(_PARTIAL_REPLICATION)}"
        )
    config = ProtocolConfig(
        num_processes=num_processes, faults=faults, num_partitions=num_partitions
    )
    partitioner = Partitioner(
        num_partitions,
        explicit={f"key{partition}": partition for partition in range(num_partitions)},
    )
    processes = build_replicas(
        protocol, config, partitioner=partitioner, **protocol_kwargs
    ).processes
    expected = {}
    commands = {}
    for index in range(num_commands):
        submitter = processes[index % len(processes)]
        if num_partitions == 1:
            keys = [f"key{index % num_keys}"]
        else:
            keys = [f"key{partition}" for partition in range(num_partitions)]
        command = submitter.new_command(keys)
        submitter.submit(command, 0.0)
        expected[command.dot] = command.partitions(partitioner)
        commands[command.dot] = command
    label = f"{protocol} r={num_processes} f={faults}"
    if num_partitions > 1:
        label += f" p={num_partitions}"
    result = ExplorationResult(protocol=label)
    victim = processes[0].process_id if crash_coordinator else None
    explorer = _Explorer(
        result, config, expected, commands, victim, lose_names, max_states,
        stop_at_first_violation,
    )
    channels: Channels = {}
    _drain_outboxes(processes, channels)
    try:
        explorer.explore(
            processes, channels, explorer.redigest((), processes, None), False, False, 0
        )
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


# -- CLI entry point ----------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one bounded model from the command line; non-zero on violations.

    ``python -m repro.analysis.smallmodel --protocol atlas --commands 3``
    prints the exploration summary (state counts, completeness) and every
    violation.  The CI ``analysis`` job uses this to drive the models too
    large for the per-commit pytest gate.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.analysis.smallmodel",
        description="Exhaustive small-model exploration of a bounded schedule.",
    )
    parser.add_argument("--protocol", choices=sorted(PROTOCOLS), default="tempo")
    parser.add_argument("--processes", type=int, default=3)
    parser.add_argument("--faults", type=int, default=1)
    parser.add_argument("--commands", type=int, default=2)
    parser.add_argument("--keys", type=int, default=1)
    parser.add_argument(
        "--crash", action="store_true", help="crash the coordinator (tempo only)"
    )
    parser.add_argument(
        "--lose-kind",
        action="append",
        default=None,
        metavar="KIND",
        help="allow one in-flight message of this registered kind (e.g. "
        "MStable) to be lost; repeatable (all protocols but caesar)",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=1,
        help="number of partitions (PROCESSES replicas each); >1 makes every "
        "command cross-shard",
    )
    parser.add_argument(
        "--ack-broadcast",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="Tempo's ack-broadcast optimisation (the protocol default is on); "
        "protocols without it reject the flag",
    )
    parser.add_argument("--max-states", type=int, default=400_000)
    parser.add_argument(
        "--bounded",
        action="store_true",
        help="treat a clean run truncated by --max-states as success (a "
        "bounded sweep of a model too large to close); any protocol violation "
        "inside the explored prefix still fails",
    )
    args = parser.parse_args(argv)
    protocol_kwargs = {}
    if args.ack_broadcast is not None:
        protocol_kwargs["ack_broadcast"] = args.ack_broadcast
    try:
        result = explore(
            args.protocol,
            num_processes=args.processes,
            faults=args.faults,
            num_commands=args.commands,
            num_keys=args.keys,
            num_partitions=args.partitions,
            crash_coordinator=args.crash,
            lose_kinds=args.lose_kind,
            max_states=args.max_states,
            **protocol_kwargs,
        )
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))
    print(result.summary())
    for violation in result.violations:
        print(f"  {violation}")
    if args.bounded and result.stop_reason == "max_states":
        return int(any(v.code != "state-budget" for v in result.violations))
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m
    import sys

    sys.exit(main())
