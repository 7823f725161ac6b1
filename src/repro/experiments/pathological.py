"""§D — pathological scenarios for Caesar and EPaxos.

The appendix constructs an infinite schedule over 3 processes where all
commands conflict and process P proposes commands P, P+3, P+6, ...:

* under **Caesar**, every reply is blocked by the wait condition on a
  not-yet-committed conflicting command with a higher timestamp, so no
  command is ever committed;
* under **EPaxos**, the committed dependencies form a strongly connected
  component of unbounded size, so commands are committed but never executed.

Under **Tempo**, the same schedule commits and executes every command.

This module replays a finite prefix of the schedule against the real
protocol implementations and reports, for each protocol, how many commands
were committed and executed and how large the blocked structures grew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cluster.replicas import build_replicas
from repro.core.config import ProtocolConfig
from repro.protocols.dependency import DependencyProtocolProcess
from repro.simulator.inline import InlineNetwork


@dataclass
class PathologyReport:
    """Outcome of replaying the §D schedule against one protocol.

    ``*_during`` fields are measured while the adversarial schedule is still
    running (new conflicting commands keep arriving); ``*_final`` fields are
    measured after the schedule stops and the network quiesces.  The §D
    claims show up as: EPaxos builds ever-growing components and executes
    nothing *during* the schedule; Caesar commits nothing during the
    schedule because every reply is blocked; Tempo keeps committing and
    executing throughout.
    """

    protocol: str
    submitted: int
    committed_during: int
    executed_during: int
    committed_final: int
    executed_final: int
    blocked_replies: int = 0
    largest_component: int = 0

    def as_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "submitted": self.submitted,
            "committed_during": self.committed_during,
            "executed_during": self.executed_during,
            "committed_final": self.committed_final,
            "executed_final": self.executed_final,
            "blocked_replies": self.blocked_replies,
            "largest_component": self.largest_component,
        }


def _count_committed(process, commands) -> int:
    # A record collected by the watermark GC was globally executed, hence
    # committed; count it even though its ``_info`` entry is gone.
    committed = set(process.committed_dots())
    return sum(
        1 for command in commands
        if command.dot in committed or process.gc.collected(command.dot)
    )


def replay_schedule(protocol: str, rounds: int) -> PathologyReport:
    """Replay the round-robin conflicting schedule of §D.

    In each round, every process submits one command on the same key.  The
    adversary delays message delivery by one full round: while a round's
    commands are in flight, the next round's commands have already been
    submitted, which is what makes each new command conflict with (and be
    ordered relative to) the previous ones before they can complete.
    """
    processes = build_replicas(
        protocol, ProtocolConfig(num_processes=3, faults=1)
    ).processes
    network = InlineNetwork(processes)
    commands = []
    in_flight = []
    for _ in range(rounds):
        for process in processes:
            command = process.new_command(["hot"])
            process.submit(command, 0.0)
            commands.append((process.process_id, command))
        # Hold this round's messages; deliver the previous round's instead.
        to_deliver, in_flight = in_flight, network.collect()
        for envelope in to_deliver:
            target = network.processes.get(envelope.destination)
            if target is not None:
                target.deliver(envelope.sender, envelope.message, 0.0)
        # Newly produced replies join the in-flight set (delayed as well).
        in_flight.extend(network.collect())

    submitter = processes[0]
    all_commands = [command for _, command in commands]
    executed_during = len(set(submitter.executed_dots()) & {c.dot for c in all_commands})
    committed_during = _count_committed(submitter, all_commands)
    blocked = getattr(submitter, "blocked_replies_ever", 0)
    largest_during = 0
    graph_ordered = isinstance(submitter, DependencyProtocolProcess)
    if graph_ordered:
        largest_during = max(
            submitter.executor.largest_pending_component(),
            submitter.max_component_size(),
        )

    # The schedule stops: deliver what is still in flight and quiesce, which
    # shows which protocols recover once the adversary relents.
    for envelope in in_flight:
        target = network.processes.get(envelope.destination)
        if target is not None:
            target.deliver(envelope.sender, envelope.message, 0.0)
    network.settle(rounds=15)
    committed_final = _count_committed(submitter, all_commands)
    executed_final = len(set(submitter.executed_dots()) & {c.dot for c in all_commands})
    if graph_ordered:
        largest_during = max(largest_during, submitter.max_component_size())

    return PathologyReport(
        protocol=protocol,
        submitted=len(all_commands),
        committed_during=committed_during,
        executed_during=executed_during,
        committed_final=committed_final,
        executed_final=executed_final,
        blocked_replies=blocked,
        largest_component=largest_during,
    )


#: Schedule length of the §D table (``results/pathological.txt``).
ROUNDS = 8
#: Schedule lengths of the EPaxos growth table
#: (``results/pathological_growth.txt``).
GROWTH_ROUNDS: Tuple[int, ...] = (4, 8, 12)


def run() -> List[Dict[str, object]]:
    """Replay the §D schedule against Tempo, EPaxos and Caesar."""
    return [
        replay_schedule(protocol, ROUNDS).as_row()
        for protocol in ("tempo", "epaxos", "caesar")
    ]


def growth() -> List[Dict[str, object]]:
    """EPaxos' largest blocked component per schedule length."""
    rows: List[Dict[str, object]] = []
    for rounds in GROWTH_ROUNDS:
        report = replay_schedule("epaxos", rounds)
        rows.append(
            {
                "rounds": rounds,
                "submitted": report.submitted,
                "largest_component": report.largest_component,
                "executed_during": report.executed_during,
            }
        )
    return rows
