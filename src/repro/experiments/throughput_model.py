"""Analytical saturation-throughput model (Figures 7, 8 and 9).

The paper's maximum-throughput numbers are determined by which resource
saturates first at the *busiest* process of each protocol:

* **FPaxos** — the leader handles every command: it receives it (possibly
  forwarded), sends it to a phase-2 quorum of ``f + 1`` and then broadcasts
  the decision to all replicas.  With large payloads the leader's outbound
  NIC saturates; with small payloads its CPU does (§6.3).
* **EPaxos / Atlas / Janus*** — load is balanced across replicas, but
  execution traverses the committed dependency graph in a single thread.
  The per-command execution cost grows with the size of the strongly
  connected components, i.e. with the conflict rate and the number of
  concurrent clients, so the execution thread saturates well before CPU or
  NIC do (the paper reports at most 59 % CPU / 41 % network for Atlas).
* **Caesar** — besides execution, the blocking wait condition delays
  commits of conflicting commands, capping throughput at roughly the rate at
  which blocked commands drain (§6.3: 104K ops/s at 2 % conflicts, 32K at
  10 %).
* **Tempo** — execution is a timestamp sort plus a state-machine
  application, cheap and parallelisable, so Tempo saturates on overall CPU
  with balanced network usage (95 % CPU / 80 % NIC at 4 KB payloads).

The model counts, per command, the messages and bytes handled by the
bottleneck process of each protocol (derived from the protocols' message
patterns) and converts them into CPU-microseconds and NIC-bytes using the
calibration constants below.  They are calibrated once so that the
4 KB / 2 %-conflict full-replication scenario lands near the paper's
absolute numbers; every other scenario — other payloads, conflict rates,
batching, fig9's shard counts — is then *predicted* by the model, which is
what makes the reproduced trends meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List

from repro.core.config import ProtocolConfig

# -- calibration: what one message, KiB or command costs ---------------------

#: CPU cost of handling (serialising, dispatching) one protocol message,
#: excluding payload copying.
CPU_PER_MESSAGE_US = 3.0
#: CPU cost per KiB of payload copied in or out.
CPU_PER_KIB_US = 1.5
#: Cost of applying one command to the state machine.
EXECUTION_BASE_US = 4.0
#: Cost of inserting/traversing one node of the dependency graph
#: (EPaxos/Atlas/Janus* execution).
GRAPH_NODE_US = 4.0
#: Average cost a blocked Caesar command adds on the critical path per
#: conflicting in-flight command.
CAESAR_BLOCK_US = 6.0
#: Cost of Tempo's per-command timestamp/stability bookkeeping.
TEMPO_STABILITY_US = 8.0
#: Wire size of acks and other payload-free messages.
SMALL_MESSAGE_BYTES = 100.0
#: Commands that can end up in one execution batch of a dependency protocol
#: (the paper's saturation points sit at a few thousand clients per site).
CONFLICT_WINDOW = 25.0
#: In-flight commands a Caesar command can block on.
CAESAR_CONFLICT_WINDOW = 50.0

# -- the machine: the paper's cluster nodes (§6.2; EC2 c5.2xlarge is alike) --

#: CPU microseconds per second over the 8 hardware threads the protocol uses.
CPU_BUDGET_US = 8.0 * 1_000_000.0
#: CPU microseconds per second of the single-threaded execution component.
EXECUTION_BUDGET_US = 1_000_000.0
#: A 10 Gbit/s NIC, each direction.
NIC_BYTES_PER_SECOND = 10e9 / 8.0


@dataclass(frozen=True)
class CommandCost:
    """Resource usage of a single command at the bottleneck process."""

    cpu_micros: float
    execution_micros: float
    net_in_bytes: float
    net_out_bytes: float


def quorum_size(protocol: str, config: ProtocolConfig) -> int:
    """Size of the quorum a command's coordinator (FPaxos: the leader)
    proposes to, itself included."""
    if protocol in ("tempo", "atlas", "janus"):
        return config.fast_quorum_size
    if protocol == "epaxos":
        return config.epaxos_fast_quorum_size
    if protocol == "caesar":
        return config.caesar_fast_quorum_size
    if protocol == "fpaxos":
        return config.slow_quorum_size
    raise KeyError(f"unknown protocol {protocol!r}")


def payload_cpu(payload_bytes: float) -> float:
    """CPU microseconds spent copying ``payload_bytes``."""
    return CPU_PER_KIB_US * payload_bytes / 1024.0


def saturation(cost: CommandCost) -> Dict[str, Any]:
    """Maximum commands/s sustainable given the per-command cost.

    The limit of each resource is ``budget / per-command usage``; the
    overall maximum is the smallest of them, reported with the resource
    that sets it (the bottleneck) and every resource's utilization there.
    """
    limits: Dict[str, float] = {}
    if cost.cpu_micros > 0:
        limits["cpu"] = CPU_BUDGET_US / cost.cpu_micros
    if cost.execution_micros > 0:
        limits["execution"] = EXECUTION_BUDGET_US / cost.execution_micros
    if cost.net_in_bytes > 0:
        limits["net_in"] = NIC_BYTES_PER_SECOND / cost.net_in_bytes
    if cost.net_out_bytes > 0:
        limits["net_out"] = NIC_BYTES_PER_SECOND / cost.net_out_bytes
    if not limits:
        raise ValueError("command cost is entirely zero; cannot saturate")
    bottleneck = min(limits, key=lambda name: limits[name])
    rate = limits[bottleneck]
    result: Dict[str, Any] = {"max_ops_per_second": rate, "bottleneck": bottleneck}
    for name in ("cpu", "execution", "net_in", "net_out"):
        limit = limits.get(name)
        result[f"{name}_utilization"] = 0.0 if limit is None else min(1.0, rate / limit)
    return result


def _chain_factor(conflict_rate: float, quorum_factor: float) -> float:
    """Expected dependency-chain/SCC blow-up factor for dependency-based
    protocols.

    With a window of ``CONFLICT_WINDOW`` commands that can end up in the
    same execution batch and conflict rate ``rho``, a conflicting command
    drags roughly ``rho * window`` other commands into its strongly
    connected component, and larger fast quorums (``quorum_factor > 1``,
    i.e. ``f = 2``) report proportionally more dependencies.  The execution
    thread touches every member of a component once per command of the
    component; the square root keeps the per-command growth sub-linear,
    matching the measured 36-48 % throughput drop of Atlas between 2 % and
    10 % conflicts rather than a collapse.
    """
    expected_component = 1.0 + conflict_rate * CONFLICT_WINDOW * quorum_factor
    return expected_component ** 0.5


def fpaxos_costs(config: ProtocolConfig, payload: float, batch: float) -> CommandCost:
    """Per-command cost at the FPaxos *leader* (the bottleneck process)."""
    r = config.num_processes
    accepts = quorum_size("fpaxos", config) - 1
    # Messages at the leader per command: forwarded submission in, f phase-2
    # accepts out, f accepted in, r-1 decided out (plus the client reply).
    messages = (1 + accepts + accepts + (r - 1) + 1) / batch
    # Payload copies at the leader: command in, f accepts out, r-1 decided out.
    payload_in = payload
    payload_out = payload * (accepts + (r - 1))
    # The leader's ordering thread is single-threaded in the reference
    # implementation: it handles the forwarded command, the quorum replies
    # and the decision broadcast serially (§6.3 "the bottleneck shifts to
    # the leader thread").
    leader_thread = (3 + accepts) * CPU_PER_MESSAGE_US / batch + EXECUTION_BASE_US
    cpu = (
        messages * CPU_PER_MESSAGE_US
        + payload_cpu(payload_in + payload_out)
        + EXECUTION_BASE_US
    )
    return CommandCost(
        cpu_micros=cpu,
        execution_micros=leader_thread,
        net_in_bytes=payload_in + (accepts + 1) * SMALL_MESSAGE_BYTES / batch,
        net_out_bytes=payload_out + (r - 1) * SMALL_MESSAGE_BYTES / batch,
    )


def _leaderless_shared_costs(
    config: ProtocolConfig, payload: float, fast_quorum: int, batch: float
) -> CommandCost:
    """Average per-command cost at one replica of a leaderless protocol.

    Each replica coordinates ``1/r`` of the commands (sending the payload to
    the fast quorum and the commit to everyone) and participates in the
    remaining ones (one payload in, one ack out, one commit in).
    """
    r = config.num_processes
    coordinator_share = 1.0 / r
    # Coordinator: submit in, q-1 proposes out (payload), r-q payloads out,
    # q-1 acks in, r-1 commits out (no payload in Tempo; with payload for
    # dependency protocols - charged below by the caller through net bytes).
    coordinator_msgs = 1 + (fast_quorum - 1) + (r - fast_quorum) + (fast_quorum - 1) + (r - 1) + 1
    # Non-coordinator: payload or propose in, ack out, commit in.
    member_msgs = 3
    messages = (
        coordinator_share * coordinator_msgs + (1 - coordinator_share) * member_msgs
    ) / batch
    payload_out = coordinator_share * payload * (r - 1)
    payload_in = payload  # every replica receives each command's payload once
    return CommandCost(
        cpu_micros=messages * CPU_PER_MESSAGE_US + payload_cpu(payload_in + payload_out),
        execution_micros=0.0,
        net_in_bytes=payload_in + member_msgs * SMALL_MESSAGE_BYTES / batch,
        net_out_bytes=payload_out
        + (coordinator_share * (r - 1) + 1) * SMALL_MESSAGE_BYTES / batch,
    )


def tempo_costs(config: ProtocolConfig, payload: float, batch: float) -> CommandCost:
    """Per-command cost at a Tempo replica.

    Tempo's execution is a timestamp sort plus bookkeeping of promises;
    it does not depend on the conflict rate (§3.3), and it is parallel
    across partitions, so it is charged to the general CPU budget rather
    than to a single execution thread.
    """
    shared = _leaderless_shared_costs(
        config, payload, quorum_size("tempo", config), batch
    )
    # Per-command work that batching cannot amortise: applying the command
    # plus the promise/stability bookkeeping of the timestamp executor.
    per_command = EXECUTION_BASE_US + TEMPO_STABILITY_US
    return replace(shared, cpu_micros=shared.cpu_micros + per_command)


def dependency_costs(
    protocol: str,
    config: ProtocolConfig,
    payload: float,
    conflict_rate: float,
    batch: float,
) -> CommandCost:
    """Per-command cost at an EPaxos/Atlas/Janus* replica.

    The single-threaded dependency-graph execution is the bottleneck; its
    per-command cost grows with the expected component size, which itself
    grows with the conflict rate.
    """
    fast_quorum = quorum_size(protocol, config)
    shared = _leaderless_shared_costs(config, payload, fast_quorum, batch)
    chain = _chain_factor(conflict_rate, fast_quorum / config.majority)
    execution = EXECUTION_BASE_US + GRAPH_NODE_US * chain
    return replace(
        shared, cpu_micros=shared.cpu_micros + execution, execution_micros=execution
    )


def caesar_costs(
    config: ProtocolConfig, payload: float, conflict_rate: float, batch: float
) -> CommandCost:
    """Per-command cost at a Caesar replica.

    Besides graph-style bookkeeping, the wait condition serialises the
    handling of conflicting commands: each conflicting in-flight command
    adds critical-path work before the reply can be sent.
    """
    shared = _leaderless_shared_costs(
        config, payload, quorum_size("caesar", config), batch
    )
    blocked = conflict_rate * CAESAR_CONFLICT_WINDOW
    execution = EXECUTION_BASE_US + CAESAR_BLOCK_US * max(1.0, blocked)
    return replace(
        shared, cpu_micros=shared.cpu_micros + execution, execution_micros=execution
    )


def protocol_costs(
    protocol: str,
    config: ProtocolConfig,
    payload: float,
    conflict_rate: float,
    batch: float,
) -> CommandCost:
    """Dispatch to the per-protocol cost function.

    ``batch`` commands share each protocol message (Figure 8): per-command
    message CPU and header bytes shrink by that factor, payload bytes and
    per-command execution do not.
    """
    if protocol == "fpaxos":
        return fpaxos_costs(config, payload, batch)
    if protocol == "tempo":
        return tempo_costs(config, payload, batch)
    if protocol == "caesar":
        return caesar_costs(config, payload, conflict_rate, batch)
    if protocol in ("epaxos", "atlas", "janus"):
        return dependency_costs(protocol, config, payload, conflict_rate, batch)
    raise KeyError(f"unknown protocol {protocol!r}")


def max_throughput(
    protocol: str,
    config: ProtocolConfig,
    payload: float,
    conflict_rate: float,
    batch: float = 1.0,
) -> Dict[str, Any]:
    """Maximum system throughput (commands/s) of a full-replication
    deployment, with its bottleneck and utilizations (:func:`saturation`)."""
    return saturation(protocol_costs(protocol, config, payload, conflict_rate, batch))


def utilization_heatmap(
    protocols: List[str],
    config: ProtocolConfig,
    payload: float,
    conflict_rate: float,
) -> List[Dict[str, object]]:
    """Hardware-utilization heatmap at saturation (bottom of Figure 7)."""
    rows: List[Dict[str, object]] = []
    for protocol in protocols:
        result = max_throughput(protocol, config, payload, conflict_rate)
        rows.append(
            {
                "protocol": protocol,
                "cpu": round(result["cpu_utilization"] * 100.0, 1),
                "execution": round(result["execution_utilization"] * 100.0, 1),
                "net_out": round(result["net_out_utilization"] * 100.0, 1),
                "max_kops": round(result["max_ops_per_second"] / 1000.0, 1),
                "bottleneck": result["bottleneck"],
            }
        )
    return rows
