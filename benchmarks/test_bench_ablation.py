"""Ablation benches for Tempo's design choices.

* fast-path condition: Tempo's ``count(max) >= f`` vs an EPaxos-style
  "all proposals equal" rule — measured as fast-path ratio under concurrent
  conflicting submissions;
* ack-broadcast optimisation: execution latency with and without letting
  fast-quorum members observe the fast-path commit directly;
* read/write awareness in dependency protocols: dependency-set sizes with
  and without the read optimisation (§3.3).
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.config import ExperimentConfig
from repro.cluster.replicas import build_replicas
from repro.cluster.runner import run_experiment
from repro.core.config import ProtocolConfig
from repro.core.messages import MPropose, MProposeAck
from repro.simulator.inline import InlineNetwork, RecordingNetwork


def _fast_path_ratio(faults: int, concurrent: int, epaxos_style: bool) -> float:
    """Fraction of concurrently submitted conflicting commands committed on
    the fast path, under the given fast-path rule."""
    processes = build_replicas(
        "tempo", ProtocolConfig(num_processes=5, faults=faults)
    ).processes
    network = InlineNetwork(processes)
    # The proposals each coordinator decides on, read off the wire (an
    # executed record no longer holds them): its own is the timestamp of
    # its MPropose, the members' arrive as MProposeAcks addressed to it.
    proposed: Dict[object, Dict[int, int]] = {}

    def note(envelopes):
        for envelope in envelopes:
            message = envelope.message
            if isinstance(message, MPropose) or (
                isinstance(message, MProposeAck)
                and envelope.destination == message.dot.source
            ):
                proposed.setdefault(message.dot, {})[envelope.sender] = message.timestamp
        return envelopes

    network.set_reorder(note)
    commands = []
    for index in range(concurrent):
        process = processes[index % 5]
        command = process.new_command(["hot"])
        process.submit(command, 0.0)
        commands.append(command)
    network.settle(rounds=15)
    fast = 0
    for command in commands:
        proposals = list(proposed[command.dot].values())
        assert len(proposals) == processes[0].config.fast_quorum_size
        top = max(proposals)
        if epaxos_style:
            taken = len(set(proposals)) == 1
        else:
            taken = sum(1 for value in proposals if value == top) >= faults
        if taken:
            fast += 1
    return fast / len(commands)


def test_bench_ablation_fast_path_condition(benchmark, results_emitter):
    def measure() -> List[Dict[str, object]]:
        rows = []
        for faults in (1, 2):
            tempo_rule = _fast_path_ratio(faults, concurrent=20, epaxos_style=False)
            equal_rule = _fast_path_ratio(faults, concurrent=20, epaxos_style=True)
            rows.append(
                {
                    "f": faults,
                    "tempo_rule_fast_ratio": round(tempo_rule, 2),
                    "all_equal_rule_fast_ratio": round(equal_rule, 2),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    results_emitter(
        "ablation_fastpath",
        rows,
        "Ablation - Tempo fast-path rule vs EPaxos-style all-equal rule",
    )
    for row in rows:
        assert row["tempo_rule_fast_ratio"] >= row["all_equal_rule_fast_ratio"]
    # With f = 1 the Tempo rule always takes the fast path.
    assert float(rows[0]["tempo_rule_fast_ratio"]) == 1.0


def test_bench_ablation_ack_broadcast(benchmark, results_emitter):
    def measure() -> List[Dict[str, object]]:
        rows = []
        for enabled in (True, False):
            config = ExperimentConfig(
                protocol="tempo",
                num_sites=5,
                faults=1,
                clients_per_site=6,
                conflict_rate=0.02,
                duration_ms=2_000.0,
                warmup_ms=400.0,
                protocol_kwargs={"ack_broadcast": enabled},
            )
            result = run_experiment(config)
            rows.append(
                {
                    "ack_broadcast": enabled,
                    "mean_ms": round(result.mean_latency(), 1),
                    "p99_ms": round(result.percentile(99.0), 1),
                    "completed": result.completed,
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    results_emitter(
        "ablation_ack_broadcast",
        rows,
        "Ablation - execution latency with/without fast-quorum ack broadcast",
    )
    with_opt = next(row for row in rows if row["ack_broadcast"])
    without_opt = next(row for row in rows if not row["ack_broadcast"])
    assert float(with_opt["mean_ms"]) < float(without_opt["mean_ms"])


def test_bench_ablation_read_write_awareness(benchmark, results_emitter):
    def measure() -> List[Dict[str, object]]:
        rows = []
        for aware in (True, False):
            processes = build_replicas(
                "atlas",
                ProtocolConfig(num_processes=3, faults=1),
                read_write_aware=aware,
            ).processes
            network = RecordingNetwork(processes)
            total_deps = 0
            commands = []
            for index in range(30):
                process = processes[index % 3]
                command = process.new_command(["hot"], read_only=(index % 2 == 0))
                process.submit(command, 0.0)
                commands.append(command)
                network.settle(rounds=3)
            for command in commands:
                total_deps += len(processes[0].committed_dependencies(command.dot))
            rows.append(
                {
                    "read_write_aware": aware,
                    "total_committed_deps": total_deps,
                    "avg_deps": round(total_deps / len(commands), 2),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    results_emitter(
        "ablation_read_write",
        rows,
        "Ablation - dependency-set sizes with/without the read/write distinction",
    )
    aware = next(row for row in rows if row["read_write_aware"])
    unaware = next(row for row in rows if not row["read_write_aware"])
    assert int(aware["total_committed_deps"]) <= int(unaware["total_committed_deps"])
