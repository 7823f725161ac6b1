"""Epoch-2 memory-bound regression: live state is O(in-flight), not O(run).

The watermark GC's whole point is that protocol bookkeeping no longer grows
with run length: per-command ``_info`` records and per-key executed archives
are dropped once globally executed, and the per-key conflict window is
bounded by concurrency.  These tests run the same contended fig6-style cell
at a base duration and at 10× that duration and assert the memory columns
stay flat — a laundering of the archives back into O(executed) growth fails
here long before it would OOM a real deployment.

The columns come from :meth:`ProcessBase.memory_footprint` via the
experiment stats (``live_records`` / ``archived_records`` /
``peak_live_per_key`` / ``conflict_keys`` / ``issued_promises`` /
``gc_collected`` / ``executed_ranges``); ``BENCH_fig6.json`` carries the
same columns for the full benchmark and CI gates them there too.  A column
only witnesses what someone thought to count, so the long cells also walk
every container a replica holds (:func:`oversized_containers`).
"""

from __future__ import annotations

import gc
import weakref
from array import array

import pytest

from repro.cluster.config import ExperimentConfig
from repro.cluster.replicas import build_replicas
from repro.cluster.runner import run_experiment
from repro.core import identifiers
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot
from repro.core.phases import Phase
from repro.simulator.inline import InlineNetwork
from repro.simulator.sim import Simulation

#: The per-command history a replica keeps on purpose: the execution log's
#: packed words, 8 B per execution (``docs/memory.md``).
HISTORY = frozenset({"executed._words"})


def attribute_names(owner: object) -> list:
    """``owner``'s instance-dict and slot attribute names."""
    names = set(getattr(owner, "__dict__", ()))
    for klass in type(owner).__mro__:
        declared = vars(klass).get("__slots__", ())
        names.update((declared,) if isinstance(declared, str) else declared)
    return sorted(names - {"__dict__", "__weakref__"})


def container_sizes(owner: object, prefix: str = "", depth: int = 2):
    """``(path, len)`` of every built-in or ``array`` container among
    ``owner``'s attributes and those of the objects it holds, down to
    ``depth`` levels: a replica's executor and its graph, its GC tracker,
    Tempo's promise tracker and promise set."""
    for name in attribute_names(owner):
        value = getattr(owner, name, None)
        if isinstance(value, (dict, list, set, frozenset, tuple, array)):
            yield prefix + name, len(value)
        elif depth and not callable(value) and attribute_names(value):
            yield from container_sizes(value, f"{prefix}{name}.", depth - 1)


def oversized_containers(result, bound: int) -> list:
    """Every container of every replica, outside :data:`HISTORY`, holding
    more than ``bound`` entries at the end of ``result``'s run."""
    return [
        (process.process_id, path, size)
        for process in result.deployment.processes
        for path, size in container_sizes(process)
        if size > bound and path not in HISTORY
    ]


def run_cell(protocol: str, duration_ms: float):
    config = ExperimentConfig(
        protocol=protocol,
        num_sites=5,
        faults=1,
        clients_per_site=4,
        conflict_rate=0.15,
        duration_ms=duration_ms,
        warmup_ms=100.0,
        seed=1,
    )
    return run_experiment(config)


def run_partial_cell(protocol: str, duration_ms: float):
    """3 sites x 2 shards, YCSB+T: half the commands cross both shards, so
    every replica executes commands minted at the other shard."""
    config = ExperimentConfig(
        protocol=protocol,
        num_sites=3,
        num_shards=2,
        faults=1,
        clients_per_site=4,
        workload="ycsbt",
        zipf=0.7,
        write_ratio=0.5,
        duration_ms=duration_ms,
        warmup_ms=100.0,
        seed=1,
    )
    return run_experiment(config)


BASE_MS = 400.0
LONG_MS = 4_000.0  # 10x

COLLECTING_PROTOCOLS = ["tempo", "atlas", "epaxos", "caesar", "janus", "fpaxos"]
#: The protocols that execute over a dependency graph.
DEPENDENCY_PROTOCOLS = ["atlas", "epaxos", "janus"]
#: The protocols that replicate partially (``num_shards > 1``).
PARTIAL_PROTOCOLS = ["tempo", "janus"]


class TestMemoryStaysFlat:
    @pytest.mark.parametrize("protocol", COLLECTING_PROTOCOLS)
    def test_live_state_does_not_scale_with_run_length(self, protocol):
        short = run_cell(protocol, BASE_MS).stats
        result = run_cell(protocol, LONG_MS)
        long = result.stats

        # The run processed ~10x the commands...
        assert long["gc_collected"] > 4 * short["gc_collected"]

        # ...but the end-of-run live records and executed archives drained
        # to (at most) a straggler tail awaiting the final clock exchange,
        # independent of duration.
        tail = 2 * 5 * 4  # two commands per client still in flight
        assert long["live_records"] <= tail, long
        assert long["archived_records"] <= tail, long

        # So did the per-key conflict state (a key keeps a summary only
        # while a command on it is uncollected) and Tempo's issued-promise
        # ledger (collected commands' promises fold into one range per
        # replica).
        assert long["conflict_keys"] <= tail, long
        assert long["issued_promises"] <= tail + 5, long
        # The at-most-once check keeps about one range per source per
        # replica: the in-flight tail's out-of-order executions add the rest.
        assert long["executed_ranges"] <= 5 * 5 + tail, long

        # The per-key conflict window is bounded by concurrency, not run
        # length: 10x the duration may not widen the high-water mark beyond
        # noise.
        assert long["peak_live_per_key"] <= short["peak_live_per_key"] + 4, (
            short["peak_live_per_key"],
            long["peak_live_per_key"],
        )

        # Nor does anything no column counts: every container a replica
        # holds, but its execution history, is within the tail.
        assert oversized_containers(result, tail) == []

    @pytest.mark.parametrize("protocol", PARTIAL_PROTOCOLS)
    def test_partial_replication_collects_the_other_shards_commands(self, protocol):
        # Each source's dots form one chain per partition, so a replica
        # collects the commands minted at the other shard as well as its
        # own shard's: nothing is left at the end but the in-flight tail.
        short = run_partial_cell(protocol, BASE_MS).stats
        result = run_partial_cell(protocol, LONG_MS)
        long = result.stats
        assert long["gc_collected"] > 4 * short["gc_collected"]
        tail = 2 * 3 * 4  # two commands per client still in flight
        assert long["live_records"] <= tail, long
        assert long["archived_records"] <= tail, long
        assert long["conflict_keys"] <= tail, long
        assert long["issued_promises"] <= tail + 6, long
        # Six sources (both shards' minters) at each of six replicas.
        assert long["executed_ranges"] <= 6 * 6 + tail, long
        assert oversized_containers(result, tail) == []

    def test_gc_actually_collected_the_history(self):
        stats = run_cell("tempo", BASE_MS).stats
        # The collected count is the witness that records existed and were
        # dropped (not that nothing was ever tracked).
        assert stats["gc_collected"] > 100, stats["gc_collected"]
        assert stats["live_records"] == 0, stats["live_records"]

    @pytest.mark.parametrize("protocol", COLLECTING_PROTOCOLS)
    def test_a_collected_command_is_no_longer_held_by_any_replica(
        self, protocol, monkeypatch
    ):
        # The execution log keeps packed identifiers: once the watermark GC
        # drops a dot's record, nothing at a replica (record table, conflict
        # state, executor, store, log, intern table) references its Command
        # or its Dot any more.  A fresh intern table: otherwise the command
        # would get the instance of an equal dot some other test holds.
        monkeypatch.setattr(identifiers, "_INTERN", {})
        config = ProtocolConfig(num_processes=3, faults=1)
        replicas = build_replicas(protocol, config)
        network = InlineNetwork(replicas.processes)

        def submit_first():
            command = replicas.processes[0].new_command(["k"], client_id=1)
            replicas.processes[0].submit(command, 0.0)
            dot = command.dot
            return weakref.ref(command), weakref.ref(dot), (dot.source, dot.sequence)

        held, held_dot, identifier = submit_first()
        network.settle(rounds=10)
        executed = Dot(*identifier)
        assert all(executed in process.executed for process in replicas.processes)
        gc.collect()
        assert held() is not None  # the live records still need it
        assert held_dot() is not None
        # Two gc_intervals of one-ms rounds after it executed everywhere.
        network.settle(now=10.0, rounds=2 * int(config.gc_interval))
        network.undeliverable.clear()  # the client took its reply
        gc.collect()
        assert held() is None
        assert held_dot() is None
        assert all(executed in process.executed for process in replicas.processes)


def settled_tempo(*keys: str):
    """Three Tempo replicas that executed one command per key, submitted
    at process 0, and have not collected them yet."""
    config = ProtocolConfig(num_processes=3, faults=1)
    replicas = build_replicas("tempo", config)
    network = InlineNetwork(replicas.processes)
    submitter = replicas.processes[0]
    dots = []
    for key in keys:
        command = submitter.new_command([key], client_id=1)
        submitter.submit(command, 0.0)
        dots.append(command.dot)
    network.settle(rounds=10)
    return replicas.processes, dots


class TestExecutedRecordsAreLean:
    #: What only the commit protocol reads: built on first use or released
    #: when the command executes.
    COMMIT_STATE = (
        "proposals",
        "collected_detached",
        "consensus_acks",
        "recovery_acks",
        "partition_commits",
        "stable_from",
    )

    def test_an_executed_record_holds_no_commit_protocol_container(self):
        processes, (dot,) = settled_tempo("k")
        for process in processes:
            record = process._info[dot]  # executed, not collected yet
            assert record.phase is Phase.EXECUTE
            assert {name: getattr(record, name) for name in self.COMMIT_STATE} == {
                name: None for name in self.COMMIT_STATE
            }

    def test_records_of_one_coordinator_share_one_quorum_map(self):
        processes, (first, second) = settled_tempo("a", "b")
        for process in processes:
            assert process._info[first].quorums is process._info[second].quorums


def dependency_state(process) -> dict:
    """What a dependency-protocol replica holds per command right now."""
    records = process._info
    commands_per_key: dict = {}
    for record in records.values():
        for key in record.command.keys:
            commands_per_key[key] = commands_per_key.get(key, 0) + 1
    lone_keys = [key for key, count in commands_per_key.items() if count == 1]
    return {
        "graph_nodes": set(process.executor.pending_execution()),
        "committed_unexecuted": {
            dot for dot, record in records.items() if record.status == "commit"
        },
        "executed_uncollected": sum(
            record.status == "execute" for record in records.values()
        ),
        "lone_keys": len(lone_keys),
        "lone_keys_holding_a_dict": [
            key
            for key in lone_keys
            if any(
                isinstance(getattr(entry, name), dict)
                for entry in (process._conflict_index[key],)
                for name in attribute_names(entry)
            )
        ],
    }


class TestDependencyRecordsAreLean:
    @pytest.mark.parametrize("protocol", DEPENDENCY_PROTOCOLS)
    def test_mid_run_state_is_one_record_per_command(self, protocol, monkeypatch):
        # Sampled half way through the run, while commands are in flight:
        # the graph holds a node only until its command executes (the
        # record keeps what later messages need), and a key written by one
        # uncollected command keeps that command, not a summary with a dict.
        samples = []
        run = Simulation.run

        def run_with_probe(simulation, until, **kwargs):
            simulation.schedule(
                BASE_MS / 2,
                lambda now: samples.extend(
                    dependency_state(process)
                    for process in simulation.processes.values()
                ),
            )
            return run(simulation, until, **kwargs)

        monkeypatch.setattr(Simulation, "run", run_with_probe)
        run_cell(protocol, BASE_MS)
        assert len(samples) == 5
        for sample in samples:
            assert sample["graph_nodes"] == sample["committed_unexecuted"]
            assert sample["lone_keys_holding_a_dict"] == []
        # Not vacuous: executed records and one-command keys were there.
        assert sum(sample["executed_uncollected"] for sample in samples) > 0
        assert sum(sample["lone_keys"] for sample in samples) > 0
