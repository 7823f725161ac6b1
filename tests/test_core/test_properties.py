"""Property-based tests of the PSMR specification for Tempo.

Random workloads (key choices, submitters) and adversarial message
re-orderings are generated with hypothesis; after the network quiesces the
PSMR properties of §2 are checked:

* Validity — every executed command was submitted and executes at most once;
* Ordering — the execution order of conflicting commands is identical at all
  replicas (acyclicity of the union of per-process orders);
* Timestamp agreement (Property 1) — no two processes commit the same
  command with different timestamps;
* Liveness under quiescence — every submitted command is eventually executed
  at every replica.
"""

from __future__ import annotations

from typing import List

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.process import TempoProcess
from repro.kvstore.store import KeyValueStore
from repro.simulator.inline import InlineNetwork


def run_workload(r, f, schedule, reorder_seed=None, ack_broadcast=True):
    """Submit the given schedule and settle; returns processes, stores,
    commands and the timestamp every replica executed every command at.

    ``schedule`` is a list of (submitter, key_index) pairs; key index 0 is a
    shared hot key, other indices are per-submitter private keys.  The
    timestamps are captured by an execution listener: settling outlasts a
    ``gc_interval``, after which the watermark GC has dropped the records.
    """
    config = ProtocolConfig(num_processes=r, faults=f)
    partitioner = Partitioner(1)
    stores = {}
    processes: List[TempoProcess] = []
    for process_id in range(r):
        store = KeyValueStore()
        stores[process_id] = store
        processes.append(
            TempoProcess(
                process_id,
                config,
                partitioner=partitioner,
                apply_fn=store.apply,
                ack_broadcast=ack_broadcast,
            )
        )
    executed_at = {}

    def remember(process_id, dot, command, now):
        executed_at[process_id, dot] = processes[process_id].committed_timestamp(dot)

    for process in processes:
        process.add_execution_listener(remember)
    network = InlineNetwork(processes)
    if reorder_seed is not None:
        import random

        rng = random.Random(reorder_seed)

        def reorder(envelopes):
            shuffled = list(envelopes)
            rng.shuffle(shuffled)
            return shuffled

        network.set_reorder(reorder)
    commands = []
    for submitter, key_index in schedule:
        process = processes[submitter % r]
        key = "hot" if key_index == 0 else f"k{submitter % r}-{key_index}"
        command = process.new_command([key])
        process.submit(command, 0.0)
        commands.append(command)
        # Deliver a little as we go so schedules interleave.
        network.step(0.0)
    network.settle(rounds=30)
    return processes, stores, commands, executed_at


schedule_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=1, max_size=12
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedule_strategy, seed=st.integers(0, 1_000))
def test_psmr_properties_hold_under_random_schedules(schedule, seed):
    processes, stores, commands, executed_at = run_workload(
        3, 1, schedule, reorder_seed=seed
    )
    dots = [command.dot for command in commands]

    # Liveness under quiescence: everything executes everywhere.
    for process in processes:
        executed = process.executed_dots()
        assert set(dots) <= set(executed)
        # Validity: at most once.
        assert len(executed) == len(set(executed))

    # Property 1: timestamp agreement.
    for dot in dots:
        timestamps = {executed_at[process.process_id, dot] for process in processes}
        assert len(timestamps) == 1 and None not in timestamps

    # Ordering: all processes execute all commands in the same total order
    # (Tempo orders every pair of commands by timestamp/id, so the full
    # execution order must match).
    orders = {
        tuple(dot for dot in process.executed_dots() if dot in set(dots))
        for process in processes
    }
    assert len(orders) == 1

    # Replicated state convergence.
    snapshots = {tuple(sorted(store.snapshot().items())) for store in stores.values()}
    assert len(snapshots) == 1


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedule_strategy, seed=st.integers(0, 1_000))
def test_psmr_properties_with_five_replicas_f2(schedule, seed):
    processes, stores, commands, executed_at = run_workload(
        5, 2, schedule, reorder_seed=seed
    )
    dots = {command.dot for command in commands}
    for process in processes:
        assert dots <= set(process.executed_dots())
    for dot in dots:
        timestamps = {executed_at[process.process_id, dot] for process in processes}
        assert len(timestamps) == 1 and None not in timestamps
    orders = {
        tuple(dot for dot in process.executed_dots() if dot in dots)
        for process in processes
    }
    assert len(orders) == 1


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedule_strategy)
def test_psmr_properties_without_ack_broadcast(schedule):
    """The paper-literal protocol (no ack broadcast) satisfies the same
    properties."""
    processes, stores, commands, _ = run_workload(
        3, 1, schedule, ack_broadcast=False
    )
    dots = {command.dot for command in commands}
    for process in processes:
        assert dots <= set(process.executed_dots())
    orders = {
        tuple(dot for dot in process.executed_dots() if dot in dots)
        for process in processes
    }
    assert len(orders) == 1


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    schedule=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=1, max_size=8
    ),
    victim=st.integers(0, 2),
)
def test_crash_of_one_replica_preserves_safety(schedule, victim):
    """Crashing any single replica (f = 1) never violates agreement or
    ordering among the survivors."""
    config = ProtocolConfig(num_processes=3, faults=1)
    partitioner = Partitioner(1)
    processes = [
        TempoProcess(process_id, config, partitioner=partitioner)
        for process_id in range(3)
    ]
    network = InlineNetwork(processes)
    commands = []
    half = max(1, len(schedule) // 2)
    for index, (submitter, key_index) in enumerate(schedule):
        process = processes[submitter]
        if not process.alive:
            continue
        key = "hot" if key_index == 0 else f"k{submitter}"
        command = process.new_command([key])
        process.submit(command, 0.0)
        commands.append(command)
        network.step(0.0)
        if index == half:
            processes[victim].crash()
            processes[victim].outbox.clear()
            for process in processes:
                process.set_alive_view(victim, False)
    # Let the survivors recover pending commands via the leader.
    survivors = [process for process in processes if process.alive]
    for process in survivors:
        for dot in process.pending_dots():
            if process._should_attempt_recovery(dot):
                process.recover(dot, 0.0)
    network.settle(rounds=30)
    # Agreement among survivors for every command committed anywhere.
    for command in commands:
        timestamps = {
            process.committed_timestamp(command.dot) for process in survivors
        }
        timestamps.discard(None)
        assert len(timestamps) <= 1
    # Ordering among survivors.
    executed_sets = [set(process.executed_dots()) for process in survivors]
    common = set.intersection(*executed_sets) if executed_sets else set()
    orders = {
        tuple(dot for dot in process.executed_dots() if dot in common)
        for process in survivors
    }
    assert len(orders) <= 1
