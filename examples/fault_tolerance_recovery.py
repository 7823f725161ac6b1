#!/usr/bin/env python3
"""Fault tolerance: crash a coordinator and recover its command.

The example submits a command, crashes its coordinator before the commit is
disseminated, and shows the recovery protocol (Algorithm 4) taking over from
another replica: the command is committed with a consistent timestamp and
executed by every surviving replica.

Run with::

    python examples/fault_tolerance_recovery.py
"""

from __future__ import annotations

from repro.cluster.replicas import build_replicas
from repro.core.config import ProtocolConfig
from repro.simulator.inline import RecordingNetwork


def main() -> None:
    # Disable the ack-broadcast optimisation so the crash really leaves the
    # command undecided (worst case for recovery).
    processes = build_replicas(
        "tempo", ProtocolConfig(num_processes=5, faults=1), ack_broadcast=False
    ).processes
    network = RecordingNetwork(processes)

    # 1. Process 0 coordinates a command.
    coordinator = processes[0]
    command = coordinator.new_command(["ledger"])
    coordinator.submit(command, 0.0)
    print(f"process 0 submitted {command.dot}")

    # 2. The proposal round reaches the fast quorum ...
    network.step(0.0)
    # ... but the coordinator crashes before sending any MCommit.
    coordinator.crash()
    coordinator.outbox.clear()
    for process in processes:
        process.set_alive_view(0, False)
    print("process 0 crashed before committing")

    # 3. Without recovery nothing commits.
    network.settle(rounds=5)
    committed = [
        process.process_id
        for process in processes[1:]
        if process.committed_timestamp(command.dot) is not None
    ]
    print(f"committed at {committed or 'no replica'} before recovery")

    # 4. The new leader (process 1) recovers the command.
    recoverer = processes[1]
    print("process 1 takes over as coordinator and runs recovery ...")
    recoverer.recover(command.dot, 0.0)
    network.settle(rounds=20)

    timestamps = {
        process.process_id: process.committed_timestamp(command.dot)
        for process in processes[1:]
    }
    print(f"committed timestamps after recovery: {timestamps}")
    assert len(set(timestamps.values())) == 1

    executed = [
        process.process_id
        for process in processes[1:]
        if command.dot in process.executed_dots()
    ]
    print(f"executed at surviving replicas: {executed}")
    recovery_messages = sorted(
        {kind for _, _, kind in network.log if kind.startswith("MRec")}
    )
    print(f"recovery messages exchanged: {recovery_messages}")
    print("the command survived the coordinator crash ✔")


if __name__ == "__main__":
    main()
