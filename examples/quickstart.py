#!/usr/bin/env python3
"""Quickstart: replicate a key-value store with Tempo on three processes.

The example builds three Tempo replicas connected by an in-memory network,
submits a handful of commands (some of them conflicting), and shows that all
replicas execute the same commands in the same order and converge to the
same store contents.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.cluster.replicas import build_replicas
from repro.core.config import ProtocolConfig
from repro.simulator.inline import InlineNetwork


def main() -> None:
    # 1. Configuration: three replicas, tolerating one failure.
    config = ProtocolConfig(num_processes=3, faults=1)

    # 2. One Tempo process plus one key-value store per replica.
    replicas = build_replicas("tempo", config)
    processes, stores = replicas.processes, replicas.stores
    network = InlineNetwork(processes)

    # 3. Submit commands at different replicas; "account" commands conflict.
    submissions = [
        (0, ["account"]),
        (1, ["account"]),
        (2, ["balance-2"]),
        (0, ["balance-0"]),
        (2, ["account"]),
    ]
    commands = []
    for process_id, keys in submissions:
        process = processes[process_id]
        command = process.new_command(keys)
        process.submit(command, 0.0)
        commands.append(command)
        print(f"submitted {command.dot} at process {process_id} for keys {sorted(keys)}")

    # 4. Let the protocol run until quiescence.
    network.settle(rounds=15)

    # 5. Every replica committed every command with the same timestamp ...
    print("\ncommitted timestamps (identical at every replica):")
    for command in commands:
        timestamps = {
            process.committed_timestamp(command.dot) for process in processes
        }
        assert len(timestamps) == 1
        print(f"  {command.dot}: timestamp {timestamps.pop()}")

    # 6. ... executed them in the same (timestamp) order ...
    print("\nexecution order (identical at every replica):")
    orders = {tuple(str(dot) for dot in process.executed_dots()) for process in processes}
    assert len(orders) == 1
    print("  " + " -> ".join(orders.pop()))

    # 7. ... and the replicated stores converged.
    assert replicas.stores_agree()
    print("\nreplicated store contents:")
    for key, value in sorted(stores[0].snapshot().items()):
        print(f"  {key} = {value}")
    print("\nall replicas agree ✔")


if __name__ == "__main__":
    main()
