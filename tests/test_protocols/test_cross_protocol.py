"""Cross-protocol integration and property tests.

Every protocol in the registry must satisfy the replicated-state-machine
basics on the same workloads: all submitted commands execute at every
replica (after quiescence), conflicting commands execute in the same
relative order everywhere, and replicated stores converge.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.config import ExperimentConfig
from repro.cluster.replicas import build_replicas
from repro.cluster.runner import _Deployment
from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.messages import ClientReply, MPropose
from repro.core.quorums import QuorumSystem
from repro.protocols.dep_messages import MAccept, MCaesarPropose, MPreAccept
from repro.protocols.registry import protocol_names
from repro.simulator.inline import InlineNetwork

FULL_REPLICATION_PROTOCOLS = ["tempo", "atlas", "epaxos", "caesar", "fpaxos"]


def run_schedule(protocol, schedule, r=5, f=1, recorder=None):
    replicas = build_replicas(protocol, ProtocolConfig(num_processes=r, faults=f))
    processes, stores = replicas.processes, replicas.stores
    if recorder is not None:
        # Before any submission: the trace must cover every execution.
        recorder.attach(processes)
    network = InlineNetwork(processes)
    commands = []
    for submitter, hot in schedule:
        process = processes[submitter % r]
        key = "hot" if hot else f"k{len(commands)}"
        command = process.new_command([key])
        process.submit(command, 0.0)
        commands.append(command)
        network.step(0.0)
    network.settle(rounds=40)
    return processes, stores, commands


class TestAllProtocolsBasics:
    @pytest.mark.parametrize("protocol", FULL_REPLICATION_PROTOCOLS)
    def test_all_commands_execute_everywhere(self, protocol):
        schedule = [(i, i % 2 == 0) for i in range(8)]
        processes, _, commands = run_schedule(protocol, schedule)
        for command in commands:
            for process in processes:
                assert command.dot in process.executed_dots(), (
                    f"{protocol}: {command.dot} missing at {process.process_id}"
                )

    @pytest.mark.parametrize("protocol", FULL_REPLICATION_PROTOCOLS)
    def test_conflicting_commands_share_one_order(self, protocol):
        schedule = [(i, True) for i in range(8)]
        processes, _, commands = run_schedule(protocol, schedule)
        dots = {command.dot for command in commands}
        orders = {
            tuple(dot for dot in process.executed_dots() if dot in dots)
            for process in processes
        }
        assert len(orders) == 1

    @pytest.mark.parametrize("protocol", FULL_REPLICATION_PROTOCOLS)
    def test_stores_converge(self, protocol):
        schedule = [(i, True) for i in range(6)] + [(i, False) for i in range(4)]
        processes, stores, commands = run_schedule(protocol, schedule)
        # Empty stores agree too: every command executed everywhere and
        # reached every store.
        keys = {op.key for command in commands for op in command.ops}
        for process in processes:
            assert {command.dot for command in commands} <= set(process.executed_dots())
            assert keys <= set(stores[process.process_id].keys())
        snapshots = {
            tuple(sorted(store.snapshot().items())) for store in stores.values()
        }
        assert len(snapshots) == 1

    @pytest.mark.parametrize("protocol", FULL_REPLICATION_PROTOCOLS)
    def test_commands_execute_at_most_once(self, protocol):
        schedule = [(i, True) for i in range(6)]
        processes, _, _ = run_schedule(protocol, schedule)
        for process in processes:
            executed = process.executed_dots()
            assert len(executed) == len(set(executed))


#: ``closest(process, 5)`` on the paper's five EC2 sites (ireland,
#: n-california, singapore, canada, sao-paulo); every smaller quorum is a
#: prefix.  Pinned literally so a change to distances or tie-breaking cannot
#: move quorums silently.
EC2_CLOSEST = {
    0: [0, 3, 1, 4, 2],
    1: [1, 3, 0, 2, 4],
    2: [2, 1, 0, 3, 4],
    3: [3, 0, 1, 4, 2],
    4: [4, 3, 0, 1, 2],
}
#: The same without a latency table: rank distance, ties broken by id.
RANK_CLOSEST = {
    0: [0, 1, 4, 2, 3],
    1: [1, 0, 2, 3, 4],
    2: [2, 1, 3, 0, 4],
    3: [3, 2, 4, 0, 1],
    4: [4, 0, 3, 1, 2],
}


def quorums_asked_for(protocol, process):
    """Every quorum ``process`` selects by distance, per protocol family."""
    if protocol in ("atlas", "epaxos", "janus"):
        command = process.new_command(["k"])
        return [process._fast_targets(command), process._slow_targets(command)]
    if protocol == "caesar":
        return [process._fast_quorum()]
    if protocol == "fpaxos":
        return [process._phase2_quorum()]
    # Tempo's slow path asks every partition peer: only ``Q`` is by distance.
    quorums = process.quorum_system.fast_quorums(process.process_id, [0])
    return [list(quorums[0])]


#: The message that opens a new command's first round, per protocol.
FIRST_ROUND = {
    "tempo": MPropose,
    "atlas": MPreAccept,
    "epaxos": MPreAccept,
    "janus": MPreAccept,
    "caesar": MCaesarPropose,
    "fpaxos": MAccept,
}


def first_round(protocol, process):
    """Who the first round of a new command submitted at ``process`` goes
    to, itself included, ascending."""
    process.drain_outbox()
    process.submit(process.new_command(["k"]), 0.0)
    kind = FIRST_ROUND[protocol]
    asked = {
        envelope.destination
        for envelope in process.drain_outbox()
        if type(envelope.message) is kind
    }
    return sorted(asked | {process.process_id})


class TestReplicaShell:
    """What ``ProcessBase`` promises under every protocol."""

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_shell_contract(self, protocol):
        replicas = build_replicas(protocol, ProtocolConfig(num_processes=5, faults=1))
        processes = replicas.processes

        # One minting signature, reads included, identifiers drawn here.
        read = processes[2].new_command(["k"], read_only=True)
        write = processes[2].new_command(["k"], payload_size=7, client_id=3)
        assert read.is_read_only() and not write.is_read_only()
        assert (read.dot.source, write.dot.source) == (2, 2)
        assert write.dot.sequence == read.dot.sequence + 1
        assert (write.payload_size, write.client_id) == (7, 3)

        # A message class the protocol never registered is an error, on
        # both entry points.
        with pytest.raises(TypeError):
            processes[0].deliver(1, object(), 0.0)
        with pytest.raises(TypeError):
            processes[0].on_message(1, object(), 0.0)

        # Each client command is applied once and reported once at every
        # replica, and answered once, by the replica it was submitted at.
        reported = []
        for process in processes:
            process.add_execution_listener(
                lambda process_id, dot, command, now: reported.append((process_id, dot))
            )
        network = InlineNetwork(processes)
        commands = {}
        for index in range(6):
            submitter = processes[index % 5]
            command = submitter.new_command(
                ["hot" if index % 2 else f"k{index}"], client_id=index
            )
            submitter.submit(command, 0.0)
            commands[command.dot] = (submitter.process_id, command)
            network.step(0.0)
        network.settle(rounds=40)
        for dot in commands:
            for process in processes:
                assert process.executed.count(dot) == 1
                assert reported.count((process.process_id, dot)) == 1
        replies = [
            (envelope.message.dot, envelope.sender, envelope.destination)
            for envelope in network.undeliverable
            if isinstance(envelope.message, ClientReply)
        ]
        assert sorted(replies) == sorted(
            (dot, submitter, -(command.client_id + 1))
            for dot, (submitter, command) in commands.items()
        )
        assert replicas.stores_agree()

    @pytest.mark.parametrize("protocol", protocol_names())
    @pytest.mark.parametrize("with_store", [True, False])
    def test_a_second_execution_of_a_dot_is_rejected(self, protocol, with_store):
        # The at-most-once check is the execution seam's, not the store's:
        # it holds whether or not a store is wired in, in any order.
        replicas = build_replicas(protocol, ProtocolConfig(num_processes=3, faults=1))
        process = replicas.processes[0]
        if not with_store:
            process.apply_fn = None
        first, second = process.new_command(["k"]), process.new_command(["k"])
        process._execute_command(second.dot, second, 0.0)
        process._execute_command(first.dot, first, 0.0)
        for command in (first, second):
            with pytest.raises(ValueError):
                process._execute_command(command.dot, command, 0.0)
        assert process.executed == [second.dot, first.dot]
        assert process.memory_footprint()["executed_ranges"] == 1

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_a_command_minted_elsewhere_is_refused(self, protocol):
        # The seam answers the client at the replica that minted the dot,
        # so that is the only one a command may be submitted at.
        replicas = build_replicas(protocol, ProtocolConfig(num_processes=3, faults=1))
        minter, other = replicas.processes[:2]
        command = minter.new_command(["k"], client_id=0)
        with pytest.raises(ValueError, match="not minted at 1"):
            other.submit(command, 0.0)
        assert not other.outbox

    @pytest.mark.parametrize("protocol", protocol_names())
    @pytest.mark.parametrize("faults", [1, 2])
    def test_quorums_on_the_ec2_sites_are_the_pinned_lists(self, protocol, faults):
        deployment = _Deployment(ExperimentConfig(protocol=protocol, faults=faults))
        for process in deployment.processes:
            for quorum in quorums_asked_for(protocol, process):
                closest = EC2_CLOSEST[process.process_id][: len(quorum)]
                # Janus* asks the union over the accessed shards, ascending.
                assert quorum == (sorted(closest) if protocol == "janus" else closest)

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_a_new_command_skips_the_suspected_replica(self, protocol):
        """The first round of a command submitted while a quorum member is
        suspected goes to the nearest unsuspected replicas instead; once the
        member is trusted again the round is the cached quorum's."""
        deployment = _Deployment(ExperimentConfig(protocol=protocol))
        process = deployment.processes[0]  # FPaxos's leader as well
        suspect = EC2_CLOSEST[0][1]
        healthy = first_round(protocol, process)
        assert suspect in healthy
        process.set_alive_view(suspect, False)
        avoiding = [member for member in EC2_CLOSEST[0] if member != suspect]
        assert first_round(protocol, process) == sorted(avoiding[: len(healthy)])
        process.set_alive_view(suspect, True)
        assert first_round(protocol, process) == healthy

    def test_closest_is_pinned_for_every_size(self):
        config = ProtocolConfig(num_processes=5, faults=1)
        by_latency = _Deployment(ExperimentConfig()).quorum_system
        by_rank = QuorumSystem(config)
        for process in range(5):
            for size in range(1, 6):
                assert by_latency.closest(process, size) == EC2_CLOSEST[process][:size]
                assert by_rank.closest(process, size) == RANK_CLOSEST[process][:size]
        with pytest.raises(ValueError):
            by_rank.closest(0, 6)


class TestTraceChecker:
    """The :mod:`repro.analysis` trace checker is green on every protocol.

    The recorder attaches before any submission, so the checked trace covers
    every execution of the run, including the contended ``hot`` key where
    the ordering invariants actually bite.
    """

    @pytest.mark.parametrize("protocol", FULL_REPLICATION_PROTOCOLS)
    def test_trace_checker_green_on_contended_schedule(self, protocol):
        from repro.analysis.trace import ExecutionTraceRecorder

        recorder = ExecutionTraceRecorder()
        schedule = [(i, True) for i in range(8)] + [(i, False) for i in range(4)]
        run_schedule(protocol, schedule, recorder=recorder)
        report = recorder.check()
        report.raise_if_violations()
        assert report.events > 0
        # Tempo and Caesar events carry committed timestamps; the checker
        # must actually have exercised the timestamp invariants for them.
        if protocol in ("tempo", "caesar"):
            timestamped = [
                event
                for events in recorder.events_by_process.values()
                for event in events
                if event.timestamp is not None
            ]
            assert timestamped

    def test_trace_checker_green_on_janus_multishard(self):
        from repro.analysis.trace import ExecutionTraceRecorder
        from repro.protocols.janus import JanusProcess

        class PrefixPartitioner(Partitioner):
            def __init__(self, partitions: int) -> None:
                super().__init__(num_partitions=partitions)

            def partition_of(self, key: str) -> int:
                if key.startswith("s") and "-" in key:
                    return int(key[1 : key.index("-")])
                return 0

        shards, r = 2, 3
        config = ProtocolConfig(num_processes=r, faults=1, num_partitions=shards)
        partitioner = PrefixPartitioner(shards)
        processes = [
            JanusProcess(process_id, config, partitioner=partitioner)
            for process_id in range(config.total_processes())
        ]
        recorder = ExecutionTraceRecorder().attach(processes)
        network = InlineNetwork(processes)
        for index in range(6):
            submitter = processes[index % len(processes)]
            keys = ["s0-hot", "s1-hot"] if index % 2 == 0 else [f"s{index % shards}-k{index}"]
            command = submitter.new_command(keys)
            submitter.submit(command, 0.0)
            network.step(0.0)
        network.settle(rounds=40)
        report = recorder.check()
        report.raise_if_violations()
        assert report.events > 0
        # Replicas of the two shards really landed in different partitions.
        assert len(set(recorder.partitions.values())) == shards


class TestRandomSchedules:
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        protocol=st.sampled_from(["tempo", "atlas", "epaxos", "fpaxos"]),
        schedule=st.lists(
            st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=10
        ),
    )
    def test_random_workloads_preserve_ordering_and_liveness(self, protocol, schedule):
        processes, stores, commands = run_schedule(protocol, schedule)
        dots = {command.dot for command in commands}
        for process in processes:
            assert dots <= set(process.executed_dots())
        hot_dots = {
            command.dot for command in commands if "hot" in command.keys
        }
        orders = {
            tuple(dot for dot in process.executed_dots() if dot in hot_dots)
            for process in processes
        }
        assert len(orders) == 1
        snapshots = {
            tuple(sorted(store.snapshot().items())) for store in stores.values()
        }
        assert len(snapshots) == 1
