"""Epoch-2 watermark GC: the tracker, and collection end to end.

Covers the three layers of the globally-executed watermark scheme
(:mod:`repro.core.gc`):

1. ``ExecutedChains`` and ``GcTracker`` unit semantics — a frontier along
   each source's chain (links that skip sequences, out-of-order executions
   across them), the at-most-once check, dirty-gated announcements,
   monotone clock merge, minimum-over-peers watermark;
2. Tempo integration — executed records (and their satellite bookkeeping)
   are actually dropped once globally executed, late duplicates are
   suppressed by the O(1) predicate, and a crashed peer stalls collection
   instead of unsafely excluding it from the minimum;
3. dependency-protocol integration (Atlas, Caesar) — per-key archives and
   executed records drain, and follow-up commands still commit, execute and
   converge after their dependency history has been collected.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.gc import ExecutedChains, GcTracker
from repro.core.identifiers import Dot, intern_dot
from repro.core.messages import MCommit, MPromises, MPropose
from repro.core.phases import Phase
from repro.core.process import TempoProcess
from repro.faults import FaultPlan, FlakyLink
from repro.kvstore.store import KeyValueStore
from repro.protocols.atlas import AtlasProcess
from repro.protocols.caesar import CaesarProcess
from repro.simulator.inline import InlineNetwork

from tests.conftest import TempoCluster


class _Seam:
    """What the execution seam does with an execution: add it to the record
    and report a moved frontier to the tracker."""

    def __init__(self, peers=(1, 2)) -> None:
        self.chains = ExecutedChains()
        self.tracker = GcTracker(self.chains, peers)

    def execute(self, dot: Dot, previous: int) -> None:
        moved_from = self.chains.add(dot, previous)
        if moved_from is not None:
            self.tracker.frontier_moved(dot.source, moved_from)


class TestGcTracker:
    def test_in_order_executions_advance_the_frontier(self):
        seam = _Seam()
        for sequence in (1, 2, 3):
            seam.execute(Dot(1, sequence), sequence - 1)
        assert seam.chains.frontier(1) == 3

    def test_out_of_order_executions_fill_gaps(self):
        seam = _Seam()
        seam.execute(Dot(1, 2), 1)
        seam.execute(Dot(1, 4), 3)
        assert seam.chains.frontier(1) == 0
        seam.execute(Dot(1, 1), 0)
        assert seam.chains.frontier(1) == 2
        seam.execute(Dot(1, 3), 2)
        assert seam.chains.frontier(1) == 4
        assert seam.chains.range_count() == 1  # nothing waits above it

    def test_a_link_skips_the_sequences_of_other_partitions(self):
        # Source 7 (another partition's) minted 1 and 2 over this partition,
        # 3..5 elsewhere, then 6 over this one again.
        seam = _Seam()
        seam.execute(Dot(7, 1), 0)
        seam.execute(Dot(7, 2), 1)
        seam.execute(Dot(7, 6), 2)
        assert seam.chains.frontier(7) == 6
        tracker = seam.tracker
        for peer in (1, 2):
            tracker.ingest(peer, {7: 6})
        # The watermark crosses the link: 3..5 are no dots of this chain,
        # so they are neither handed to ``_collect`` nor counted.
        assert tracker.advance() == [(7, 1, 2), (7, 6, 6)]
        assert tracker.collected_count == 3
        assert tracker.collected(Dot(7, 6))

    def test_out_of_order_execution_across_a_gap(self):
        seam = _Seam()
        seam.execute(Dot(7, 9), 4)
        seam.execute(Dot(7, 4), 1)
        assert seam.chains.frontier(7) == 0
        assert seam.chains.range_count() == 1  # [2, 9] waits above it
        seam.execute(Dot(7, 1), 0)
        assert seam.chains.frontier(7) == 9
        assert seam.chains.range_count() == 1
        tracker = seam.tracker
        for peer in (1, 2):
            tracker.ingest(peer, {7: 9})
        assert tracker.advance() == [(7, 1, 1), (7, 4, 4), (7, 9, 9)]
        assert tracker.collected_count == 3

    def test_an_unexecuted_chain_predecessor_holds_the_frontier(self):
        # 5 links back to 2; 2 has not executed here, so neither 5 nor the
        # in-order 6 behind it may move the frontier past 1 — however far
        # the peers have got.
        seam = _Seam()
        seam.execute(Dot(7, 1), 0)
        seam.execute(Dot(7, 5), 2)
        seam.execute(Dot(7, 6), 5)
        assert seam.chains.frontier(7) == 1
        tracker = seam.tracker
        for peer in (1, 2):
            tracker.ingest(peer, {7: 6})
        assert tracker.advance() == [(7, 1, 1)]
        assert not tracker.collected(Dot(7, 2))
        seam.execute(Dot(7, 2), 1)
        assert seam.chains.frontier(7) == 6
        assert tracker.advance() == [(7, 2, 2), (7, 5, 6)]
        assert tracker.collected_count == 4

    def test_announcement_is_dirty_gated(self):
        seam = _Seam()
        tracker = seam.tracker
        assert tracker.announcement() is None
        seam.execute(Dot(0, 1), 0)
        assert tracker.announcement() == {0: 1}
        # Nothing moved since: no re-announcement.
        assert tracker.announcement() is None
        # An execution above the frontier does not move it either.
        seam.execute(Dot(0, 3), 2)
        assert tracker.announcement() is None

    def test_watermark_is_minimum_over_all_peers(self):
        seam = _Seam()
        tracker = seam.tracker
        for sequence in (1, 2, 3):
            seam.execute(Dot(0, sequence), sequence - 1)
        tracker.ingest(1, {0: 2})
        assert tracker.advance() == []  # peer 2 still at 0
        tracker.ingest(2, {0: 5})
        assert tracker.advance() == [(0, 1, 2)]  # min(3, 2, 5) = 2
        assert tracker.collected(Dot(0, 2))
        assert not tracker.collected(Dot(0, 3))

    def test_ingest_merge_is_monotone(self):
        seam = _Seam()
        tracker = seam.tracker
        tracker.ingest(1, {0: 4})
        tracker.ingest(1, {0: 2})  # stale announcement must not regress
        seam.execute(Dot(0, 1), 0)
        tracker.ingest(2, {0: 9})
        assert tracker.advance() == [(0, 1, 1)]

    def test_advance_is_incremental_and_exact(self):
        """Raising a non-minimum entry never recomputes or advances; raising
        the minimum one does (the stale-set optimisation is behaviour
        preserving)."""
        seam = _Seam()
        tracker = seam.tracker
        seam.execute(Dot(0, 1), 0)
        tracker.ingest(1, {0: 1})
        tracker.ingest(2, {0: 1})
        assert tracker.advance() == [(0, 1, 1)]
        # Peer 1 races ahead; the minimum (still 1) is unchanged.
        tracker.ingest(1, {0: 10})
        assert tracker.advance() == []
        seam.execute(Dot(0, 2), 1)
        tracker.ingest(2, {0: 2})
        assert tracker.advance() == [(0, 2, 2)]
        assert tracker.collected_count == 2


def _runs(sequences):
    """Maximal runs of consecutive integers in ``sequences``, as ranges."""
    runs = []
    for sequence in sorted(sequences):
        if runs and runs[-1][1] == sequence - 1:
            runs[-1][1] = sequence
        else:
            runs.append([sequence, sequence])
    return [tuple(run) for run in runs]


class TestExecutionRecordModel:
    """The record and the tracker against a brute-force model: per source,
    a chain whose links skip sequences (partial replication), executed here
    in random order with repeats mixed in, while two peers announce
    frontiers along the same chains."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_the_record_and_the_tracker_match_a_brute_force_model(self, data):
        chains = {}
        for source in range(data.draw(st.integers(1, 3), label="sources")):
            marks = data.draw(st.lists(st.booleans(), min_size=1, max_size=10))
            chain = [index + 1 for index, mark in enumerate(marks) if mark]
            if chain:
                chains[source] = chain
        previous = {
            (source, sequence): chain[index - 1] if index else 0
            for source, chain in chains.items()
            for index, sequence in enumerate(chain)
        }
        unexecuted = sorted(previous)
        seam = _Seam(peers=(1, 2))
        # The model: what executed here, the peers' merged clocks, the
        # watermark, and the order in which the frontiers first moved.
        executed = set()
        peer_clocks = {1: {}, 2: {}}
        watermark = {}
        first_moved = []
        announced = {}

        def frontier(source):
            reached = 0
            for sequence in chains.get(source, ()):
                if (source, sequence) not in executed:
                    break
                reached = sequence
            return reached

        def clock():
            return {source: frontier(source) for source in first_moved}

        steps = data.draw(st.integers(1, 40), label="steps")
        for _ in range(steps):
            kind = data.draw(st.sampled_from(["execute", "repeat", "announce", "advance"]))
            if kind == "execute" and unexecuted:
                dot = data.draw(st.sampled_from(unexecuted))
                unexecuted.remove(dot)
                executed.add(dot)
                seam.execute(Dot(*dot), previous[dot])
                if frontier(dot[0]) and dot[0] not in first_moved:
                    first_moved.append(dot[0])
            elif kind == "repeat" and executed:
                dot = data.draw(st.sampled_from(sorted(executed)))
                with pytest.raises(ValueError):
                    seam.execute(Dot(*dot), previous[dot])
            elif kind == "announce" and chains:
                peer = data.draw(st.sampled_from([1, 2]))
                source = data.draw(st.sampled_from(sorted(chains)))
                chain = chains[source]
                reached = data.draw(st.integers(0, len(chain)))
                if reached:
                    seam.tracker.ingest(peer, {source: chain[reached - 1]})
                    known = peer_clocks[peer]
                    known[source] = max(known.get(source, 0), chain[reached - 1])
            elif kind == "advance":
                newly = []
                for source, chain in chains.items():
                    level = min(
                        [frontier(source)]
                        + [known.get(source, 0) for known in peer_clocks.values()]
                    )
                    old = watermark.get(source, 0)
                    if level > old:
                        watermark[source] = level
                        newly += [
                            (source, lo, hi)
                            for lo, hi in _runs(s for s in chain if old < s <= level)
                        ]
                assert sorted(seam.tracker.advance()) == sorted(newly)
            announcement = seam.tracker.announcement()
            expected = clock()
            if expected == announced:
                assert announcement is None
            else:
                assert list(announcement.items()) == list(expected.items())
                announced = expected
            runs = 0
            for source, chain in chains.items():
                assert seam.chains.frontier(source) == frontier(source)
                assert [seam.tracker.collected(Dot(source, s)) for s in chain] == [
                    s <= watermark.get(source, 0) for s in chain
                ]
                covered = set()
                for dot in executed:
                    if dot[0] == source:
                        covered.update(range(previous[dot] + 1, dot[1] + 1))
                runs += len(_runs(covered))
            assert seam.chains.range_count() == runs
        assert seam.tracker.collected_count == sum(
            len([s for s in chain if s <= watermark.get(source, 0)])
            for source, chain in chains.items()
        )


def settle_gc(cluster, rounds: int = 80) -> None:
    """Settle long enough for at least two ``gc_interval`` windows (the
    default is 25 ms and inline settle ticks advance 1 ms per round)."""
    cluster.settle(rounds=rounds)


class TestTempoCollection:
    def test_executed_records_are_collected(self):
        cluster = TempoCluster(num_processes=3, faults=1)
        commands = [cluster.submit(index % 3, ["hot"]) for index in range(6)]
        settle_gc(cluster)
        for process in cluster.processes:
            for command in commands:
                dot = command.dot
                assert dot in process.executed_dots()  # witness is kept
                assert process.gc.collected(dot)
                assert dot not in process._info
                assert process.phase_of(dot) is Phase.EXECUTE
            assert not process.order._buffered
            # The promises attached to them folded into one issued range.
            assert process.order.issued_above(0) == (
                {process.process_id: ((1, process.order.clock),)},
                {},
            )
            # Nothing is left waiting for an ingredient, however long we wait.
            assert process.blocked_on(float("inf")) == []

    def test_promise_collected_before_its_first_broadcast_folds_after_it(self):
        cluster = TempoCluster(num_processes=3, faults=1)
        process = cluster.process(0)
        dot = cluster.submit(0, ["k"]).dot
        cluster.run()  # executed, but no tick yet: the promise never went out
        assert process.order._tracker._watermark < process.order.clock  # not sent yet
        process._collect(dot)  # the watermark passes the dot first
        assert dot in process.order.issued_above(0)[1]
        process.broadcast_promises(0.0)
        envelopes = process.drain_outbox()
        assert [envelope.destination for envelope in envelopes] == [1, 2]
        for envelope in envelopes:
            assert isinstance(envelope.message, MPromises)
            assert dot in envelope.message.attached  # unchanged on the wire
        assert process.order.issued_above(0) == (
            {process.process_id: ((1, process.order.clock),)},
            {},
        )

    def test_late_duplicates_are_suppressed(self):
        cluster = TempoCluster(num_processes=3, faults=1)
        command = cluster.submit(0, ["k"])
        settle_gc(cluster)
        target = cluster.process(1)
        assert command.dot not in target._info
        timestamp = cluster.process(0).order.clock
        # Re-delivered propose and commit for the collected dot must not
        # resurrect a record or emit protocol traffic.
        target.deliver(0, MPropose(command.dot, command, {0: (0, 1)}, 1), 999.0)
        target.deliver(
            0,
            MCommit(command.dot, max(timestamp, 1), attached={}),
            999.0,
        )
        assert command.dot not in target._info
        assert not target.outbox

    def test_crashed_peer_stalls_collection(self):
        """A crashed peer stays in the minimum: survivors keep every record
        (GC stalls) rather than dropping state the peer still needs."""
        cluster = TempoCluster(num_processes=3, faults=1)
        victim = cluster.process(2)
        victim.crash()
        victim.outbox.clear()
        for process in cluster.processes:
            process.set_alive_view(2, False)
        commands = [cluster.submit(index % 2, ["hot"]) for index in range(4)]
        settle_gc(cluster)
        for process in cluster.processes[:2]:
            for command in commands:
                assert command.dot in process.executed_dots()
                assert not process.gc.collected(command.dot)
                assert command.dot in process._info

    def test_convergence_unaffected_by_collection(self):
        cluster = TempoCluster(num_processes=3, faults=1)
        commands = [cluster.submit(index % 3, ["hot"]) for index in range(8)]
        settle_gc(cluster)
        dots = {command.dot for command in commands}
        orders = {
            tuple(dot for dot in process.executed_dots() if dot in dots)
            for process in cluster.processes
        }
        assert len(orders) == 1
        snapshots = {
            tuple(sorted(store.snapshot().items()))
            for store in cluster.stores.values()
        }
        assert len(snapshots) == 1


class TestCrossShardCollection:
    def test_a_chain_executed_out_of_order_is_collected_in_order(self, monkeypatch):
        """Jitter on the link between sites 0 and 1 (delay only, no loss)
        reorders a shard-0 source's proposals at shard 1, so a later
        cross-shard dot of the source executes there before its chain
        predecessor does.  The predecessor's record must outlive that: it
        goes only once every replica of the shard executed it."""
        steps = []  # (what, process id, dot, detail), in event order
        record_execution = TempoProcess.record_execution
        collect = TempoProcess._collect

        def recording_execution(self, dot, command, now):
            steps.append(("executed", self.process_id, dot, command))
            record_execution(self, dot, command, now)

        def recording_collect(self, dot):
            steps.append(("collected", self.process_id, dot, dot in self._info))
            collect(self, dot)

        monkeypatch.setattr(TempoProcess, "record_execution", recording_execution)
        monkeypatch.setattr(TempoProcess, "_collect", recording_collect)
        jitter = FlakyLink(
            at_ms=300.0, until_ms=1_200.0, site_a=0, site_b=1, jitter_ms=400.0
        )
        config = ExperimentConfig(
            protocol="tempo",
            num_sites=3,
            num_shards=2,
            clients_per_site=8,
            workload="ycsbt",
            zipf=0.7,
            write_ratio=0.5,
            duration_ms=1_500.0,
            warmup_ms=100.0,
            seed=1,
            sites=("ireland", "n-california", "singapore"),
            fault_plan=FaultPlan([jitter]),
            record_execution_trace=True,
        )
        # A collection ahead of local execution would fail _collect's phase
        # assertion inside the run.
        processes = run_experiment(config).deployment.processes
        executed = {process.process_id: set() for process in processes}
        overtaken = set()  # (process id, predecessor executed after its successor)
        collected = set()
        for what, process_id, dot, detail in steps:
            process = processes[process_id]
            if what == "executed":
                previous = detail.previous(process.partition)
                if previous and intern_dot(dot.source, previous) not in executed[process_id]:
                    overtaken.add((process_id, intern_dot(dot.source, previous)))
                executed[process_id].add(dot)
                continue
            assert detail, f"{dot} collected at {process_id} without its record"
            assert all(dot in executed[peer] for peer in process.partition_peers()), (
                f"{dot} collected at {process_id} before its partition executed it"
            )
            collected.add((process_id, dot))
        assert any(processes[pid].partition == 1 for pid, _ in overtaken), overtaken
        for process_id, dot in overtaken:
            for peer in processes[process_id].partition_peers():
                assert (peer, dot) in collected
        for process in processes:
            assert not process._info, (process.process_id, sorted(process._info))


def build_dep_cluster(factory, num_processes: int = 3):
    config = ProtocolConfig(num_processes=num_processes, faults=1)
    partitioner = Partitioner(1)
    stores = {}
    processes = []
    for process_id in range(num_processes):
        store = KeyValueStore()
        stores[process_id] = store
        processes.append(
            factory(
                process_id, config, partitioner=partitioner, apply_fn=store.apply
            )
        )
    return processes, stores, InlineNetwork(processes)


class TestDependencyCollection:
    def test_atlas_archives_and_records_drain(self):
        processes, stores, network = build_dep_cluster(AtlasProcess)
        commands = []
        for index in range(6):
            process = processes[index % 3]
            command = process.new_command(["hot"])
            process.submit(command, 0.0)
            commands.append(command)
        network.settle(rounds=80)
        for process in processes:
            for command in commands:
                assert process.status_of(command.dot) == "execute"
                assert command.dot not in process._info
            footprint = process.conflict_footprint()
            assert footprint["live"] == 0, footprint
            assert footprint["archived"] == 0, footprint
            assert process.gc.collected_count >= len(commands)

    def test_atlas_follow_up_after_collection_converges(self):
        processes, stores, network = build_dep_cluster(AtlasProcess)
        for index in range(4):
            process = processes[index % 3]
            process.submit(process.new_command(["hot"]), 0.0)
        network.settle(rounds=80)
        follow_up = processes[0].new_command(["hot"])
        processes[0].submit(follow_up, 100.0)
        network.settle(now=100.0, rounds=80)
        for process in processes:
            assert process.status_of(follow_up.dot) == "execute"
        snapshots = {
            tuple(sorted(store.snapshot().items())) for store in stores.values()
        }
        assert len(snapshots) == 1

    def test_caesar_archives_and_records_drain(self):
        processes, stores, network = build_dep_cluster(CaesarProcess)
        commands = []
        for index in range(6):
            process = processes[index % 3]
            command = process.new_command(["hot"])
            process.submit(command, 0.0)
            commands.append(command)
        network.settle(rounds=80)
        for process in processes:
            for command in commands:
                assert process.status_of(command.dot) == "execute"
                assert command.dot not in process._info
            archived = sum(
                len(bucket) for bucket in process._committed_per_key.values()
            )
            assert archived == 0, process._committed_per_key
            assert process.gc.collected_count >= len(commands)

    def test_caesar_follow_up_after_collection_converges(self):
        processes, stores, network = build_dep_cluster(CaesarProcess)
        for index in range(4):
            process = processes[index % 3]
            process.submit(process.new_command(["hot"]), 0.0)
        network.settle(rounds=80)
        follow_up = processes[0].new_command(["hot"])
        processes[0].submit(follow_up, 100.0)
        network.settle(now=100.0, rounds=80)
        for process in processes:
            assert process.status_of(follow_up.dot) == "execute"
        snapshots = {
            tuple(sorted(store.snapshot().items())) for store in stores.values()
        }
        assert len(snapshots) == 1
