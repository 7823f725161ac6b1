"""Epoch-2 watermark GC: the tracker, and collection end to end.

Covers the three layers of the globally-executed watermark scheme
(:mod:`repro.core.gc`):

1. ``GcTracker`` unit semantics — contiguous frontier, dirty-gated
   announcements, monotone clock merge, minimum-over-peers watermark;
2. Tempo integration — executed records (and their satellite bookkeeping)
   are actually dropped once globally executed, late duplicates are
   suppressed by the O(1) predicate, and a crashed peer stalls collection
   instead of unsafely excluding it from the minimum;
3. dependency-protocol integration (Atlas, Caesar) — per-key archives and
   executed records drain, and follow-up commands still commit, execute and
   converge after their dependency history has been collected.
"""

from __future__ import annotations

from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.gc import GcTracker
from repro.core.identifiers import Dot
from repro.core.messages import MCommit, MPromises, MPropose
from repro.core.phases import Phase
from repro.kvstore.store import KeyValueStore
from repro.protocols.atlas import AtlasProcess
from repro.protocols.caesar import CaesarProcess
from repro.simulator.inline import InlineNetwork

from tests.conftest import TempoCluster


class TestGcTracker:
    def make(self, process_id: int = 0, members=(0, 1, 2)) -> GcTracker:
        return GcTracker(process_id, members)

    def test_in_order_executions_advance_the_frontier(self):
        tracker = self.make()
        for sequence in (1, 2, 3):
            tracker.record_executed(Dot(1, sequence))
        assert tracker.local_frontier(1) == 3

    def test_out_of_order_executions_fill_gaps(self):
        tracker = self.make()
        tracker.record_executed(Dot(1, 2))
        tracker.record_executed(Dot(1, 4))
        assert tracker.local_frontier(1) == 0
        tracker.record_executed(Dot(1, 1))
        assert tracker.local_frontier(1) == 2
        tracker.record_executed(Dot(1, 3))
        assert tracker.local_frontier(1) == 4
        assert tracker.footprint()["pending_out_of_order"] == 0

    def test_foreign_sources_are_ignored(self):
        tracker = self.make(members=(0, 1, 2))
        tracker.record_executed(Dot(7, 1))
        assert tracker.local_frontier(7) == 0

    def test_announcement_is_dirty_gated(self):
        tracker = self.make()
        assert tracker.announcement() is None
        tracker.record_executed(Dot(0, 1))
        assert tracker.announcement() == {0: 1}
        # Nothing moved since: no re-announcement.
        assert tracker.announcement() is None

    def test_watermark_is_minimum_over_all_peers(self):
        tracker = self.make(process_id=0)
        for sequence in (1, 2, 3):
            tracker.record_executed(Dot(0, sequence))
        tracker.ingest(1, {0: 2})
        assert tracker.advance() == []  # peer 2 still at 0
        tracker.ingest(2, {0: 5})
        assert tracker.advance() == [(0, 1, 2)]  # min(3, 2, 5) = 2
        assert tracker.watermark_of(0) == 2
        assert tracker.collected(Dot(0, 2))
        assert not tracker.collected(Dot(0, 3))

    def test_ingest_merge_is_monotone(self):
        tracker = self.make(process_id=0)
        tracker.ingest(1, {0: 4})
        tracker.ingest(1, {0: 2})  # stale announcement must not regress
        tracker.record_executed(Dot(0, 1))
        tracker.ingest(2, {0: 9})
        assert tracker.advance() == [(0, 1, 1)]

    def test_advance_is_incremental_and_exact(self):
        """Raising a non-minimum entry never recomputes or advances; raising
        the minimum one does (the stale-set optimisation is behaviour
        preserving)."""
        tracker = self.make(process_id=0)
        tracker.record_executed(Dot(0, 1))
        tracker.ingest(1, {0: 1})
        tracker.ingest(2, {0: 1})
        assert tracker.advance() == [(0, 1, 1)]
        # Peer 1 races ahead; the minimum (still 1) is unchanged.
        tracker.ingest(1, {0: 10})
        assert tracker.advance() == []
        tracker.record_executed(Dot(0, 2))
        tracker.ingest(2, {0: 2})
        assert tracker.advance() == [(0, 2, 2)]
        assert tracker.collected_count == 2


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
            assert not process._buffered_attached
            # The promises attached to them folded into one issued range.
            assert process.tracker.snapshot_ranges(drain=False) == (
                ((1, process.clock.value),),
                {},
            )
            # Nothing is left waiting for an ingredient, however long we wait.
            assert process.blocked_on(float("inf")) == []

    def test_promise_collected_before_its_first_broadcast_folds_after_it(self):
        cluster = TempoCluster(num_processes=3, faults=1)
        process = cluster.process(0)
        dot = cluster.submit(0, ["k"]).dot
        cluster.run()  # executed, but no tick yet: the promise never went out
        assert process.tracker.has_pending()
        process._collect(dot)  # the watermark passes the dot first
        assert dot in process.tracker.snapshot_ranges(drain=False)[1]
        process.broadcast_promises(0.0)
        envelopes = process.drain_outbox()
        assert [envelope.destination for envelope in envelopes] == [1, 2]
        for envelope in envelopes:
            assert isinstance(envelope.message, MPromises)
            assert dot in envelope.message.attached  # unchanged on the wire
        assert process.tracker.snapshot_ranges(drain=False) == (
            ((1, process.clock.value),),
            {},
        )

    def test_late_duplicates_are_suppressed(self):
        cluster = TempoCluster(num_processes=3, faults=1)
        command = cluster.submit(0, ["k"])
        settle_gc(cluster)
        target = cluster.process(1)
        assert command.dot not in target._info
        timestamp = cluster.process(0).clock.value
        # Re-delivered propose and commit for the collected dot must not
        # resurrect a record or emit protocol traffic.
        target.on_message(
            0, MPropose(command.dot, command, {0: (0, 1)}, 1), 999.0
        )
        target.on_message(
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
            assert not process._executed_dots
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
