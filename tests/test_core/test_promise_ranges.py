"""Tests for the range-native promise pipeline.

Covers the properties the pair/range representation relies on:

* **round-trip equivalence** — tracker ranges -> wire -> ``PromiseSet``
  absorption is indistinguishable from feeding every promise through one
  pair at a time;
* **batch-scoped stability equivalence** — delivering a message sequence as
  one ``MBatch`` produces exactly the same execution order, promise state
  and outgoing traffic as delivering the messages one by one;
* **one absorption** — a commit's piggyback lands the same way through each
  of the three places that take one in;
* **allocation witness** — no message path, in the simulator or through the
  codec, builds a ``Promise`` or any other per-promise object: pairs and
  ranges only.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.smallmodel import canonical
from repro.cluster import ExperimentConfig, build_replicas, run_experiment
from repro.core.base import MBatch, ProcessBase
from repro.core.commands import Command, Partitioner
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot
from repro.core.messages import MCommit, MPayload, MPromises, MPropose, MProposeAck
from repro.core.process import TempoProcess
from repro.core.promises import PromiseSet, PromiseTracker, RangeCollector
from repro.simulator.rng import SeededRng
from repro.wire import decode_frame, encode_frame
from tests.conftest import TempoCluster


def pairs_of(wire):
    """Every ``(process, timestamp)`` pair a range map stands for."""
    return [
        (process, timestamp)
        for process, spans in wire.items()
        for lo, hi in spans
        for timestamp in range(lo, hi + 1)
    ]


def build(r=3, ids=None):
    config = ProtocolConfig(num_processes=r, faults=1)
    partitioner = Partitioner(1)
    return [
        TempoProcess(process_id, config, partitioner=partitioner)
        for process_id in (ids if ids is not None else range(r))
    ]


class TestRoundTrip:
    def test_snapshot_ranges_equals_materialised_snapshot(self):
        by_range = PromiseTracker(3)
        one_by_one = PromiseTracker(3)
        issued = set()
        rng = SeededRng(11)
        cursor = 1
        for _ in range(50):
            width = int(rng.uniform_between(1, 40))
            gap = int(rng.uniform_between(0, 3))
            lo = cursor + gap
            hi = lo + width
            by_range.add_detached_range(lo, hi)
            for timestamp in range(lo, hi + 1):
                one_by_one.add_detached_range(timestamp, timestamp)
            issued.update(range(lo, hi + 1))
            cursor = hi + 1
        ranges, _ = by_range.issued_above(0)
        assert ranges == one_by_one.issued_above(0)[0]
        assert set(pairs_of({3: ranges})) == {(3, timestamp) for timestamp in issued}

    def test_wire_to_tracker_to_emitted_ranges_matches_promise_sets(self):
        """ranges -> wire -> PromiseSet == one pair at a time."""
        rng = SeededRng(7)
        wire = {}
        for process in range(5):
            spans = []
            cursor = 1
            for _ in range(10):
                lo = cursor + int(rng.uniform_between(0, 4))
                hi = lo + int(rng.uniform_between(0, 30))
                spans.append((lo, hi))
                cursor = hi + 2
            wire[process] = tuple(spans)

        via_ranges = PromiseSet()
        via_ranges.absorb_ranges(wire)
        via_pairs = PromiseSet()
        via_pairs.add_all(pairs_of(wire))

        processes = tuple(range(5))
        assert canonical(via_ranges) == canonical(via_pairs)
        for process in processes:
            assert via_ranges.highest_contiguous_promise(process) == (
                via_pairs.highest_contiguous_promise(process)
            )
        assert via_ranges.stable_timestamp(processes) == via_pairs.stable_timestamp(
            processes
        )

    def test_absorb_ranges_respects_the_peer_filter(self):
        promises = PromiseSet()
        promises.absorb_ranges({0: ((1, 5),), 7: ((1, 9),)}, only=frozenset({0, 1, 2}))
        assert promises.highest_contiguous_promise(0) == 5
        assert promises.highest_contiguous_promise(7) == 0

    def test_range_collector_equals_set_union(self):
        collector = RangeCollector()
        collector.update({1: ((4, 6),), 2: ((1, 1),)})
        collector.update({1: ((5, 9), (12, 12)), 2: ((2, 3),)})
        expected = {(1, t) for t in (4, 5, 6, 7, 8, 9, 12)} | {
            (2, t) for t in (1, 2, 3)
        }
        assert collector.to_wire() == {1: ((4, 9), (12, 12)), 2: ((1, 3),)}
        assert set(pairs_of(collector.to_wire())) == expected
        absorbed = PromiseSet()
        absorbed.absorb_ranges(collector.to_wire())
        assert absorbed.highest_contiguous_promise(1) == 0
        assert absorbed.highest_contiguous_promise(2) == 3
        # Filling 1..3 and 10..11 shows 4..9 and 12 were held above the holes.
        absorbed.add_range(1, 1, 3)
        assert absorbed.highest_contiguous_promise(1) == 9
        absorbed.add_range(1, 10, 11)
        assert absorbed.highest_contiguous_promise(1) == 12


def _drive(target, deliveries, batched: bool):
    """Deliver ``deliveries`` (sender, message) to ``target`` one by one or
    as a single MBatch from one sender, returning observable state."""
    if batched:
        sender = deliveries[0][0]
        target.deliver(sender, MBatch(tuple(m for _, m in deliveries)), 1.0)
    else:
        for sender, message in deliveries:
            target.deliver(sender, message, 1.0)
    outbox = [type(envelope.message).__name__ for envelope in target.drain_outbox()]
    return (
        tuple(target.executed_dots()),
        target.order.stable_up_to(),
        sorted(outbox),
        canonical(target.order),
    )


class TestBatchScopedStability:
    def _deliveries(self, coordinator, target):
        command_a = coordinator.new_command(["hot"])
        command_b = coordinator.new_command(["hot"])
        quorums = {0: tuple(coordinator.quorum_system.fast_quorum(0, 0))}
        return [
            (0, MPayload(command_a.dot, command_a, quorums)),
            (0, MPayload(command_b.dot, command_b, quorums)),
            (
                0,
                MCommit(
                    command_a.dot,
                    timestamp=1,
                    partition=0,
                    attached={0: 1, 1: 1},
                ),
            ),
            (
                0,
                MCommit(
                    command_b.dot,
                    timestamp=2,
                    partition=0,
                    attached={0: 2, 1: 2},
                ),
            ),
            (0, MPromises(Dot(0, 99), detached={0: ((3, 8),)})),
        ]

    def test_single_message_and_batched_delivery_are_equivalent(self):
        """The batch-delivery scope must not change execution order, promise
        state or emitted traffic — only *when* the reactive work runs."""
        results = []
        for batched in (False, True):
            processes = build()
            coordinator, target = processes[0], processes[2]
            results.append(
                _drive(target, self._deliveries(coordinator, target), batched)
            )
        assert results[0] == results[1]
        executed, stable, _, _ = results[0]
        assert len(executed) == 2  # both commands executed in (ts, id) order
        assert stable >= 2

    def test_the_check_runs_when_deliver_ends(self):
        """One path: a handler only marks the delivery scope, and the check
        runs once, when ``deliver`` unwinds.  Commits handed to
        ``on_message`` outside any delivery execute nothing until the next
        delivery closes."""
        processes = build()
        coordinator, target = processes[0], processes[2]
        payload_a, payload_b, commit_a, commit_b, promises = self._deliveries(
            coordinator, target
        )
        for sender, message in (payload_a, payload_b):
            target.deliver(sender, message, 1.0)
        for sender, message in (commit_a, commit_b):
            target.on_message(sender, message, 1.0)
        assert len(target.executed_dots()) == 0
        target.deliver(*promises, 1.0)
        assert len(target.executed_dots()) == 2


class TestStableNotificationTargets:
    """MStable recipients: *other*-partition processes only.

    Same-partition peers derive stability locally, and this process
    records its own partition's stability as state, so notifying either is
    pure redundancy; cross-partition processes cannot derive it and must
    be notified.
    """

    def test_single_partition_notifications_stay_local(self):
        process = build()[1]
        assert process._stable_targets_for({0: ()}) == []

    def test_multi_partition_notifications_cover_other_partitions(self):
        config = ProtocolConfig(num_processes=3, faults=1, num_partitions=2)
        process = TempoProcess(1, config, partitioner=Partitioner(2))
        targets = process._stable_targets_for({0: (), 1: ()})
        assert targets == sorted(config.processes_of_partition(1))
        assert not set(config.processes_of_partition(0)) & set(targets)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(["a", "b", "c"])),
            min_size=1,
            max_size=6,
        )
    )
    def test_a_single_partition_run_handles_no_mstable(self, submissions):
        cluster = TempoCluster(num_processes=3, faults=1)
        dots = [cluster.submit(process, [key]).dot for process, key in submissions]
        cluster.settle(rounds=3)
        for process in cluster.processes:
            assert sorted(process.executed_dots()) == sorted(dots)
            assert process.message_counts.get("MStable", 0) == 0


QUORUM = (0, 1, 2)


def _replica(process_id, clocks):
    """One replica of a fresh five-process partition that already heard the
    promises members 1 and 2 issued before the command (``clocks``)."""
    process = build_replicas(
        "tempo", ProtocolConfig(num_processes=5, faults=1)
    ).processes[process_id]
    for member, clock in clocks.items():
        if member == process_id:
            process.order.bump(clock)  # its own past
        else:
            process.deliver(
                member, MPromises(Dot(member, 1), detached={member: ((1, clock),)}), 0.0
            )
    return process


def _ack(dot, member, proposed, clock):
    """The ack of a member whose clock stood at ``clock`` and proposed
    ``proposed``: the run it skipped rides along as detached promises."""
    skipped = {member: ((clock + 1, proposed - 1),)} if proposed - 1 > clock else {}
    return MProposeAck(dot, proposed, skipped)


class TestOneAbsorption:
    """The peer-filtered absorption of a commit's piggyback exists once
    (``TimestampOrder.absorb_piggyback``); it is reached from a member's own
    fast-path commit, from ``MCommit``, and from ``MCommit`` for a dot that
    was already collected."""

    @settings(max_examples=60, deadline=None)
    @given(
        proposal=st.integers(1, 12),
        clock_1=st.integers(0, 15),
        lead=st.integers(0, 6),
    )
    def test_three_entry_points_leave_the_same_promises(self, proposal, clock_1, lead):
        # Member 2 holds the highest clock, so its proposal is the commit
        # timestamp and committing bumps no quorum member's clock further.
        clock_2 = max(proposal - 1, clock_1) + lead
        clocks = {1: clock_1, 2: clock_2}
        dot = Dot(0, 1)
        command = Command.write(dot, ["k"])
        quorums = {0: QUORUM}
        proposals = {
            0: proposal,
            1: max(proposal, clock_1 + 1),
            2: clock_2 + 1,
        }
        final = proposals[2]
        acks = {
            0: _ack(dot, 0, proposal, 0),
            1: _ack(dot, 1, proposals[1], clock_1),
        }

        # Entry 1: fast-quorum member 2 commits by itself from the acks.
        member = _replica(2, clocks)
        member.deliver(0, MPropose(dot, command, quorums, proposal), 0.0)
        for sender, ack in acks.items():
            member.deliver(sender, ack, 0.0)
        record = member._info[dot]
        assert record.is_committed and record.final_timestamp == final
        commit = next(
            envelope.message
            for envelope in member.drain_outbox()
            if type(envelope.message) is MCommit
        )
        assert commit.attached == proposals

        # Entry 2: a process outside the quorum is told by MCommit.
        outsider = _replica(3, clocks)
        outsider.deliver(0, MPayload(dot, command, quorums), 0.0)
        outsider.deliver(2, commit, 0.0)
        assert outsider._info[dot].is_committed

        # Entry 3: the same MCommit reaches a process that collected the dot.
        late = _replica(4, clocks)
        late.gc.frontier_moved(dot.source, late.chains.add(dot, dot.sequence - 1))
        for peer in late.partition_peers():
            late.gc.ingest(peer, {dot.source: dot.sequence})
        late.gc.advance()
        assert late.gc.collected(dot)
        late.deliver(2, commit, 0.0)
        assert dot not in late._info

        expected = [proposals[0], proposals[1], final]
        for process in (member, outsider, late):
            assert [process.order.frontier(member) for member in QUORUM] == expected
            assert process.order._buffered == {}
            assert all(
                process.order.frontier(member) >= timestamp
                for member, timestamp in proposals.items()
            )


def _only_pairs_and_ranges(message):
    """Whether ``message``'s promise fields hold ints in plain tuples and
    dicts, and nothing else."""
    if type(message) is MProposeAck:
        fields = [message.detached]
    elif type(message) is MCommit:
        fields = [message.attached, message.detached]
    elif type(message) is MPromises:
        fields = [message.detached, tuple(message.attached.values())]
    else:
        return True

    def plain(value):
        if type(value) is dict:
            return all(type(key) is int and plain(item) for key, item in value.items())
        if type(value) is tuple:
            return all(plain(item) for item in value)
        return type(value) is int

    return all(plain(field) for field in fields)


class TestAllocationWitness:
    @pytest.fixture
    def promise_counter(self, monkeypatch):
        import repro.core.promises as promises_module

        counter = {"created": 0}
        original = promises_module.Promise.__new__

        def counting(cls, *args, **kwargs):
            counter["created"] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(promises_module.Promise, "__new__", counting)
        promises_module.Promise(0, 1)
        assert counter["created"] == 1, "the witness does not see constructions"
        counter["created"] = 0
        return counter

    def test_detached_hot_path_materialises_no_promises(self, promise_counter):
        """A clock jump of 10k timestamps crosses tracker, wire and a peer's
        PromiseSet without creating a single Promise object."""
        issuer, receiver = build(ids=(0, 1))
        issuer.order.bump(10_000)
        issuer.broadcast_promises(now=1.0)
        envelopes = issuer.drain_outbox()
        messages = [
            envelope.message
            for envelope in envelopes
            if type(envelope.message) is MPromises and envelope.destination == 1
        ]
        assert messages, "broadcast did not emit MPromises"
        receiver.deliver(0, messages[0], 1.0)
        assert receiver.order.frontier(0) == 10_000
        assert promise_counter["created"] == 0

    def test_commit_piggyback_path_materialises_no_detached_promises(
        self, promise_counter
    ):
        """The MProposeAck -> RangeCollector -> MCommit -> PromiseSet chain
        stays range-encoded end to end."""
        collector = RangeCollector()
        collector.update({1: ((1, 5_000),), 2: ((1, 4_999),)})
        wire = collector.to_wire()
        promises = PromiseSet()
        promises.absorb_ranges(wire, only=frozenset({1, 2}))
        assert promises.highest_contiguous_promise(1) == 5_000
        assert promise_counter["created"] == 0

    def test_no_message_path_builds_a_per_promise_object(
        self, promise_counter, monkeypatch
    ):
        """A healthy, fully conflicting five-site run: every promise-carrying
        message a replica sends — as sent, and as it comes back out of
        ``decode_frame(encode_frame(...))`` — holds pairs and ranges only,
        and nothing constructed a ``Promise`` on the way."""
        seen = {"MProposeAck": 0, "MCommit": 0, "MPromises": 0}
        attached = {"MCommit": 0, "MPromises": 0}
        send = ProcessBase.send

        def witnessing_send(self, destinations, message, now=0.0):
            kind = type(message).__name__
            if kind in seen:
                seen[kind] += 1
                if kind in attached and message.attached:
                    attached[kind] += 1
                assert _only_pairs_and_ranges(message), message
                frame = encode_frame(message)
                decoded, _ = decode_frame(frame)
                assert decoded == message and len(frame) == message.size_bytes()
                assert _only_pairs_and_ranges(decoded), decoded
            send(self, destinations, message, now)

        monkeypatch.setattr(ProcessBase, "send", witnessing_send)
        result = run_experiment(
            ExperimentConfig(
                protocol="tempo",
                num_sites=5,
                clients_per_site=2,
                conflict_rate=1.0,
                duration_ms=1_500.0,
                warmup_ms=100.0,
            )
        )
        assert result.completed > 0
        assert all(seen.values()) and all(attached.values()), (seen, attached)
        assert promise_counter["created"] == 0
