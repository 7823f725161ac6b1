"""Stability detection (Theorem 1, Figure 2) and the execution order it
licenses (Algorithm 2, line 52) — on the objects that ship: ``PromiseSet``,
the ``TimestampOrder`` that owns it, and a ``TempoProcess`` fed commits and
promises."""

from __future__ import annotations

from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.cluster import build_replicas
from repro.core.commands import Command
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot
from repro.core.messages import MCommit, MPayload, MPromises
from repro.core.promises import Promise, PromiseSet
from repro.core.stability import TimestampOrder
from repro.experiments.fig2_stability import promise_table

from tests.conftest import TempoCluster


def _promise_set(entries):
    promises = PromiseSet()
    promises.add_all(entries)
    return promises


class TestStableTimestamp:
    def test_empty_set_is_never_stable(self):
        assert PromiseSet().stable_timestamp([0, 1, 2]) == 0

    def test_majority_rule(self):
        promises = _promise_set([(0, 1), (0, 2), (1, 1), (1, 2), (2, 1)])
        assert promises.stable_timestamp([0, 1, 2]) == 2

    def test_five_processes_need_three_frontiers(self):
        promises = _promise_set(
            [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1), (3, 1), (3, 2)]
        )
        # Frontiers: [3, 2, 1, 2, 0] -> sorted [0, 1, 2, 2, 3] -> index 2 = 2.
        assert promises.stable_timestamp([0, 1, 2, 3, 4]) == 2

    def test_highest_contiguous_promises_helper(self):
        promises = _promise_set([(0, 1), (1, 1), (1, 2)])
        frontiers = [promises.highest_contiguous_promise(p) for p in (0, 1, 2)]
        assert frontiers == [1, 2, 0]


class TestFigure2:
    X = (Promise(0, 1), Promise(2, 3))
    Y = (Promise(1, 1), Promise(1, 2), Promise(1, 3))
    Z = (Promise(0, 2), Promise(2, 1), Promise(2, 2))

    def test_combinations_match_figure(self):
        rows = dict(promise_table([self.X, self.Y, self.Z], [0, 1, 2]))
        assert rows["0"] == 0 and rows["1"] == 0 and rows["2"] == 0
        assert rows["0+1"] == 1
        assert rows["0+2"] == 2
        assert rows["1+2"] == 2
        assert rows["0+1+2"] == 3


def execution_order(committed: Dict[Dot, int], stable_up_to: int) -> List[Dot]:
    """What one replica of a five-process partition executes, in order, once
    ``committed`` (dot -> timestamp) is committed there and a majority's
    promises reach ``stable_up_to``."""
    process = build_replicas("tempo", ProtocolConfig(num_processes=5, faults=1)).processes[0]
    quorums = {0: (0, 1, 2)}
    for dot, timestamp in committed.items():
        process.deliver(1, MPayload(dot, Command.write(dot, ["k"]), quorums), 0.0)
        process.deliver(1, MCommit(dot, timestamp), 0.0)
    # Committing bumped the replica's own clock — and promises — to the
    # highest timestamp; two peers make it a majority up to ``stable_up_to``.
    for peer in (1, 2):
        process.deliver(
            peer, MPromises(Dot(peer, 1), detached={peer: ((1, stable_up_to),)}), 0.0
        )
    assert process.order.stable_up_to() == min(
        stable_up_to, max(committed.values(), default=0)
    )
    return list(process.executed_dots())


class TestExecutionOrder:
    def test_orders_by_timestamp_then_identifier(self):
        committed = {Dot(1, 1): 2, Dot(0, 1): 2, Dot(2, 1): 1, Dot(0, 2): 5}
        assert execution_order(committed, stable_up_to=2) == [
            Dot(2, 1),
            Dot(0, 1),
            Dot(1, 1),
        ]

    def test_excludes_commands_above_the_stable_timestamp(self):
        committed = {Dot(0, 1): 3, Dot(1, 1): 4}
        assert execution_order(committed, stable_up_to=3) == [Dot(0, 1)]

    def test_empty_when_nothing_stable(self):
        assert execution_order({Dot(0, 1): 5}, stable_up_to=0) == []

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.builds(Dot, st.integers(0, 3), st.integers(1, 50)),
            st.integers(min_value=1, max_value=30),
            max_size=30,
        ),
        st.integers(min_value=0, max_value=30),
    )
    def test_order_is_total_and_deterministic(self, committed, stable):
        order = execution_order(committed, stable)
        # Deterministic: same input, same order.
        assert order == execution_order(committed, stable)
        # Sorted by (timestamp, dot).
        keys = [(committed[dot], dot) for dot in order]
        assert keys == sorted(keys)
        # Exactly the commands at or below the stable timestamp are included.
        assert set(order) == {dot for dot, ts in committed.items() if ts <= stable}


class TestTickCadence:
    """The tick is the promise cadence: every call broadcasts what is
    pending, whatever float clock drives it."""

    def test_ticks_a_hair_under_the_interval_apart_each_broadcast(self):
        # The asyncio runtime's float-seconds clock puts consecutive ticks
        # 4.999999999998 ms apart; a duty gated on ``now - last >= 5.0``
        # skipped every other one of them.
        cluster = TempoCluster(num_processes=3, faults=1)
        process = cluster.process(0)
        broadcasts = []
        for index, now in enumerate((0.0, 4.999999999999, 9.999999999998)):
            cluster.submit(0, [f"k{index}"], now)
            cluster.run(now)
            assert process.order._tracker._watermark < process.order.clock  # not sent yet
            process.tick(now)
            broadcasts.append(
                sorted(
                    envelope.destination
                    for envelope in process.drain_outbox()
                    if isinstance(envelope.message, MPromises)
                )
            )
        assert broadcasts == [[1, 2], [1, 2], [1, 2]]


class TestTimestampOrder:
    """The component's operations, without a process around them."""

    A, B = Dot(0, 1), Dot(1, 1)

    def test_own_attached_promise_counts_once_its_command_commits(self):
        order = TimestampOrder(0, (0, 1, 2))
        assert order.propose(self.A, 3) == (3, range(1, 3))
        assert order._buffered == {self.A: [(0, 3)]}
        assert order.frontier(0) == 2  # the skipped run is known at once
        order.commit(self.A, 3)
        assert order._buffered == {}
        assert order.frontier(0) == 3
        assert order.unstable_head() == self.A  # no peer promised anything

    def test_commands_become_stable_and_execute_in_timestamp_order(self):
        order = TimestampOrder(0, (0, 1, 2))
        order.commit(self.B, 2)
        order.commit(self.A, 2)
        order.absorb_promises(1, MPromises(Dot(1, 9), detached={1: ((1, 2),)}), bool)
        assert order.stable_up_to() == 2
        assert list(order.newly_stable()) == [self.A, self.B]
        assert order.unstable_head() is None
        assert order.stable_backlog() == [self.A, self.B]
        # A dot that is not ready blocks the ones after it.
        assert list(order.executable(lambda dot: dot != self.A)) == []
        assert order.execution_head() == self.A
        assert list(order.executable(lambda dot: True)) == [self.A, self.B]
        assert order.execution_head() is None

    def test_attached_promises_of_uncommitted_dots_wait(self):
        order = TimestampOrder(0, (0, 1, 2))
        message = MPromises(Dot(1, 9), attached={self.A: (1,), self.B: (2,)})
        waiting = order.absorb_promises(1, message, lambda dot: dot == self.B)
        assert waiting == [self.A]
        assert order._buffered == {self.A: [(1, 1)]}
        assert order.frontier(1) == 0  # (1, 2) is known, (1, 1) is not yet

    def test_piggyback_keeps_only_this_partitions_promises(self):
        order = TimestampOrder(0, (0, 1, 2))
        order.absorb_piggyback(self.A, {1: 4, 7: 4}, {1: ((1, 3),), 7: ((1, 3),)})
        assert (order.frontier(1), order.frontier(7)) == (3, 0)
        assert order._buffered == {self.A: [(1, 4)]}
        order.absorb_piggyback(self.B, {2: 1}, {}, usable=True)
        assert order.frontier(2) == 1 and self.B not in order._buffered

    def test_outgoing_drains_and_repair_sees_what_lies_above_a_frontier(self):
        order = TimestampOrder(0, (0, 1, 2))
        order.bump(10)
        order.propose(self.A, 0)
        assert order.outgoing() == ({0: ((1, 10),)}, {self.A: (11,)})
        assert order.outgoing() == ({}, {})
        assert order.issued_above(5) == ({0: ((6, 10),)}, {self.A: (11,)})
        assert order.issued_above(11) == ({}, {})
        order.forget(self.A)  # collected: the attached promise folds
        assert order.issued_above(0) == ({0: ((1, 11),)}, {})
        assert order.ledger_size() == 1


def _ranges_of(timestamps):
    """Sorted disjoint inclusive ``(lo, hi)`` ranges covering ``timestamps``."""
    ranges: List[List[int]] = []
    for timestamp in sorted(timestamps):
        if ranges and ranges[-1][1] + 1 == timestamp:
            ranges[-1][1] = timestamp
        else:
            ranges.append([timestamp, timestamp])
    return tuple((lo, hi) for lo, hi in ranges)


_LEDGER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("propose"), st.integers(0, 30)),
        st.tuples(st.just("bump"), st.integers(0, 30)),
        st.tuples(st.just("fold"), st.integers(0, 12)),
        st.tuples(st.just("drain"), st.just(0)),
        st.tuples(st.just("above"), st.integers(0, 40)),
    ),
    max_size=60,
)


class TestIssuedLedger:
    """The promise broadcast is a read of the issued ledger: everything
    issued above the clock at the last broadcast."""

    @settings(max_examples=200, deadline=None)
    @given(_LEDGER_OPS)
    def test_every_issued_promise_goes_out_exactly_once(self, ops):
        order = TimestampOrder(0, (0, 1, 2))
        proposed: Dict[Dot, int] = {}
        # The brute-force ledger: dots whose promise is still held attached,
        # folds waiting for a first broadcast, and the clock at the last one.
        held: set = set()
        waiting: set = set()
        watermark = 0
        sent: List[int] = []
        sent_attached: set = set()

        def drain():
            nonlocal watermark
            detached, attached = order.outgoing()
            for lo, hi in detached.get(0, ()):
                sent.extend(range(lo, hi + 1))
            for dot, (timestamp,) in attached.items():
                sent.append(timestamp)
                sent_attached.add(dot)
            watermark = order.clock
            held.difference_update(waiting)
            waiting.clear()

        for op, argument in ops:
            if op == "propose":
                dot = Dot(1, len(proposed) + 1)
                proposed[dot], _ = order.propose(dot, argument)
                held.add(dot)
            elif op == "bump":
                order.bump(argument)
            elif op == "fold":
                if argument < len(proposed):
                    dot = list(proposed)[argument]
                    order.forget(dot)
                    if dot in held:
                        if proposed[dot] <= watermark:
                            held.discard(dot)
                        else:
                            waiting.add(dot)
            elif op == "drain":
                drain()
            else:
                attached = {
                    dot: (proposed[dot],)
                    for dot in proposed
                    if dot in held and proposed[dot] > argument
                }
                attached_timestamps = {proposed[dot] for dot in held}
                detached = _ranges_of(
                    timestamp
                    for timestamp in range(argument + 1, order.clock + 1)
                    if timestamp not in attached_timestamps
                )
                assert order.issued_above(argument) == (
                    {0: detached} if detached else {},
                    attached,
                )
        drain()
        assert sorted(sent) == list(range(1, order.clock + 1))
        # Folded before its first broadcast or not, every attached promise
        # went out attached.
        assert sent_attached == set(proposed)
        assert order.outgoing() == ({}, {})
