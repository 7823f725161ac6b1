"""Unit and property tests for promises and the promise set."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.smallmodel import canonical
from repro.core.identifiers import Dot
from repro.core.messages import MCommit
from repro.core.promises import Promise, PromiseSet, PromiseTracker, _IntRanges
from repro.wire import WireError, encode


def issued(tracker):
    """Everything the tracker holds: ``(detached ranges, dot -> timestamps)``."""
    return tracker.issued_above(0)


class TestPromise:
    """A promise is a plain pair; range checks sit where values enter."""

    def test_rejects_zero_timestamp(self):
        tracker = PromiseTracker(0)
        with pytest.raises(ValueError):
            tracker.add_attached(Dot(0, 1), 0)
        with pytest.raises(ValueError):
            tracker.add_detached_range(0, 3)
        assert issued(tracker) == ((), {})

    def test_rejects_negative_process(self):
        with pytest.raises(WireError):
            encode(MCommit(Dot(0, 1), timestamp=1, attached={-1: 1}))

    def test_ordering(self):
        assert Promise(0, 1) < Promise(0, 2) < Promise(1, 1)
        assert Promise(1, 5) == (1, 5)


class TestPromiseTracker:
    def test_detached_promises_accumulate(self):
        tracker = PromiseTracker(0)
        tracker.add_detached_range(1, 2)
        tracker.add_detached_range(3, 3)
        assert issued(tracker) == (((1, 3),), {})

    def test_attached_promises_are_per_command(self):
        # A process attaches at most one promise to a command (PROPOSE, or
        # PAYLOAD on MRec): a second, different one is a bug, not an update.
        tracker = PromiseTracker(1)
        tracker.add_attached(Dot(0, 1), 5)
        tracker.add_attached(Dot(0, 2), 6)
        tracker.add_attached(Dot(0, 2), 6)  # the same promise again is accepted
        with pytest.raises(ValueError):
            tracker.add_attached(Dot(0, 2), 4)
        assert issued(tracker)[1] == {Dot(0, 1): (5,), Dot(0, 2): (6,)}

    def test_snapshot_drains_pending_promises(self):
        tracker = PromiseTracker(0)
        tracker.add_detached_range(1, 1)
        tracker.add_attached(Dot(0, 1), 2)
        assert tracker.broadcast(2) == (((1, 1),), {Dot(0, 1): (2,)})
        # Second broadcast is empty: each promise is sent only once.
        assert tracker.broadcast(2) == ((), {})

    def test_snapshot_without_drain_returns_everything(self):
        tracker = PromiseTracker(0)
        tracker.add_detached_range(1, 2)
        tracker.broadcast(2)
        assert issued(tracker)[0] == ((1, 2),)

    def test_has_pending(self):
        # Pending is "issued above the clock at the last broadcast".
        tracker = PromiseTracker(0)
        assert tracker.broadcast(0) == ((), {})
        tracker.add_detached_range(1, 4)
        assert tracker.issued_above(0) == (((1, 4),), {})
        assert tracker.broadcast(4) == (((1, 4),), {})
        assert tracker.broadcast(4) == ((), {})

    def test_all_issued_combines_attached_and_detached(self):
        tracker = PromiseTracker(2)
        tracker.add_detached_range(1, 1)
        tracker.add_attached(Dot(0, 1), 2)
        assert issued(tracker) == (((1, 1),), {Dot(0, 1): (2,)})

    def test_duplicate_detached_promise_not_requeued(self):
        tracker = PromiseTracker(0)
        tracker.add_detached_range(1, 1)
        tracker.broadcast(1)
        tracker.add_detached_range(1, 1)
        assert tracker.broadcast(1) == ((), {})

    def test_add_detached_range_matches_elementwise_add(self):
        by_range = PromiseTracker(0)
        by_range.add_detached_range(3, 7)
        elementwise = PromiseTracker(0)
        for timestamp in (3, 4, 5, 6, 7):
            elementwise.add_detached_range(timestamp, timestamp)
        assert issued(by_range) == issued(elementwise) == (((3, 7),), {})

    def test_add_detached_range_overlap_only_queues_new_timestamps(self):
        tracker = PromiseTracker(0)
        tracker.add_detached_range(1, 3)
        tracker.broadcast(3)
        tracker.add_detached_range(2, 5)
        assert tracker.broadcast(5)[0] == ((4, 5),)
        assert issued(tracker)[0] == ((1, 5),)

    def test_unsorted_detached_input_is_normalised(self):
        tracker = PromiseTracker(0)
        for timestamp in (5, 1, 3, 2):
            tracker.add_detached_range(timestamp, timestamp)
        assert issued(tracker)[0] == ((1, 3), (5, 5))

    def test_fold_refiles_broadcast_attached_promises_as_detached(self):
        tracker = PromiseTracker(0)
        tracker.add_detached_range(1, 2)
        tracker.add_attached(Dot(0, 1), 3)
        tracker.add_detached_range(4, 4)
        tracker.add_attached(Dot(0, 2), 5)
        tracker.broadcast(5)
        assert issued(tracker) == (
            ((1, 2), (4, 4)),
            {Dot(0, 1): (3,), Dot(0, 2): (5,)},
        )
        tracker.fold(Dot(0, 1))
        # Same promises, one ledger entry fewer: 3 joined the ranges around it.
        assert issued(tracker) == (((1, 4),), {Dot(0, 2): (5,)})
        assert tracker.ledger_size() == 2
        # Already broadcast as attached: not queued a second time.
        assert tracker.broadcast(5) == ((), {})
        tracker.fold(Dot(0, 1))  # idempotent, unknown dots included
        tracker.fold(Dot(9, 9))
        assert issued(tracker)[0] == ((1, 4),)

    def test_fold_waits_for_a_promise_s_first_broadcast(self):
        tracker = PromiseTracker(0)
        tracker.add_attached(Dot(0, 1), 2)
        tracker.fold(Dot(0, 1))
        assert issued(tracker) == ((), {Dot(0, 1): (2,)})
        _, attached = tracker.broadcast(2)
        assert attached == {Dot(0, 1): (2,)}  # went out attached
        assert issued(tracker) == (((2, 2),), {})
        assert tracker.broadcast(2) == ((), {})


def runs(timestamps):
    """The sorted disjoint inclusive runs of a set of integers."""
    spans = []
    for timestamp in sorted(timestamps):
        if spans and spans[-1][1] + 1 == timestamp:
            spans[-1] = (spans[-1][0], timestamp)
        else:
            spans.append((timestamp, timestamp))
    return spans


class TestIntRanges:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(1, 40), st.integers(0, 6)),
            max_size=60,
        )
    )
    def test_matches_a_naive_set(self, inserts):
        """``at_prefix`` inserts start right past the run from 1: the run
        from 1 grows under a hole above it, or reaches the hole and merges."""
        ranges = _IntRanges()
        naive = set()
        for at_prefix, lo, span in inserts:
            if at_prefix:
                lo = ranges.prefix() + 1
            hi = lo + span
            added = ranges.add_range(lo, hi)
            fresh = set(range(lo, hi + 1)) - naive
            assert added == runs(fresh)
            naive |= fresh
            assert ranges.ranges() == runs(naive)
            prefix = 0
            while prefix + 1 in naive:
                prefix += 1
            assert ranges.prefix() == prefix


class TestPromiseSet:
    def test_contiguous_frontier(self):
        promises = PromiseSet()
        promises.add_all([Promise(0, 1), Promise(0, 2), Promise(0, 4)])
        assert promises.highest_contiguous_promise(0) == 2
        promises.add_timestamp(0, 3)
        assert promises.highest_contiguous_promise(0) == 4

    def test_unknown_process_has_zero_frontier(self):
        assert PromiseSet().highest_contiguous_promise(7) == 0

    def test_membership(self):
        promises = PromiseSet()
        promises.add_timestamp(1, 1)
        promises.add_timestamp(1, 3)
        assert promises.highest_contiguous_promise(1) == 1
        # 3 was known above the hole: filling 2 moves the frontier past it.
        promises.add_timestamp(1, 2)
        assert promises.highest_contiguous_promise(1) == 3

    def test_duplicates_do_not_grow_the_set(self):
        once, twice = PromiseSet(), PromiseSet()
        for promises, repeats in ((once, 1), (twice, 2)):
            for _ in range(repeats):
                promises.add_timestamp(0, 1)
                promises.add_timestamp(0, 3)
        assert canonical(once) == canonical(twice)
        twice.add_timestamp(0, 2)
        assert twice.highest_contiguous_promise(0) == 3

    def test_an_empty_insertion_leaves_no_entry(self):
        promises = PromiseSet()
        promises.add_range(0, 5, 4)
        promises.add_timestamp(1, 0)
        promises.add_all([])
        assert canonical(promises) == canonical(PromiseSet())

    def test_stable_timestamp_requires_majority(self):
        promises = PromiseSet()
        # Only process 0 has promises: nothing is stable with r = 3.
        promises.add_all([Promise(0, 1), Promise(0, 2)])
        assert promises.stable_timestamp([0, 1, 2]) == 0
        # A second process (majority of 3) brings stability up to 1.
        promises.add_timestamp(1, 1)
        assert promises.stable_timestamp([0, 1, 2]) == 1

    def test_stable_timestamp_is_majority_minimum(self):
        promises = PromiseSet()
        for timestamp in range(1, 6):
            promises.add_timestamp(0, timestamp)
        for timestamp in range(1, 4):
            promises.add_timestamp(1, timestamp)
        promises.add_timestamp(2, 1)
        # Frontiers are [5, 3, 1]; the majority value (index 1) is 3.
        assert promises.stable_timestamp([0, 1, 2]) == 3

    def test_stable_timestamp_even_partition_requires_strict_majority(self):
        """Theorem 1 for even ``r``: ``r/2`` processes are not a majority.

        With r = 4 and frontiers [9, 9, 1, 0] only two processes know all
        promises up to 9 — one short of the strict majority of 3 — so the
        stable timestamp is 1 (backed by frontiers 9, 9 and 1), not 9.
        """
        promises = PromiseSet()
        promises.add_range(0, 1, 9)
        promises.add_range(1, 1, 9)
        promises.add_timestamp(2, 1)
        assert promises.stable_timestamp([0, 1, 2, 3]) == 1
        # A third process catching up makes 9 stable.
        promises.add_range(2, 2, 9)
        assert promises.stable_timestamp([0, 1, 2, 3]) == 9

    def test_stable_timestamp_two_processes_is_minimum(self):
        promises = PromiseSet()
        promises.add_range(0, 1, 5)
        promises.add_range(1, 1, 2)
        assert promises.stable_timestamp([0, 1]) == 2

    def test_out_of_order_insertion_advances_across_gaps(self):
        promises = PromiseSet()
        promises.add_timestamp(0, 5)
        promises.add_timestamp(0, 3)
        assert promises.highest_contiguous_promise(0) == 0
        promises.add_timestamp(0, 1)
        assert promises.highest_contiguous_promise(0) == 1
        promises.add_timestamp(0, 2)
        # 3 was waiting out of order; 4 is still missing.
        assert promises.highest_contiguous_promise(0) == 3
        promises.add_timestamp(0, 4)
        assert promises.highest_contiguous_promise(0) == 5

    def test_duplicate_adds_after_frontier_absorption(self):
        promises = PromiseSet()
        promises.add_all([Promise(0, 1), Promise(0, 2)])
        before = canonical(promises)
        promises.add_timestamp(0, 1)
        promises.add_timestamp(0, 2)
        assert canonical(promises) == before
        assert promises.highest_contiguous_promise(0) == 2

    def test_contains_after_frontier_absorption(self):
        promises = PromiseSet()
        promises.add_all([Promise(0, 2), Promise(0, 1), Promise(0, 4)])
        # 1 and 2 were absorbed into the frontier, 4 is out of order.
        assert promises.highest_contiguous_promise(0) == 2
        promises.add_timestamp(0, 3)
        assert promises.highest_contiguous_promise(0) == 4

    def test_add_range_extends_frontier(self):
        promises = PromiseSet()
        promises.add_range(0, 1, 100)
        assert promises.highest_contiguous_promise(0) == 100

    def test_add_range_absorbs_pending_timestamps(self):
        promises = PromiseSet()
        promises.add_timestamp(0, 3)
        promises.add_timestamp(0, 6)
        promises.add_range(0, 1, 4)
        # 3 was pending inside the range; 5 is missing, 6 stays pending.
        assert promises.highest_contiguous_promise(0) == 4
        promises.add_timestamp(0, 5)
        assert promises.highest_contiguous_promise(0) == 6

    def test_add_range_above_frontier_stays_pending(self):
        promises = PromiseSet()
        promises.add_range(0, 5, 8)
        assert promises.highest_contiguous_promise(0) == 0
        promises.add_range(0, 1, 4)
        assert promises.highest_contiguous_promise(0) == 8

    def test_add_range_matches_elementwise_add(self):
        ranged = PromiseSet()
        elementwise = PromiseSet()
        for process, lo, hi in [(0, 4, 9), (0, 1, 3), (1, 2, 2), (0, 8, 12)]:
            ranged.add_range(process, lo, hi)
            elementwise.add_all(
                Promise(process, ts) for ts in range(lo, hi + 1)
            )
        assert canonical(ranged) == canonical(elementwise)
        for process in (0, 1):
            assert ranged.highest_contiguous_promise(
                process
            ) == elementwise.highest_contiguous_promise(process)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 40)),
            max_size=120,
        )
    )
    def test_frontier_matches_naive_computation(self, pairs):
        promises = PromiseSet()
        naive = {}
        for process, timestamp in pairs:
            promises.add_timestamp(process, timestamp)
            naive.setdefault(process, set()).add(timestamp)
        for process in range(4):
            known = naive.get(process, set())
            expected = 0
            while expected + 1 in known:
                expected += 1
            assert promises.highest_contiguous_promise(process) == expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 30), st.integers(0, 8)),
            max_size=60,
        )
    )
    def test_add_range_matches_naive_set_semantics(self, triples):
        promises = PromiseSet()
        naive = {}
        for process, lo, span in triples:
            promises.add_range(process, lo, lo + span)
            naive.setdefault(process, set()).update(range(lo, lo + span + 1))
        one_by_one = PromiseSet()
        one_by_one.add_all(
            (process, timestamp)
            for process, known in naive.items()
            for timestamp in sorted(known)
        )
        assert canonical(promises) == canonical(one_by_one)
        for process in range(3):
            known = naive.get(process, set())
            expected = 0
            while expected + 1 in known:
                expected += 1
            assert promises.highest_contiguous_promise(process) == expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(1, 30)),
            max_size=150,
        )
    )
    def test_stable_timestamp_never_exceeds_majority_frontier(self, pairs):
        promises = PromiseSet()
        for process, timestamp in pairs:
            promises.add_timestamp(process, timestamp)
        processes = list(range(5))
        stable = promises.stable_timestamp(processes)
        above = sum(
            1
            for process in processes
            if promises.highest_contiguous_promise(process) >= stable
        )
        assert above >= len(processes) // 2 + 1 or stable == 0

    @given(
        st.data(),
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 12), st.integers(0, 3)),
            max_size=30,
        ),
    )
    def test_equal_promises_digest_equal(self, data, entries):
        """However the same promises arrive, the sets digest alike: an
        out-of-order set left empty is not kept."""
        reordered = data.draw(st.permutations(entries))
        digests = []
        for order in (entries, reordered):
            promises = PromiseSet()
            for process, lo, span in order:
                if span:
                    promises.add_range(process, lo, lo + span)
                else:
                    promises.add_timestamp(process, lo)
            digests.append(canonical(promises))
        assert digests[0] == digests[1]
