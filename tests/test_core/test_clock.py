"""Unit and property tests for the clock of :class:`TimestampOrder`:
``propose`` (Algorithm 1, lines 34-39) and ``bump`` (lines 40-43)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.identifiers import Dot
from repro.core.stability import TimestampOrder

DOT = Dot(1, 1)


def order_at(clock: int = 0) -> TimestampOrder:
    """A fresh component whose clock stands at ``clock`` (bumped there)."""
    order = TimestampOrder(0, (0, 1, 2))
    order.bump(clock)
    return order


def bumped(order: TimestampOrder, timestamp: int) -> range:
    """``bump`` to ``timestamp``; the detached promises it issued, read from
    the outgoing batch (what was pending before is drained first)."""
    order.outgoing()
    order.bump(timestamp)
    detached, attached = order.outgoing()
    assert not attached
    runs = detached.get(0, ())
    assert len(runs) <= 1  # one contiguous run
    return range(runs[0][0], runs[0][1] + 1) if runs else range(0)


class TestProposal:
    def test_proposal_is_at_least_clock_plus_one(self):
        order = order_at(5)
        timestamp, _ = order.propose(DOT, 0)
        assert timestamp == 6
        assert order.clock == 6

    def test_proposal_respects_minimum(self):
        order = order_at(5)
        timestamp, _ = order.propose(DOT, 10)
        assert timestamp == 10
        assert order.clock == 10

    def test_proposal_generates_detached_promises_for_skipped_values(self):
        order = order_at(1)
        _, detached = order.propose(DOT, 6)
        assert detached == range(2, 6)

    def test_proposal_without_skip_has_no_detached_promises(self):
        order = order_at(5)
        _, detached = order.propose(DOT, 6)
        assert not detached

    def test_table1_example_b_and_c(self):
        # Process B at clock 6 receiving proposal 6 proposes 7 (Table 1).
        order_b = order_at(6)
        assert order_b.propose(DOT, 6)[0] == 7
        # Process C at clock 10 proposes 11.
        order_c = order_at(10)
        assert order_c.propose(DOT, 6)[0] == 11

    def test_table1_example_d_detached_promises(self):
        # Process C bumps its clock from 1 to 6, generating promises 2..5.
        order_c = order_at(1)
        timestamp, detached = order_c.propose(DOT, 6)
        assert timestamp == 6
        assert detached == range(2, 6)

    def test_rejects_negative_minimum(self):
        with pytest.raises(ValueError):
            order_at().propose(DOT, -1)


class TestBump:
    def test_bump_advances_clock(self):
        order = order_at(3)
        detached = bumped(order, 7)
        assert order.clock == 7
        assert detached == range(4, 8)

    def test_bump_never_goes_backwards(self):
        order = order_at(9)
        detached = bumped(order, 4)
        assert order.clock == 9
        assert not detached

    def test_bump_to_current_value_is_noop(self):
        order = order_at(5)
        assert not bumped(order, 5)

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError):
            order_at().bump(-2)


class TestClockInvariants:
    def test_rejects_negative_initial_value(self):
        # A clock only ever starts at 0 and moves through ``bump`` and
        # ``propose``, which both refuse negative targets.
        with pytest.raises(ValueError):
            order_at(-1)

    @given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=1000)), max_size=50))
    def test_clock_is_monotone_and_promises_cover_all_skipped_values(self, operations):
        order = order_at()
        covered = set()
        previous = 0
        for index, (is_proposal, argument) in enumerate(operations, start=1):
            if is_proposal:
                timestamp, detached = order.propose(Dot(1, index), argument)
                covered.update(detached)
                covered.add(timestamp)
            else:
                covered.update(bumped(order, argument))
            assert order.clock >= previous
            previous = order.clock
        # Every timestamp up to the clock is either covered by a promise or
        # was never skipped (i.e. belongs to a proposal).  Together the
        # proposal timestamps and detached promises must cover 1..clock.
        assert covered == set(range(1, order.clock + 1)) or order.clock == 0

    @given(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=200))
    def test_proposal_always_exceeds_previous_clock(self, start, minimum):
        order = order_at(start)
        timestamp, _ = order.propose(DOT, minimum)
        assert timestamp > start
        assert timestamp >= minimum
