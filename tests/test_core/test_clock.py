"""Unit and property tests for the logical clock."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.clock import LogicalClock


class TestProposal:
    def test_proposal_is_at_least_clock_plus_one(self):
        clock = LogicalClock(value=5)
        result = clock.proposal(0)
        assert result.timestamp == 6
        assert clock.value == 6

    def test_proposal_respects_minimum(self):
        clock = LogicalClock(value=5)
        result = clock.proposal(10)
        assert result.timestamp == 10
        assert clock.value == 10

    def test_proposal_generates_detached_promises_for_skipped_values(self):
        clock = LogicalClock(value=1)
        result = clock.proposal(6)
        assert result.detached == range(2, 6)

    def test_proposal_without_skip_has_no_detached_promises(self):
        clock = LogicalClock(value=5)
        result = clock.proposal(6)
        assert not result.detached

    def test_table1_example_b_and_c(self):
        # Process B at clock 6 receiving proposal 6 proposes 7 (Table 1).
        clock_b = LogicalClock(value=6)
        assert clock_b.proposal(6).timestamp == 7
        # Process C at clock 10 proposes 11.
        clock_c = LogicalClock(value=10)
        assert clock_c.proposal(6).timestamp == 11

    def test_table1_example_d_detached_promises(self):
        # Process C bumps its clock from 1 to 6, generating promises 2..5.
        clock_c = LogicalClock(value=1)
        result = clock_c.proposal(6)
        assert result.timestamp == 6
        assert result.detached == range(2, 6)

    def test_rejects_negative_minimum(self):
        with pytest.raises(ValueError):
            LogicalClock().proposal(-1)


class TestBump:
    def test_bump_advances_clock(self):
        clock = LogicalClock(value=3)
        result = clock.bump(7)
        assert clock.value == 7
        assert result.detached == range(4, 8)

    def test_bump_never_goes_backwards(self):
        clock = LogicalClock(value=9)
        result = clock.bump(4)
        assert clock.value == 9
        assert not result.detached

    def test_bump_to_current_value_is_noop(self):
        clock = LogicalClock(value=5)
        assert not clock.bump(5).detached

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError):
            LogicalClock().bump(-2)


class TestClockInvariants:
    def test_rejects_negative_initial_value(self):
        with pytest.raises(ValueError):
            LogicalClock(value=-1)

    @given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=1000)), max_size=50))
    def test_clock_is_monotone_and_promises_cover_all_skipped_values(self, operations):
        clock = LogicalClock()
        covered = set()
        previous = 0
        for is_proposal, argument in operations:
            if is_proposal:
                result = clock.proposal(argument)
                covered.update(result.detached)
                covered.add(result.timestamp)
            else:
                result = clock.bump(argument)
                covered.update(result.detached)
            assert clock.value >= previous
            previous = clock.value
        # Every timestamp up to the clock is either covered by a promise or
        # was never skipped (i.e. belongs to a proposal).  Together the
        # proposal timestamps and detached promises must cover 1..clock.
        assert covered == set(range(1, clock.value + 1)) or clock.value == 0

    @given(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=200))
    def test_proposal_always_exceeds_previous_clock(self, start, minimum):
        clock = LogicalClock(value=start)
        result = clock.proposal(minimum)
        assert result.timestamp > start
        assert result.timestamp >= minimum
