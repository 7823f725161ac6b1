"""Unit tests for command identifiers (dots)."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.identifiers import Dot, DotGenerator, intern_dot


class TestDot:
    def test_ordering_is_lexicographic(self):
        assert Dot(0, 1) < Dot(0, 2) < Dot(1, 1) < Dot(1, 5)

    def test_equality_and_hash(self):
        assert Dot(2, 7) == Dot(2, 7)
        assert hash(Dot(2, 7)) == hash(Dot(2, 7))
        assert Dot(2, 7) != Dot(2, 8)

    def test_initial_coordinator_is_source(self):
        assert Dot(3, 9).initial_coordinator() == 3

    def test_rejects_non_positive_sequence(self):
        with pytest.raises(ValueError):
            Dot(0, 0)
        with pytest.raises(ValueError):
            Dot(0, -1)

    def test_rejects_negative_source(self):
        with pytest.raises(ValueError):
            Dot(-1, 1)

    def test_str_is_compact(self):
        assert str(Dot(1, 2)) == "1.2"


class TestDotGenerator:
    def test_sequences_start_at_one(self):
        generator = DotGenerator(source=4)
        assert generator.next_id() == Dot(4, 1)

    def test_generates_unique_increasing_ids(self):
        generator = DotGenerator(source=0)
        dots = [generator.next_id() for _ in range(100)]
        assert len(set(dots)) == 100
        assert dots == sorted(dots)

    def test_peek_does_not_consume(self):
        generator = DotGenerator(source=1)
        assert generator.peek() == Dot(1, 1)
        assert generator.peek() == Dot(1, 1)
        assert generator.next_id() == Dot(1, 1)
        assert generator.peek() == Dot(1, 2)

    def test_generated_counts_issued_ids(self):
        generator = DotGenerator(source=2)
        assert generator.peek() == Dot(2, 1)
        for _ in range(5):
            generator.next_id()
        assert generator.peek() == Dot(2, 6)

    def test_iteration_yields_fresh_ids(self):
        generator = DotGenerator(source=0)
        iterator = iter(generator)
        first, second = next(iterator), next(iterator)
        assert first != second

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=200))
    def test_generators_from_different_sources_never_collide(self, source, count):
        left = DotGenerator(source=source)
        right = DotGenerator(source=source + 1)
        left_dots = {left.next_id() for _ in range(count)}
        right_dots = {right.next_id() for _ in range(count)}
        assert not left_dots & right_dots


class TestInterning:
    def test_peek_and_next_id_share_one_instance(self):
        generator = DotGenerator(source=7)
        peeked = generator.peek()
        assert generator.next_id() is peeked

    def test_two_generators_of_one_source_share_instances(self):
        first = DotGenerator(source=9)
        second = DotGenerator(source=9)
        assert first.next_id() is second.next_id()

    def test_intern_dot_returns_canonical_instance(self):
        generator = DotGenerator(source=11)
        minted = generator.next_id()
        assert intern_dot(11, 1) is minted
        # Equal-but-uninterned construction still compares equal.
        assert Dot(11, 1) == minted

    def test_sparse_lookup_does_not_widen_the_table(self):
        far_ahead = intern_dot(13, 1_000_000)
        assert far_ahead == Dot(13, 1_000_000)
        # The dense part of the table is unaffected.
        assert intern_dot(13, 1) == Dot(13, 1)

    def test_interned_dots_validate_like_plain_dots(self):
        with pytest.raises(ValueError):
            intern_dot(0, 0)
        with pytest.raises(ValueError):
            intern_dot(-1, 1)

    def test_hash_is_cached_and_stable(self):
        dot = Dot(3, 21)
        assert hash(dot) == 21 * 64 + 3
        assert hash(dot) == hash(intern_dot(3, 21))

    def test_pickle_and_copies_return_the_interned_instance(self):
        interned = intern_dot(5, 3)
        for dot in (interned, Dot(5, 3)):
            assert pickle.loads(pickle.dumps(dot)) is interned
            assert copy.deepcopy(dot) is interned
            assert copy.copy(dot) is interned

    def test_a_dot_is_slotted_and_immutable(self):
        dot = Dot(1, 2)
        assert not hasattr(dot, "__dict__")
        with pytest.raises(AttributeError):
            dot.sequence = 3
        assert repr(dot) == "Dot(source=1, sequence=2)"

    def test_equality_and_ordering_semantics_survive_interning(self):
        assert intern_dot(0, 2) > intern_dot(0, 1)
        assert intern_dot(1, 1) > intern_dot(0, 5)
        assert intern_dot(2, 2) != intern_dot(2, 3)
