"""The packed execution log reads as the list of dots it replaces."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.base import ExecutionLog
from repro.core.identifiers import Dot

_dots = st.builds(
    Dot, st.integers(min_value=0, max_value=63), st.integers(min_value=1, max_value=2**40)
)


def logged(dots):
    log = ExecutionLog()
    for dot in dots:
        log.append(dot)
    return log


@given(st.lists(_dots, max_size=20), _dots)
def test_it_reads_as_a_list_of_dots(dots, probe):
    log = logged(dots)
    assert list(log) == dots
    assert len(log) == len(dots)
    assert log == dots
    assert (probe in log) == (probe in dots)
    assert log.count(probe) == dots.count(probe)
    for dot in dots:
        assert dot in log
        assert log.count(dot) == dots.count(dot)
    assert log != dots + [probe]
    assert log.canonical() == tuple((dot.source, dot.sequence) for dot in dots)


def test_it_survives_pickling():
    dots = [Dot(2, 1), Dot(0, 7), Dot(63, 2**40)]
    restored = pickle.loads(pickle.dumps(logged(dots), pickle.HIGHEST_PROTOCOL))
    assert restored == dots


def test_a_source_of_64_or_more_raises():
    log = logged([Dot(63, 1)])
    with pytest.raises(ValueError):
        log.append(Dot(64, 1))
    assert log == [Dot(63, 1)]
    # Never logged, so never found.
    assert Dot(64, 1) not in log
    assert Dot(0, 2) not in log  # 2 * 64 + 0 == 1 * 64 + 64
