"""Micro-benchmarks of the core data structures (pytest-benchmark timings).

These are not figures from the paper; they track the cost of the hot
operations of the library (promise insertion, stability queries, dependency
graph execution, clock operations) so regressions are visible.
"""

from __future__ import annotations

from repro.core.identifiers import Dot
from repro.core.promises import PromiseSet
from repro.core.stability import TimestampOrder
from repro.kvstore.store import KeyValueStore
from repro.core.commands import Command
from repro.protocols.depgraph import DependencyGraphExecutor


def test_bench_promise_set_insertion(benchmark):
    def insert():
        promises = PromiseSet()
        for process in range(5):
            for timestamp in range(1, 501):
                promises.add_timestamp(process, timestamp)
        return promises

    promises = benchmark(insert)
    assert promises.highest_contiguous_promise(0) == 500


def test_bench_stability_query(benchmark):
    promises = PromiseSet()
    for process in range(5):
        for timestamp in range(1, 2001):
            promises.add_timestamp(process, timestamp)

    result = benchmark(promises.stable_timestamp, range(5))
    assert result == 2000


def test_bench_clock_proposals(benchmark):
    def run():
        order = TimestampOrder(0, (0, 1, 2))
        for index in range(1, 1001):
            order.propose(Dot(0, index), index * 2)
        return order

    order = benchmark(run)
    assert order.clock == 2000


def test_bench_dependency_graph_execution(benchmark):
    def run():
        executed = set()
        executor = DependencyGraphExecutor(executed.__contains__)
        previous = None
        for index in range(1, 501):
            dot = Dot(0, index)
            deps = {previous} if previous is not None else set()
            executed.update(executor.commit(dot, deps, sequence=index))
            previous = dot
        return executed

    executed = benchmark(run)
    assert len(executed) == 500


def test_bench_kvstore_apply(benchmark):
    def run():
        store = KeyValueStore()
        for index in range(1, 1001):
            store.apply(Command.write(Dot(0, index), [f"k{index % 50}"]))
        return store

    store = benchmark(run)
    assert len(store) == 50
