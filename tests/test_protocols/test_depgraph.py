"""Unit and property tests of the dependency graph executor."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.identifiers import Dot
from repro.protocols.depgraph import DependencyGraph, DependencyGraphExecutor


def dot(source, sequence):
    return Dot(source, sequence)


class TestBasicExecution:
    def test_independent_commands_execute_immediately(self):
        graph = DependencyGraph()
        graph.commit(dot(0, 1), [])
        graph.commit(dot(1, 1), [])
        assert set(graph.execute_ready()) == {dot(0, 1), dot(1, 1)}

    def test_dependency_blocks_until_committed(self):
        graph = DependencyGraph()
        graph.commit(dot(0, 1), [dot(1, 1)])
        assert graph.execute_ready() == []
        graph.commit(dot(1, 1), [])
        assert graph.execute_ready() == [dot(1, 1), dot(0, 1)]

    def test_chain_executes_in_dependency_order(self):
        graph = DependencyGraph()
        graph.commit(dot(0, 3), [dot(0, 2)])
        graph.commit(dot(0, 2), [dot(0, 1)])
        graph.commit(dot(0, 1), [])
        assert graph.execute_ready() == [dot(0, 1), dot(0, 2), dot(0, 3)]

    def test_cycle_executes_as_one_component_ordered_by_sequence(self):
        graph = DependencyGraph()
        graph.commit(dot(0, 1), [dot(1, 1)], sequence=2)
        graph.commit(dot(1, 1), [dot(0, 1)], sequence=1)
        executed = graph.execute_ready()
        assert executed == [dot(1, 1), dot(0, 1)]

    def test_cycle_with_uncommitted_member_blocks_entirely(self):
        # Figure 3: w -> y -> z -> {w, x}, x uncommitted.
        w, x, y, z = dot(0, 1), dot(0, 2), dot(1, 1), dot(2, 1)
        graph = DependencyGraph()
        graph.commit(w, [y])
        graph.commit(y, [z])
        graph.commit(z, [w, x])
        assert graph.execute_ready() == []
        graph.commit(x, [])
        executed = graph.execute_ready()
        assert set(executed) == {w, x, y, z}

    def test_executed_commands_are_not_revisited(self):
        graph = DependencyGraph()
        graph.commit(dot(0, 1), [])
        assert graph.execute_ready() == [dot(0, 1)]
        assert graph.execute_ready() == []
        graph.commit(dot(0, 2), [dot(0, 1)])
        assert graph.execute_ready() == [dot(0, 2)]

    def test_duplicate_commit_is_ignored(self):
        graph = DependencyGraph()
        graph.commit(dot(0, 1), [])
        graph.commit(dot(0, 1), [dot(9, 9)])
        # The second commit's dependency was not recorded: nothing waits on
        # it, and the first commit executes alone.
        assert graph.missing() == set()
        assert graph.pending_execution() == [dot(0, 1)]
        assert graph.execute_ready() == [dot(0, 1)]

    def test_largest_pending_component(self):
        graph = DependencyGraph()
        graph.commit(dot(0, 1), [dot(1, 1)])
        graph.commit(dot(1, 1), [dot(2, 1)])
        graph.commit(dot(2, 1), [dot(0, 1), dot(3, 1)])
        assert graph.largest_pending_component() == 3

    def test_missing_dependencies_track_commits_incrementally(self):
        graph = DependencyGraph()
        graph.commit(dot(0, 1), [dot(1, 1), dot(2, 1)])
        assert graph.missing() == {dot(1, 1), dot(2, 1)}
        graph.commit(dot(1, 1), [])
        assert graph.missing() == {dot(2, 1)}
        graph.commit(dot(2, 1), [])
        assert graph.missing() == set()
        # Transitive blocking resolves in the same step.
        assert graph.execute_ready() == [dot(1, 1), dot(2, 1), dot(0, 1)]


class TestExecutor:
    def test_executor_records_order_and_component_sizes(self):
        executor = DependencyGraphExecutor()
        assert executor.commit(dot(0, 1), [dot(1, 1)], sequence=2) == []
        assert executor.max_component_size() == 0
        newly = executor.commit(dot(1, 1), [dot(0, 1)], sequence=1)
        assert newly == [dot(1, 1), dot(0, 1)]
        assert executor.max_component_size() == 2
        # The maximum is a running one: a later singleton does not lower it.
        assert executor.commit(dot(2, 1), []) == [dot(2, 1)]
        assert executor.max_component_size() == 2

    def test_pending_lists_unexecuted_committed_commands(self):
        executor = DependencyGraphExecutor()
        executor.commit(dot(0, 1), [dot(5, 5)])
        assert executor.graph.pending_execution() == [dot(0, 1)]

    def test_advance_without_new_commits_is_a_noop(self):
        executor = DependencyGraphExecutor()
        executor.commit(dot(0, 1), [dot(5, 5)])  # blocked on uncommitted dep
        assert executor.advance() == []
        # A clean graph short-circuits, and the blocked command stays put.
        assert executor.advance() == []
        assert executor.graph.pending_execution() == [dot(0, 1)]
        # The unblocking commit still flows through.
        newly = executor.commit(dot(5, 5), [])
        assert newly == [dot(5, 5), dot(0, 1)]
        assert executor.advance() == []

    def test_duplicate_commit_does_not_mark_graph_dirty(self):
        executor = DependencyGraphExecutor()
        assert executor.commit(dot(0, 1), []) == [dot(0, 1)]
        assert executor.commit(dot(0, 1), []) == []
        assert executor.advance() == []


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.lists(st.integers(1, 30), max_size=4)),
            max_size=30,
        )
    )
    def test_execution_respects_dependencies_and_executes_each_once(self, spec):
        """For random committed graphs, execution order respects committed
        dependencies across components and never repeats a command."""
        graph = DependencyGraph()
        committed = {}
        for sequence, (node, deps) in enumerate(spec, start=1):
            node_dot = dot(0, node)
            if node_dot in committed:
                continue
            dep_dots = [dot(0, other) for other in deps if other != node]
            graph.commit(node_dot, dep_dots, sequence=sequence)
            committed[node_dot] = set(dep_dots)
        executed = graph.execute_ready()
        assert len(executed) == len(set(executed))
        position = {node: index for index, node in enumerate(executed)}
        for node in executed:
            for dependency in committed[node]:
                if dependency not in committed:
                    # Depends on an uncommitted command: must not execute.
                    raise AssertionError(f"{node} executed with missing dep")
                # The dependency is executed, either before this node or in
                # the same strongly connected component.
                assert dependency in position

    @given(st.integers(2, 40))
    def test_long_chain_executes_completely(self, length):
        graph = DependencyGraph()
        for index in range(length, 0, -1):
            deps = [dot(0, index - 1)] if index > 1 else []
            graph.commit(dot(0, index), deps, sequence=index)
        executed = graph.execute_ready()
        assert executed == [dot(0, index) for index in range(1, length + 1)]
