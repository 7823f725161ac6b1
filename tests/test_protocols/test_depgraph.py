"""Unit and property tests of the dependency graph executor."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.commands import Command
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot
from repro.core.messages import MExecutedClock
from repro.protocols.atlas import AtlasProcess
from repro.protocols.dep_messages import MDepCommit
from repro.protocols.depgraph import DependencyGraphExecutor


def dot(source, sequence):
    return Dot(source, sequence)


class Host:
    """A bare executor's host: it answers ``settled`` from the dots the
    executor returned and the dots it was told are collected."""

    def __init__(self):
        self.settled = set()
        self.executor = DependencyGraphExecutor(self.settled.__contains__)
        self.executed = []

    def commit(self, dot, dependencies, sequence=0):
        newly = self.executor.commit(dot, dependencies, sequence)
        self.settled.update(newly)
        self.executed.extend(newly)
        return newly

    def collect(self, dot):
        self.settled.add(dot)

    def missing(self):
        return self.executor.missing()


class AtlasHost:
    """Replica 0 of a three-replica Atlas partition, fed commits and its
    peers' executed clocks by hand."""

    def __init__(self):
        self.process = AtlasProcess(0, ProtocolConfig(num_processes=3, faults=1))
        self.executed = self.process.executed

    def commit(self, dot, dependencies, sequence=0):
        command = Command.write(dot, ["k"])
        message = MDepCommit(dot, command, frozenset(dependencies), sequence)
        self.process.on_message(1, message, 0.0)

    def collect(self, dot):
        clock = MExecutedClock(dot, clock={dot.source: dot.sequence})
        for peer in (1, 2):
            self.process.on_message(peer, clock, 0.0)
        assert dot not in self.process._info

    def missing(self):
        return self.process.executor.missing()


D, U, C = dot(1, 1), dot(2, 1), dot(0, 1)

#: What a commit of C, which depends on D, does by what D is at the time:
#: (case, steps that make D so, whether C executes at its commit, the
#: missing set while it does not, steps that finish the run, the order).
SETTLED_CASES = [
    ("executed-uncollected", [("commit", D, ())], True, set(), [], [D, C]),
    ("collected", [("commit", D, ()), ("collect", D)], True, set(), [], [D, C]),
    ("committed-unexecuted", [("commit", D, (U,))], False, {U},
     [("commit", U, ())], [U, D, C]),
    ("unknown", [], False, {D}, [("commit", D, ())], [D, C]),
]


class TestSettledContract:
    @pytest.mark.parametrize("make_host", [Host, AtlasHost], ids=["bare", "atlas"])
    @pytest.mark.parametrize(
        "case, before, at_once, missing, after, order",
        SETTLED_CASES,
        ids=[row[0] for row in SETTLED_CASES],
    )
    def test_a_dependency_blocks_only_until_it_is_settled(
        self, make_host, case, before, at_once, missing, after, order
    ):
        host = make_host()

        def run(steps):
            for step, target, *dependencies in steps:
                if step == "commit":
                    host.commit(target, dependencies[0])
                else:
                    host.collect(target)

        run(before)
        executed_before = list(host.executed)
        host.commit(C, [D])
        assert (C in host.executed) == at_once, case
        assert host.missing() == missing, case
        if not at_once:
            assert list(host.executed) == executed_before, case
        run(after)
        assert list(host.executed) == order, case
        assert host.missing() == set(), case


class TestBasicExecution:
    def test_independent_commands_execute_immediately(self):
        host = Host()
        assert host.commit(dot(0, 1), []) == [dot(0, 1)]
        assert host.commit(dot(1, 1), []) == [dot(1, 1)]

    def test_dependency_blocks_until_committed(self):
        host = Host()
        assert host.commit(dot(0, 1), [dot(1, 1)]) == []
        assert host.commit(dot(1, 1), []) == [dot(1, 1), dot(0, 1)]

    def test_chain_executes_in_dependency_order(self):
        host = Host()
        host.commit(dot(0, 3), [dot(0, 2)])
        host.commit(dot(0, 2), [dot(0, 1)])
        assert host.commit(dot(0, 1), []) == [dot(0, 1), dot(0, 2), dot(0, 3)]

    def test_cycle_executes_as_one_component_ordered_by_sequence(self):
        host = Host()
        host.commit(dot(0, 1), [dot(1, 1)], sequence=2)
        executed = host.commit(dot(1, 1), [dot(0, 1)], sequence=1)
        assert executed == [dot(1, 1), dot(0, 1)]

    def test_cycle_with_uncommitted_member_blocks_entirely(self):
        # Figure 3: w -> y -> z -> {w, x}, x uncommitted.
        w, x, y, z = dot(0, 1), dot(0, 2), dot(1, 1), dot(2, 1)
        host = Host()
        host.commit(w, [y])
        host.commit(y, [z])
        host.commit(z, [w, x])
        assert host.executed == []
        executed = host.commit(x, [])
        assert set(executed) == {w, x, y, z}

    def test_executed_commands_are_not_revisited(self):
        host = Host()
        assert host.commit(dot(0, 1), []) == [dot(0, 1)]
        assert host.executor.advance() == []
        assert host.commit(dot(0, 2), [dot(0, 1)]) == [dot(0, 2)]

    def test_duplicate_commit_is_ignored(self):
        host = Host()
        host.commit(dot(0, 1), [dot(5, 5)])
        assert host.commit(dot(0, 1), [dot(9, 9)]) == []
        # The second commit's dependency was not recorded: nothing waits on
        # it, and the first commit executes once its own dependency does.
        assert host.missing() == {dot(5, 5)}
        assert host.executor.pending_execution() == [dot(0, 1)]
        assert host.commit(dot(5, 5), []) == [dot(5, 5), dot(0, 1)]
        # A commit of a settled dot is a duplicate too.
        assert host.commit(dot(0, 1), []) == []
        assert host.executor.pending_execution() == []

    def test_largest_pending_component(self):
        host = Host()
        host.commit(dot(0, 1), [dot(1, 1)])
        host.commit(dot(1, 1), [dot(2, 1)])
        host.commit(dot(2, 1), [dot(0, 1), dot(3, 1)])
        assert host.executor.largest_pending_component() == 3

    def test_missing_dependencies_track_commits_incrementally(self):
        host = Host()
        host.commit(dot(0, 1), [dot(1, 1), dot(2, 1)])
        assert host.missing() == {dot(1, 1), dot(2, 1)}
        assert host.commit(dot(1, 1), []) == [dot(1, 1)]
        assert host.missing() == {dot(2, 1)}
        # Transitive blocking resolves in the same step.
        assert host.commit(dot(2, 1), []) == [dot(2, 1), dot(0, 1)]
        assert host.missing() == set()


class TestExecutor:
    def test_executor_records_order_and_component_sizes(self):
        host = Host()
        executor = host.executor
        assert host.commit(dot(0, 1), [dot(1, 1)], sequence=2) == []
        assert executor.max_component_size() == 0
        newly = host.commit(dot(1, 1), [dot(0, 1)], sequence=1)
        assert newly == [dot(1, 1), dot(0, 1)]
        assert executor.max_component_size() == 2
        # The maximum is a running one: a later singleton does not lower it.
        assert host.commit(dot(2, 1), []) == [dot(2, 1)]
        assert executor.max_component_size() == 2

    def test_pending_lists_unexecuted_committed_commands(self):
        host = Host()
        host.commit(dot(0, 1), [dot(5, 5)])
        assert host.executor.pending_execution() == [dot(0, 1)]

    def test_advance_without_new_commits_is_a_noop(self):
        host = Host()
        executor = host.executor
        host.commit(dot(0, 1), [dot(5, 5)])  # blocked on uncommitted dep
        assert executor.advance() == []
        # A clean graph short-circuits, and the blocked command stays put.
        assert executor.advance() == []
        assert executor.pending_execution() == [dot(0, 1)]
        # The unblocking commit still flows through.
        newly = host.commit(dot(5, 5), [])
        assert newly == [dot(5, 5), dot(0, 1)]
        assert executor.advance() == []

    def test_duplicate_commit_does_not_mark_graph_dirty(self):
        host = Host()
        assert host.commit(dot(0, 1), []) == [dot(0, 1)]
        assert host.commit(dot(0, 1), []) == []
        assert host.executor.advance() == []


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
        host = Host()
        committed = {}
        for sequence, (node, deps) in enumerate(spec, start=1):
            node_dot = dot(0, node)
            if node_dot in committed:
                continue
            dep_dots = [dot(0, other) for other in deps if other != node]
            host.commit(node_dot, dep_dots, sequence=sequence)
            committed[node_dot] = set(dep_dots)
        executed = host.executed
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
        host = Host()
        for index in range(length, 0, -1):
            deps = [dot(0, index - 1)] if index > 1 else []
            host.commit(dot(0, index), deps, sequence=index)
        assert host.executed == [dot(0, index) for index in range(1, length + 1)]
