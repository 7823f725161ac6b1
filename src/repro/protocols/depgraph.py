"""Dependency-graph execution used by EPaxos, Atlas and Janus* (§3.3).

Dependency-based leaderless protocols commit each command together with a
set of explicit dependencies.  Execution then proceeds over the directed
graph whose edges point from a command to its dependencies:

1. a command can only be considered once it is committed;
2. strongly connected components (SCCs) of the committed subgraph are
   executed one at a time, in reverse topological order;
3. an SCC can only be executed when every dependency reachable from it is
   committed — an uncommitted (or unknown) dependency blocks the whole
   component, which is the source of the unbounded execution delays the
   paper demonstrates (§3.3, §D).

Commands inside an SCC are ordered by their sequence number (EPaxos-style)
and identifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.core.identifiers import Dot

_NO_DEPENDENCIES: FrozenSet[Dot] = frozenset()


@dataclass(slots=True)
class GraphNode:
    """What the graph reads of a committed command.

    The graph holds a node from the command's commit until it executes
    here.  The dependency protocols' per-command record is a subclass
    (``DepInfo``), so a command's dependencies and sequence number are
    held once, by its record.
    """

    dependencies: FrozenSet[Dot] = _NO_DEPENDENCIES
    sequence: int = 0
    #: How many dependencies have not executed here yet, counted down as
    #: they execute.  The node is in the ``_dependents`` bucket of each of
    #: them, so per-commit bookkeeping touches only the live part of a
    #: dependency set, never the (mostly executed) history.
    live_deps: int = 0


def _new_node(dot: Dot, dependencies: FrozenSet[Dot], sequence: int) -> GraphNode:
    """The node of a graph used on its own: a fresh :class:`GraphNode`."""
    return GraphNode(dependencies, sequence)


class DependencyGraphExecutor:
    """The committed dependency graph at one process, executed as it
    grows: :meth:`commit` and :meth:`advance` return the commands they made
    executable, in execution order (the replica shell keeps the order,
    ``ProcessBase.executed``).

    The graph holds committed commands only until they execute.  Whether a
    dot it does not hold has executed is its host's to answer, through
    ``settled(dot)``: the dot executed here, or the watermark GC collected
    it (it executed everywhere).  The dependency protocols answer from the
    command's record (``status_of(dot) == "execute"``), so the fact has one
    owner.  A host must count what a call returned as settled before its
    next call.
    """

    _DIGEST_EXEMPT = frozenset(
        {"_settled", "_node", "_max_component_size"}  # wiring, statistic
    )

    def __init__(
        self,
        settled: Callable[[Dot], bool],
        node: Callable[[Dot, FrozenSet[Dot], int], GraphNode] = _new_node,
    ) -> None:
        self._settled = settled
        #: ``node(dot, dependencies, sequence)`` gives the node a commit
        #: holds, whose ``dependencies`` and ``sequence`` are the commit's.
        self._node = node
        #: Committed-but-unexecuted dots and their nodes, in commit order.
        #: A node leaves when its dot executes.
        self._nodes: Dict[Dot, GraphNode] = {}
        #: Reverse dependency edges: for each dot, the committed nodes that
        #: directly depend on it.  Maintained incrementally on commit and
        #: pruned on execution, so the blocked set can be computed by
        #: walking only the actually-blocked region instead of running the
        #: historical O(pending x deps) fixed point on every commit.
        self._dependents: Dict[Dot, Set[Dot]] = {}
        #: Uncommitted dots some committed, unexecuted node depends on —
        #: the sources of all blocking.  When empty, nothing is blocked and
        #: a commit costs O(deps).
        self._missing: Set[Dot] = set()
        self._max_component_size = 0
        #: Whether the committed subgraph changed since the last advance().
        #: Executing commands never unblocks anything (blocking is caused by
        #: *uncommitted* dependencies only) and advance() reaches a fixed
        #: point, so a clean graph cannot yield new executables.
        self._dirty = False

    def commit(self, dot: Dot, dependencies: Iterable[Dot], sequence: int = 0) -> List[Dot]:
        """Commit a command and return the commands that became executable;
        a duplicate commit returns none."""
        nodes = self._nodes
        settled = self._settled
        if dot in nodes or settled(dot):
            return []
        was_missing = dot in self._missing
        dependencies = frozenset(dependencies)
        node = nodes[dot] = self._node(dot, dependencies, sequence)
        if dependencies:
            # Peers with a smaller watermark may still emit dependencies on
            # dots collected here; those executed everywhere already, so
            # they must not re-enter the missing/blocked bookkeeping.  A
            # dependency on itself never blocks a command.
            live = [dep for dep in dependencies if dep != dot and not settled(dep)]
            node.live_deps = len(live)
            for dependency in live:
                self._dependents.setdefault(dependency, set()).add(dot)
                if dependency not in nodes:
                    self._missing.add(dependency)
        if not was_missing:
            # No committed node was waiting for ``dot`` (otherwise it would
            # have been a missing source), so this commit cannot unblock
            # anything else, and advance() left every other pending node
            # blocked at its last fixed point.  The only candidate executable
            # is ``dot`` itself: it runs exactly when all its dependencies
            # are already executed here (a committed-but-unexecuted
            # dependency is itself blocked, hence so is ``dot``).  This skips
            # the full blocked-set/SCC pass for the common in-order commit.
            if node.live_deps:
                return []
            if not self._max_component_size:
                self._max_component_size = 1
            self._mark_executed(dot)
            return [dot]
        # ``dot`` itself just stopped being a blocking source.
        self._missing.discard(dot)
        self._dirty = True
        return self.advance()

    def advance(self) -> List[Dot]:
        """Execute every ready component; return newly executed commands.

        A component is ready when every command reachable from it
        (following dependency edges, ignoring executed commands) is
        committed.  Components run in reverse topological order, the
        commands of one by sequence number and identifier.
        """
        if not self._dirty:
            return []
        self._dirty = False
        nodes = self._nodes
        blocked = self._blocked_set()
        roots = [dot for dot in nodes if dot not in blocked]
        newly: List[Dot] = []
        for component in self._tarjan(roots, blocked):
            if len(component) > self._max_component_size:
                self._max_component_size = len(component)
            component.sort(key=lambda dot: (nodes[dot].sequence, dot))
            for dot in component:
                self._mark_executed(dot)
            newly.extend(component)
        return newly

    def pending_execution(self) -> List[Dot]:
        """Committed commands not yet executed."""
        return list(self._nodes)

    def missing(self) -> Set[Dot]:
        """Uncommitted dots some committed, unexecuted command depends on:
        everything execution here is blocked on."""
        return self._missing

    def largest_pending_component(self) -> int:
        """Size of the largest SCC among committed, unexecuted commands
        (ignoring blocking); used by the evaluation to report dependency-
        chain growth."""
        pending = self.pending_execution()
        if not pending:
            return 0
        components = self._tarjan(pending, blocked=set())
        return max(len(component) for component in components) if components else 0

    def max_component_size(self) -> int:
        """Largest strongly connected component executed so far."""
        return self._max_component_size

    # -- internals --------------------------------------------------------------

    def _mark_executed(self, dot: Dot) -> None:
        """``dot`` executed: its node leaves the graph."""
        node = self._nodes.pop(dot)
        dependents = self._dependents
        if node.live_deps:
            # Executed ahead of a dependency of its own component: take it
            # out of the buckets of those still live.
            for dependency in node.dependencies:
                bucket = dependents.get(dependency)
                if bucket is not None and dot in bucket:
                    bucket.discard(dot)
                    if not bucket:
                        del dependents[dependency]
        # Executed nodes are never blocked, so edges into them are dead;
        # count them off the dependants, whose bookkeeping so stays
        # proportional to in-flight commands.
        waiting = dependents.pop(dot, None)
        if waiting:
            nodes = self._nodes
            for dependent in waiting:
                dependent_node = nodes.get(dependent)
                if dependent_node is not None:
                    dependent_node.live_deps -= 1

    def _blocked_set(self) -> Set[Dot]:
        """Commands that transitively depend on an uncommitted command.

        A command is blocked exactly when it can reach an uncommitted
        dependency through unexecuted committed nodes, so the set is the
        backward reachability of the ``_missing`` sources over the
        incrementally maintained reverse-dependency edges.  This walks only
        the actually-blocked region (and is O(1) when nothing is missing),
        replacing the historical O(pending x deps) fixed point; the
        resulting set is the same least fixed point, so the execution order
        downstream is unchanged.
        """
        blocked: Set[Dot] = set()
        if not self._missing:
            return blocked
        stack: List[Dot] = list(self._missing)
        while stack:
            source = stack.pop()
            for dependent in self._dependents.get(source, ()):
                if dependent in blocked or dependent not in self._nodes:
                    continue
                blocked.add(dependent)
                stack.append(dependent)
        return blocked

    def _tarjan(self, roots: Sequence[Dot], blocked: Set[Dot]) -> List[List[Dot]]:
        """Iterative Tarjan SCC over the committed, unexecuted, unblocked
        subgraph (whose nodes are exactly ``_nodes``); returns components in
        reverse topological order."""
        index_counter = [0]
        index: Dict[Dot, int] = {}
        lowlink: Dict[Dot, int] = {}
        on_stack: Set[Dot] = set()
        stack: List[Dot] = []
        components: List[List[Dot]] = []
        nodes = self._nodes
        #: Neighbour lists computed once per node per pass: the iterative
        #: Tarjan revisits a node once per recursion continuation, and
        #: recomputing the filtered list each time re-paid a hash probe per
        #: dependency.  The iteration order over ``dependencies`` (which
        #: downstream fixes the component order) is unchanged.
        neighbour_cache: Dict[Dot, List[Dot]] = {}

        def neighbours(dot: Dot) -> List[Dot]:
            cached = neighbour_cache.get(dot)
            if cached is not None:
                return cached
            result = []
            for dependency in nodes[dot].dependencies:
                if dependency in nodes and dependency not in blocked:
                    result.append(dependency)
            neighbour_cache[dot] = result
            return result

        def strongconnect(root: Dot) -> None:
            work: List[Tuple[Dot, int]] = [(root, 0)]
            while work:
                node, child_index = work[-1]
                if child_index == 0:
                    index[node] = index_counter[0]
                    lowlink[node] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                children = neighbours(node)
                for position in range(child_index, len(children)):
                    child = children[position]
                    if child not in index:
                        work[-1] = (node, position + 1)
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if recurse:
                    continue
                if lowlink[node] == index[node]:
                    component: List[Dot] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                work.pop()
                if work:
                    parent, _ = work[-1]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for root in roots:
            if root in index or root in blocked:
                continue
            strongconnect(root)
        return components

