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

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.identifiers import Dot


@dataclass
class CommittedNode:
    """A committed command inside the dependency graph."""

    dot: Dot
    dependencies: FrozenSet[Dot]
    sequence: int = 0
    #: Dependencies not yet executed *here*, shrunk as they execute.  Kept
    #: so per-commit bookkeeping touches only the live part of a dependency
    #: set instead of re-walking the (mostly executed) full history.
    live_deps: Set[Dot] = field(default_factory=set)


class DependencyGraph:
    """The committed dependency graph at one process."""

    _DIGEST_EXEMPT = frozenset({"_collected"})  # wiring to the GC predicate

    def __init__(
        self, collected: Optional[Callable[[Dot], bool]] = None
    ) -> None:
        #: Watermark-GC predicate (epoch-2): a collected dot is globally
        #: executed and its node/executed-set entries may have been dropped
        #: by :meth:`collect`.  A dependency on a collected dot is satisfied
        #: by definition, so commits filter such dots out of their live
        #: dependency sets instead of treating them as missing.
        self._collected = collected
        self._nodes: Dict[Dot, CommittedNode] = {}
        self._executed: Set[Dot] = set()
        #: Committed-but-unexecuted dots in commit order (insertion-ordered
        #: dict used as an ordered set).  Kept incrementally so execution
        #: passes never rescan the full node table.
        self._unexecuted: Dict[Dot, None] = {}
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

    def commit(self, dot: Dot, dependencies: Iterable[Dot], sequence: int = 0) -> bool:
        """Record that ``dot`` committed with the given dependencies.

        Returns ``True`` when the commit is new, ``False`` for duplicates.
        """
        if dot in self._nodes:
            return False
        dependencies = frozenset(dependencies)
        live = set(dependencies - self._executed)
        collected = self._collected
        if collected is not None and live:
            # Peers with a smaller watermark may still emit dependencies on
            # dots collected here; those executed everywhere already, so
            # they must not re-enter the missing/blocked bookkeeping.
            live = {dep for dep in live if not collected(dep)}
        self._nodes[dot] = CommittedNode(
            dot=dot, dependencies=dependencies, sequence=sequence, live_deps=live
        )
        self._unexecuted[dot] = None
        for dependency in live:
            self._dependents.setdefault(dependency, set()).add(dot)
            if dependency not in self._nodes:
                self._missing.add(dependency)
        # ``dot`` itself just stopped being a blocking source.
        self._missing.discard(dot)
        return True

    def mark_executed(self, dot: Dot) -> None:
        """Record that ``dot`` was executed."""
        self._executed.add(dot)
        self._unexecuted.pop(dot, None)
        node = self._nodes.get(dot)
        if node is not None:
            for dependency in node.live_deps:
                bucket = self._dependents.get(dependency)
                if bucket is not None:
                    bucket.discard(dot)
                    if not bucket:
                        del self._dependents[dependency]
        # Executed nodes are never blocked, so edges into them are dead;
        # shrink the dependants' live sets so their bookkeeping stays
        # proportional to in-flight commands.
        dependents = self._dependents.pop(dot, None)
        if dependents:
            nodes = self._nodes
            for dependent in dependents:
                dependent_node = nodes.get(dependent)
                if dependent_node is not None:
                    dependent_node.live_deps.discard(dot)

    def collect(self, dot: Dot) -> None:
        """Drop a globally-executed dot's node and executed-set entries.

        Only valid for dots already executed here (the caller's watermark
        guarantees it); duplicate suppression for late references moves to
        the ``collected`` predicate supplied at construction.
        """
        self._executed.discard(dot)
        self._nodes.pop(dot, None)

    def is_committed(self, dot: Dot) -> bool:
        return dot in self._nodes

    def pending_execution(self) -> List[Dot]:
        """Committed commands not yet executed."""
        return list(self._unexecuted)

    def dependencies_of(self, dot: Dot) -> FrozenSet[Dot]:
        node = self._nodes.get(dot)
        return node.dependencies if node is not None else frozenset()

    def missing(self) -> Set[Dot]:
        """Uncommitted dots some committed, unexecuted command depends on:
        everything execution here is blocked on."""
        return self._missing

    # -- execution ------------------------------------------------------------

    def executable_components(self) -> List[List[Dot]]:
        """Find SCCs that are ready to execute, in execution order.

        A component is ready when every command reachable from it (following
        dependency edges, ignoring already-executed commands) is committed.
        Components are returned in reverse topological order, i.e. the order
        in which they must be executed.
        """
        ready_roots = list(self._unexecuted)
        if not ready_roots:
            return []
        blocked = self._blocked_set()
        components = self._tarjan(
            [dot for dot in ready_roots if dot not in blocked], blocked
        )
        ordered: List[List[Dot]] = []
        for component in components:
            ordered.append(
                sorted(
                    component,
                    key=lambda dot: (self._nodes[dot].sequence, dot),
                )
            )
        return ordered

    def execute_ready(self) -> List[Dot]:
        """Mark every ready command as executed and return them in order."""
        order: List[Dot] = []
        for component in self.executable_components():
            for dot in component:
                self.mark_executed(dot)
                order.append(dot)
        return order

    def largest_pending_component(self) -> int:
        """Size of the largest SCC among committed, unexecuted commands
        (ignoring blocking); used by the evaluation to report dependency-
        chain growth."""
        pending = self.pending_execution()
        if not pending:
            return 0
        components = self._tarjan(pending, blocked=set(), ignore_blocked=True)
        return max(len(component) for component in components) if components else 0

    # -- internals --------------------------------------------------------------

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
                if dependent in blocked or dependent not in self._unexecuted:
                    continue
                blocked.add(dependent)
                stack.append(dependent)
        return blocked

    def _tarjan(
        self,
        roots: Sequence[Dot],
        blocked: Set[Dot],
        ignore_blocked: bool = False,
    ) -> List[List[Dot]]:
        """Iterative Tarjan SCC over the committed, unexecuted, unblocked
        subgraph; returns components in reverse topological order."""
        index_counter = [0]
        index: Dict[Dot, int] = {}
        lowlink: Dict[Dot, int] = {}
        on_stack: Set[Dot] = set()
        stack: List[Dot] = []
        components: List[List[Dot]] = []
        nodes = self._nodes
        executed = self._executed
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
                if dependency in executed or dependency not in nodes:
                    continue
                if not ignore_blocked and dependency in blocked:
                    continue
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
            if root in index:
                continue
            if root in self._executed:
                continue
            if not ignore_blocked and root in blocked:
                continue
            strongconnect(root)
        return components


class DependencyGraphExecutor:
    """Drives a :class:`DependencyGraph`: each call returns the commands it
    made executable, in execution order (the replica shell keeps the order,
    ``ProcessBase.executed``)."""

    _DIGEST_EXEMPT = frozenset({"_max_component_size"})  # statistic

    def __init__(
        self, collected: Optional[Callable[[Dot], bool]] = None
    ) -> None:
        self.graph = DependencyGraph(collected=collected)
        self._max_component_size = 0
        #: Whether the committed subgraph changed since the last advance().
        #: Executing commands never unblocks anything (blocking is caused by
        #: *uncommitted* dependencies only) and advance() reaches a fixed
        #: point, so a clean graph cannot yield new executables.
        self._dirty = False

    def commit(self, dot: Dot, dependencies: Iterable[Dot], sequence: int = 0) -> List[Dot]:
        """Commit a command and return the commands that became executable."""
        graph = self.graph
        was_missing = dot in graph._missing
        if not graph.commit(dot, dependencies, sequence):
            return []
        if not was_missing:
            # No committed node was waiting for ``dot`` (otherwise it would
            # have been a missing source), so this commit cannot unblock
            # anything else, and advance() left every other pending node
            # blocked at its last fixed point.  The only candidate executable
            # is ``dot`` itself: it runs exactly when all its dependencies
            # are already executed here (a committed-but-unexecuted
            # dependency is itself blocked, hence so is ``dot``).  This skips
            # the full blocked-set/SCC pass for the common in-order commit.
            live = graph._nodes[dot].live_deps
            if live and not (len(live) == 1 and dot in live):
                return []
            if not self._max_component_size:
                self._max_component_size = 1
            graph.mark_executed(dot)
            return [dot]
        self._dirty = True
        return self.advance()

    def advance(self) -> List[Dot]:
        """Execute every ready component; return newly executed commands."""
        if not self._dirty:
            return []
        self._dirty = False
        newly: List[Dot] = []
        components = self.graph.executable_components()
        for component in components:
            if len(component) > self._max_component_size:
                self._max_component_size = len(component)
            for dot in component:
                self.graph.mark_executed(dot)
                newly.append(dot)
        return newly

    def collect(self, dot: Dot) -> None:
        """Prune a globally-executed dot from the graph."""
        self.graph.collect(dot)

    def pending(self) -> List[Dot]:
        return self.graph.pending_execution()

    def max_component_size(self) -> int:
        """Largest strongly connected component executed so far."""
        return self._max_component_size
