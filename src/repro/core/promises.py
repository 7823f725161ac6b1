"""Promises and the promise-tracking data structures (§3.2).

A *promise* ``<j, u>`` states that process ``j`` will never again propose
timestamp ``u`` for any new command:

* an **attached** promise is tied to a specific command (process ``j``
  proposed ``u`` for that command);
* a **detached** promise is not tied to any command (the process skipped
  timestamp ``u`` when bumping its clock).

The execution protocol collects promises from the other processes of the
partition into a ``Promises`` set and derives, per process, the *highest
contiguous promise* — the largest ``c`` such that all of ``<j, 1> .. <j, c>``
are known.  Stability of a timestamp follows from Theorem 1.

Performance notes
-----------------

Detached promises are issued by clock jumps, so they arrive as contiguous
integer ranges.  :class:`PromiseTracker` therefore stores them as sorted
disjoint ``[lo, hi]`` ranges (``Promise`` objects are only materialised at
the broadcast/inspection boundary), which makes issuing a jump of any size
O(1) and makes the drain performed by :meth:`PromiseTracker.snapshot`
proportional to the number of *ranges*, not promises.  Similarly,
:class:`PromiseSet` absorbs a contiguous range in O(1) via
:meth:`PromiseSet.add_range` when it extends the frontier, and caches the
sorted-frontier answer of :meth:`PromiseSet.stable_timestamp` until a
frontier actually moves.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.identifiers import Dot

#: Wire encoding of detached promises: per process, the sorted disjoint
#: inclusive ``(lo, hi)`` timestamp ranges it promised.  This is what the
#: promise-carrying messages (``MPromises``, ``MProposeAck``, ``MCommit``)
#: put on the wire instead of materialised ``Promise`` objects — see
#: ``docs/promise_ranges.md``.
PromiseRangeWire = Mapping[int, Tuple[Tuple[int, int], ...]]


@dataclass(frozen=True, order=True)
class Promise:
    """A promise ``<process, timestamp>``."""

    process: int
    timestamp: int

    def __post_init__(self) -> None:
        if self.timestamp < 1:
            raise ValueError("promise timestamps start at 1")
        if self.process < 0:
            raise ValueError("process identifiers are non-negative")


class _IntRanges:
    """Sorted, disjoint, inclusive integer ranges.

    Appending past the current maximum — the clock-jump common case — is
    O(1); arbitrary insertion falls back to a bisect-based merge.
    """

    __slots__ = ("_ranges",)

    def __init__(self) -> None:
        self._ranges: List[List[int]] = []

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    def count(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self._ranges)

    def ranges(self) -> List[Tuple[int, int]]:
        return [(lo, hi) for lo, hi in self._ranges]

    def contains(self, value: int) -> bool:
        ranges = self._ranges
        index = bisect_left(ranges, [value + 1]) - 1
        return index >= 0 and ranges[index][0] <= value <= ranges[index][1]

    def iter_values(self) -> Iterator[int]:
        for lo, hi in self._ranges:
            yield from range(lo, hi + 1)

    def clear(self) -> None:
        self._ranges = []

    def add_range(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Insert ``[lo, hi]``; return the sub-ranges that were newly covered."""
        if hi < lo:
            return []
        ranges = self._ranges
        if not ranges or lo > ranges[-1][1] + 1:
            ranges.append([lo, hi])
            return [(lo, hi)]
        last = ranges[-1]
        if lo == last[1] + 1:
            last[1] = hi
            return [(lo, hi)]
        return self._add_range_slow(lo, hi)

    def _add_range_slow(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        ranges = self._ranges
        # First range whose start could fall inside or after [lo, hi],
        # stepping back one if the previous range covers or touches ``lo``.
        index = bisect_left(ranges, [lo])
        if index > 0 and ranges[index - 1][1] + 1 >= lo:
            index -= 1
        start = index
        added: List[Tuple[int, int]] = []
        cursor = lo
        merge_lo = lo
        merge_hi = hi
        while index < len(ranges) and ranges[index][0] <= hi + 1:
            range_lo, range_hi = ranges[index]
            if cursor < range_lo:
                added.append((cursor, min(hi, range_lo - 1)))
            if range_hi + 1 > cursor:
                cursor = range_hi + 1
            if range_lo < merge_lo:
                merge_lo = range_lo
            if range_hi > merge_hi:
                merge_hi = range_hi
            index += 1
        if cursor <= hi:
            added.append((cursor, hi))
        ranges[start:index] = [[merge_lo, merge_hi]]
        return added


def _materialise(process: int, ranges: Iterable[Tuple[int, int]]) -> FrozenSet[Promise]:
    return frozenset(
        Promise(process, timestamp)
        for lo, hi in ranges
        for timestamp in range(lo, hi + 1)
    )


def range_wire_count(wire: PromiseRangeWire) -> int:
    """Number of logical promises encoded by a range map.

    The wire-size accounting of the promise-carrying messages charges per
    logical promise, exactly as the historical ``FrozenSet[Promise]``
    encoding did, so the byte counters are unaffected by the encoding.
    """
    count = 0
    for spans in wire.values():
        for lo, hi in spans:
            count += hi - lo + 1
    return count


def range_wire_promises(wire: PromiseRangeWire) -> FrozenSet[Promise]:
    """Materialise a range map into ``Promise`` objects (tests/inspection)."""
    return frozenset(
        Promise(process, timestamp)
        for process, spans in wire.items()
        for lo, hi in spans
        for timestamp in range(lo, hi + 1)
    )


class RangeCollector:
    """Mutable per-process promise-range accumulator.

    The coordinator collects the detached promises piggybacked on
    ``MProposeAck`` messages into one of these (instead of a
    ``Set[Promise]``) and reads them back out as ranges when building the
    ``MCommit`` piggyback, so the contended fast path never materialises a
    ``Promise`` object per skipped timestamp.
    """

    __slots__ = ("_by_process",)

    def __init__(self) -> None:
        self._by_process: Dict[int, _IntRanges] = {}

    def __bool__(self) -> bool:
        return any(self._by_process.values())

    def add_range(self, process: int, lo: int, hi: int) -> None:
        """Record the promises ``<process, lo..hi>``."""
        if hi < lo:
            return
        ranges = self._by_process.get(process)
        if ranges is None:
            ranges = self._by_process[process] = _IntRanges()
        ranges.add_range(lo, hi)

    def update(self, wire: PromiseRangeWire) -> None:
        """Merge a wire-encoded range map into the collector."""
        for process, spans in wire.items():
            for lo, hi in spans:
                self.add_range(process, lo, hi)

    def to_wire(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """Wire encoding of the collected ranges."""
        return {
            process: tuple(ranges.ranges())
            for process, ranges in self._by_process.items()
            if ranges
        }

    def count(self) -> int:
        """Number of logical promises collected."""
        return sum(ranges.count() for ranges in self._by_process.values())

    def promises(self) -> FrozenSet[Promise]:
        """Materialised view (tests/inspection only)."""
        return range_wire_promises(self.to_wire())


class PromiseTracker:
    """Per-process accumulator of locally *issued* promises.

    Mirrors the ``Detached`` set and the ``Attached`` mapping of Algorithm 1
    at a single process.  Promises are drained when broadcast so each promise
    is, in the common case, sent only once (footnote 2 of the paper); the
    full set is retained for re-broadcast on demand (e.g. after suspected
    message loss).  Detached promises are stored as integer ranges (see the
    module docstring); ``Promise`` objects only exist on the wire.

    The attached ledger holds the commands in flight, not the history:
    :meth:`fold` turns the attached promises of a command known to be
    committed at every peer into detached ones, which coalesce with the
    clock-jump ranges around them (``docs/memory.md``).
    """

    def __init__(self, process: int) -> None:
        self.process = process
        self._detached = _IntRanges()
        self._pending_detached = _IntRanges()
        self._attached: Dict[Dot, Set[int]] = {}
        self._pending_attached: Dict[Dot, Set[int]] = {}
        #: Dots :meth:`fold` was asked for before their promise first went out.
        self._fold_when_sent: Set[Dot] = set()

    # -- recording ------------------------------------------------------------

    def add_detached_range(self, lo: int, hi: int) -> None:
        """Record detached promises for every timestamp in ``[lo, hi]``."""
        if hi < lo:
            return
        if lo < 1:
            raise ValueError("promise timestamps start at 1")
        for new_lo, new_hi in self._detached.add_range(lo, hi):
            self._pending_detached.add_range(new_lo, new_hi)

    def add_detached(self, timestamps: Iterable[int]) -> None:
        """Record detached promises for the given timestamps.

        Consecutive runs in the input are coalesced into range insertions;
        already-recorded timestamps are not re-queued for broadcast.
        """
        run_lo = run_hi = None
        for timestamp in timestamps:
            if run_lo is None:
                run_lo = run_hi = timestamp
            elif timestamp == run_hi + 1:
                run_hi = timestamp
            else:
                self.add_detached_range(run_lo, run_hi)
                run_lo = run_hi = timestamp
        if run_lo is not None:
            self.add_detached_range(run_lo, run_hi)

    def add_attached(self, dot: Dot, timestamp: int) -> None:
        """Record the attached promise for a proposal on command ``dot``."""
        if timestamp < 1:
            raise ValueError("promise timestamps start at 1")
        self._attached.setdefault(dot, set()).add(timestamp)
        self._pending_attached.setdefault(dot, set()).add(timestamp)

    def fold(self, dot: Dot) -> None:
        """Re-file the promises attached to ``dot`` as detached ones.

        Only for a ``dot`` committed at every peer: there an attached
        promise counts exactly as a detached one does.  Nothing is queued
        for broadcast (the promises went out attached), so a promise still
        waiting for its first broadcast stays attached until the draining
        :meth:`snapshot_ranges` has handed it out.
        """
        if dot in self._pending_attached:
            self._fold_when_sent.add(dot)
            return
        add_range = self._detached.add_range
        for timestamp in self._attached.pop(dot, ()):
            add_range(timestamp, timestamp)

    def ledger_size(self) -> int:
        """Attached entries plus detached ranges held for re-broadcast."""
        return len(self._attached) + len(self._detached)

    # -- inspection -----------------------------------------------------------

    def detached(self) -> FrozenSet[Promise]:
        return _materialise(self.process, self._detached.ranges())

    def detached_ranges(self) -> List[Tuple[int, int]]:
        """Detached promises as sorted disjoint inclusive ranges."""
        return self._detached.ranges()

    def attached(self) -> Dict[Dot, FrozenSet[Promise]]:
        process = self.process
        return {
            dot: frozenset(Promise(process, ts) for ts in timestamps)
            for dot, timestamps in self._attached.items()
        }

    def attached_for(self, dot: Dot) -> FrozenSet[Promise]:
        process = self.process
        return frozenset(
            Promise(process, ts) for ts in self._attached.get(dot, ())
        )

    def all_issued(self) -> FrozenSet[Promise]:
        """All promises (attached or detached) issued so far."""
        process = self.process
        issued = set(self.detached())
        for timestamps in self._attached.values():
            issued.update(Promise(process, ts) for ts in timestamps)
        return frozenset(issued)

    # -- broadcasting ---------------------------------------------------------

    def snapshot(
        self, drain: bool = True
    ) -> Tuple[FrozenSet[Promise], Dict[Dot, FrozenSet[Promise]]]:
        """Return promises to broadcast in the next ``MPromises`` message.

        With ``drain=True`` (the default, matching the paper's
        send-each-promise-once optimisation) the returned promises are
        removed from the pending set; with ``drain=False`` the full issued
        set is returned.
        """
        detached_ranges, attached = self.snapshot_ranges(drain)
        return _materialise(self.process, detached_ranges), attached

    def snapshot_ranges(
        self, drain: bool = True
    ) -> Tuple[Tuple[Tuple[int, int], ...], Dict[Dot, FrozenSet[Promise]]]:
        """Range-encoded variant of :meth:`snapshot`.

        Returns the detached promises as sorted disjoint inclusive
        ``(lo, hi)`` ranges (all of this tracker's own process), without
        materialising a ``Promise`` object per timestamp; the attached
        promises (one or two per command) stay materialised.
        """
        if drain:
            process = self.process
            detached_ranges = tuple(self._pending_detached.ranges())
            attached = {
                dot: frozenset(Promise(process, ts) for ts in timestamps)
                for dot, timestamps in self._pending_attached.items()
            }
            self._pending_detached = _IntRanges()
            self._pending_attached = {}
            if self._fold_when_sent:
                for dot in self._fold_when_sent:
                    self.fold(dot)
                self._fold_when_sent.clear()
            return detached_ranges, attached
        return tuple(self._detached.ranges()), self.attached()

    def has_pending(self) -> bool:
        """Whether there is anything new to broadcast."""
        return bool(self._pending_detached or self._pending_attached)


class PromiseSet:
    """The ``Promises`` variable: promises *known* at a process.

    Supports the ``highest_contiguous_promise`` query of Algorithm 2 in
    amortised O(1) per insertion by keeping, per process, the current
    contiguous frontier plus a set of out-of-order timestamps.  Contiguous
    blocks (e.g. from an ``MPromises`` broadcast covering a clock jump) are
    absorbed in O(1) via :meth:`add_range` when they extend the frontier,
    and :meth:`stable_timestamp` caches its sorted-frontier answer until a
    frontier moves.
    """

    __slots__ = ("_frontier", "_pending", "_size", "_stable_cache")

    def __init__(self) -> None:
        self._frontier: Dict[int, int] = {}
        self._pending: Dict[int, Set[int]] = {}
        self._size = 0
        self._stable_cache: Dict[Tuple[int, ...], int] = {}

    def add(self, promise: Promise) -> None:
        """Insert a single promise."""
        self.add_timestamp(promise.process, promise.timestamp)

    def add_timestamp(self, process: int, timestamp: int) -> None:
        """Insert the promise ``<process, timestamp>`` without materialising
        a :class:`Promise` object."""
        frontier = self._frontier.get(process, 0)
        if timestamp <= frontier:
            return
        if timestamp == frontier + 1:
            frontier = timestamp
            self._size += 1
            pending = self._pending.get(process)
            if pending:
                while frontier + 1 in pending:
                    frontier += 1
                    pending.remove(frontier)
            self._frontier[process] = frontier
            if self._stable_cache:
                self._stable_cache.clear()
            return
        pending = self._pending.get(process)
        if pending is None:
            self._pending[process] = pending = set()
        elif timestamp in pending:
            return
        pending.add(timestamp)
        self._size += 1

    def add_range(self, process: int, lo: int, hi: int) -> None:
        """Insert every promise ``<process, lo..hi>`` (bulk API).

        O(1) when the range extends the contiguous frontier and no
        out-of-order timestamps overlap it — the common case for the
        detached promises of a clock jump.
        """
        if hi < lo:
            return
        frontier = self._frontier.get(process, 0)
        if hi <= frontier:
            return
        if lo <= frontier:
            lo = frontier + 1
        pending = self._pending.get(process)
        if lo == frontier + 1:
            if pending:
                added = hi - lo + 1
                for timestamp in range(lo, hi + 1):
                    if timestamp in pending:
                        pending.remove(timestamp)
                        added -= 1
                self._size += added
                frontier = hi
                while frontier + 1 in pending:
                    frontier += 1
                    pending.remove(frontier)
            else:
                self._size += hi - lo + 1
                frontier = hi
            self._frontier[process] = frontier
            if self._stable_cache:
                self._stable_cache.clear()
            return
        if pending is None:
            pending = self._pending.setdefault(process, set())
        for timestamp in range(lo, hi + 1):
            if timestamp not in pending:
                pending.add(timestamp)
                self._size += 1

    def add_all(self, promises: Iterable[Promise]) -> None:
        add_timestamp = self.add_timestamp
        for promise in promises:
            add_timestamp(promise.process, promise.timestamp)

    def absorb_ranges(
        self, wire: PromiseRangeWire, only: Optional[FrozenSet[int]] = None
    ) -> None:
        """Bulk-ingest a wire-encoded range map (see ``PromiseRangeWire``).

        Cost is proportional to the number of *ranges*, not promises: each
        range goes through :meth:`add_range`, which is O(1) when it extends
        the process's contiguous frontier (the clock-jump common case).
        ``only`` restricts absorption to the given processes (the receivers
        of commit piggybacks only care about their own partition's peers).
        """
        add_range = self.add_range
        for process, spans in wire.items():
            if only is not None and process not in only:
                continue
            for lo, hi in spans:
                add_range(process, lo, hi)

    def __contains__(self, promise: Promise) -> bool:
        frontier = self._frontier.get(promise.process, 0)
        if promise.timestamp <= frontier:
            return True
        return promise.timestamp in self._pending.get(promise.process, set())

    def __len__(self) -> int:
        return self._size

    def highest_contiguous_promise(self, process: int) -> int:
        """Largest ``c`` such that all promises ``<process, 1..c>`` are known."""
        return self._frontier.get(process, 0)

    def frontier(self, processes: Iterable[int]) -> List[int]:
        """Highest contiguous promise for each of ``processes``."""
        frontiers = self._frontier
        return [frontiers.get(process, 0) for process in processes]

    def stable_timestamp(self, processes: Iterable[int]) -> int:
        """Highest stable timestamp per Theorem 1.

        A timestamp ``s`` is stable once all promises up to ``s`` from a
        strict majority (``floor(r/2) + 1``) of the ``r`` processes are
        known.  Sorting the per-process contiguous frontiers ascending, the
        highest such ``s`` is the ``floor(r/2) + 1``-th largest frontier,
        i.e. index ``ceil(r/2) - 1 == (r - 1) // 2``.  (For odd ``r`` this
        coincides with the median index ``r // 2``; for even ``r`` the two
        differ — ``r // 2`` would only be backed by ``r/2`` processes, one
        short of a majority.)

        The result is cached per ``processes`` tuple and invalidated when a
        frontier advances, so repeated stability checks between promise
        arrivals cost one dictionary lookup.
        """
        key = tuple(processes)
        cached = self._stable_cache.get(key)
        if cached is not None:
            return cached
        frontier_map = self._frontier
        frontiers = [frontier_map.get(process, 0) for process in key]
        if not frontiers:
            value = 0
        else:
            frontiers.sort()
            value = frontiers[(len(frontiers) - 1) // 2]
        self._stable_cache[key] = value
        return value
