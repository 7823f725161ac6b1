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

One representation
------------------

A promise is a plain ``(process, timestamp)`` pair and a run of promises is
an inclusive ``(lo, hi)`` range — in the clock, the tracker, the messages
and the ``PromiseSet`` alike; nothing on a message path builds an object
per promise (``docs/promise_ranges.md``).  A *set* of timestamps is an
:class:`_IntRanges` of sorted disjoint runs wherever one is kept: the
detached promises a :class:`PromiseTracker` issued (clock jumps leave as
contiguous runs, so a jump of any size is O(1) to issue and to broadcast),
the ones a :class:`RangeCollector` gathers and, per process, the ones a
:class:`PromiseSet` knows, whose frontier is the run that starts at 1.  On
the fig6-shape Tempo cell (5 sites, 64 clients per site, conflict 0.05,
3 000 ms, seed 1) most promises arrive above a hole (7 136 of 7 919 range
absorptions, 58 572 of 155 970 single timestamps) and wait there as runs.
:meth:`PromiseSet.stable_timestamp` caches its sorted-frontier answer
until a frontier moves.  Timestamps are range-checked (``>= 1``) where they
enter the program: :meth:`PromiseTracker.add_attached`,
:meth:`PromiseTracker.add_detached_range` and the wire readers.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.core.identifiers import Dot

#: Wire encoding of detached promises: per process, the sorted disjoint
#: inclusive ``(lo, hi)`` timestamp ranges it promised (``MPromises``,
#: ``MProposeAck``, ``MCommit``; see ``docs/promise_ranges.md``).
PromiseRangeWire = Mapping[int, Tuple[Tuple[int, int], ...]]


class Promise(NamedTuple):
    """A promise ``<process, timestamp>``: a named ``(process, timestamp)``
    pair, interchangeable with the bare tuple."""

    process: int
    timestamp: int


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

    def ranges(self) -> List[Tuple[int, int]]:
        return [(lo, hi) for lo, hi in self._ranges]

    def above(self, frontier: int) -> Tuple[Tuple[int, int], ...]:
        """The covered ranges above ``frontier``, clipped to start past it."""
        ranges = self._ranges
        index = len(ranges)
        while index and ranges[index - 1][1] > frontier:
            index -= 1
        return tuple((max(lo, frontier + 1), hi) for lo, hi in ranges[index:])

    def prefix(self) -> int:
        """The end of the run covered from 1 (0 when 1 is not covered)."""
        ranges = self._ranges
        return ranges[0][1] if ranges and ranges[0][0] == 1 else 0

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


class RangeCollector:
    """Mutable per-process promise-range accumulator.

    The coordinator collects the detached promises piggybacked on
    ``MProposeAck`` messages into one of these and reads them back out as
    ranges when building the ``MCommit`` piggyback.
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


class PromiseTracker:
    """Per-process ledger of locally *issued* promises.

    Mirrors the ``Detached`` set and the ``Attached`` mapping of Algorithm 1
    at a single process.  Detached promises are stored as integer ranges and
    attached ones as one timestamp per command — the process is the
    tracker's own, so no pair is ever stored (see the module docstring),
    and a process attaches at most one promise to a command: in PROPOSE
    (Algorithm 1, line 12) or from PAYLOAD on ``MRec`` (Algorithm 4),
    never both.

    The clock only moves up and every promise is issued above it, so the
    ledger is in issue order and "not broadcast yet" is "issued above the
    clock at the last broadcast", the ``watermark``: :meth:`broadcast`
    hands each promise out once (footnote 2 of the paper) with the same
    :meth:`issued_above` read that refills a peer's hole.

    The attached ledger holds the commands in flight, not the history:
    :meth:`fold` turns the attached promises of a command known to be
    committed at every peer into detached ones, which coalesce with the
    clock-jump ranges around them (``docs/memory.md``).
    """

    def __init__(self, process: int) -> None:
        self.process = process
        self._detached = _IntRanges()
        #: ``dot -> timestamp`` in issue order, so timestamps increase.
        self._attached: Dict[Dot, int] = {}
        #: The clock at the last broadcast: every promise at or below it
        #: went out.
        self._watermark = 0
        #: Dots :meth:`fold` was asked for before their promise first went out.
        self._fold_when_sent: Set[Dot] = set()

    # -- recording ------------------------------------------------------------

    def add_detached_range(self, lo: int, hi: int) -> None:
        """Record detached promises for every timestamp in ``[lo, hi]``."""
        if hi < lo:
            return
        if lo < 1:
            raise ValueError("promise timestamps start at 1")
        self._detached.add_range(lo, hi)

    def add_attached(self, dot: Dot, timestamp: int) -> None:
        """Record the attached promise for a proposal on command ``dot``;
        ``ValueError`` if ``dot`` already holds a different one."""
        if timestamp < 1:
            raise ValueError("promise timestamps start at 1")
        held = self._attached.get(dot, timestamp)
        if held != timestamp:
            raise ValueError(
                f"command {dot} already holds the attached promise {held}, "
                f"not {timestamp}"
            )
        self._attached[dot] = timestamp

    def fold(self, dot: Dot) -> None:
        """Re-file the promises attached to ``dot`` as detached ones.

        Only for a ``dot`` committed at every peer: there an attached
        promise counts exactly as a detached one does.  A promise above the
        watermark has not gone out yet; it stays attached until
        :meth:`broadcast` has handed it out, so it goes out attached.
        """
        timestamp = self._attached.get(dot)
        if timestamp is None:
            return
        if timestamp > self._watermark:
            self._fold_when_sent.add(dot)
            return
        del self._attached[dot]
        self._detached.add_range(timestamp, timestamp)

    def ledger_size(self) -> int:
        """Attached entries plus detached ranges held for re-broadcast."""
        return len(self._attached) + len(self._detached)

    # -- broadcasting ---------------------------------------------------------

    def issued_above(
        self, frontier: int
    ) -> Tuple[Tuple[Tuple[int, int], ...], Dict[Dot, Tuple[int, ...]]]:
        """Every promise issued above ``frontier``: the detached ones as
        sorted disjoint inclusive ``(lo, hi)`` ranges, the attached ones as
        ``dot -> (timestamp,)``, the wire's tuple of the one promise.  Both
        ledgers are read from the top down to ``frontier``."""
        attached: List[Tuple[Dot, Tuple[int, ...]]] = []
        for dot, timestamp in reversed(self._attached.items()):
            if timestamp <= frontier:
                break
            attached.append((dot, (timestamp,)))
        attached.reverse()
        return self._detached.above(frontier), dict(attached)

    def broadcast(
        self, clock: int
    ) -> Tuple[Tuple[Tuple[int, int], ...], Dict[Dot, Tuple[int, ...]]]:
        """The promises issued since the last broadcast, as
        :meth:`issued_above` the watermark; the watermark then moves up to
        ``clock``, the highest timestamp issued, and the folds that waited
        for this broadcast happen."""
        if clock == self._watermark:
            return (), {}  # nothing issued since, so no fold is waiting
        batch = self.issued_above(self._watermark)
        self._watermark = clock
        if self._fold_when_sent:
            waiting, self._fold_when_sent = self._fold_when_sent, set()
            for dot in waiting:
                self.fold(dot)
        return batch


class PromiseSet:
    """The ``Promises`` variable: promises *known* at a process.

    Holds, per process, the known timestamps as one :class:`_IntRanges`
    (a process with none holds no entry, so equal promises leave equal
    state), and answers the ``highest_contiguous_promise`` query of
    Algorithm 2 as its :meth:`_IntRanges.prefix`, the end of the run from
    1.  Promises known already, and promises that grow the run from 1 or
    the last run, cost O(1); closing a hole merges the runs it meets.
    :meth:`stable_timestamp` caches its sorted-frontier answer until a
    frontier moves.
    """

    __slots__ = ("_known", "_stable_cache")
    _DIGEST_EXEMPT = frozenset({"_stable_cache"})  # cache of the frontiers

    def __init__(self) -> None:
        self._known: Dict[int, _IntRanges] = {}
        self._stable_cache: Dict[Tuple[int, ...], int] = {}

    def add_timestamp(self, process: int, timestamp: int) -> None:
        """Insert the promise ``<process, timestamp>``."""
        self._add(process, timestamp, timestamp)

    def add_range(self, process: int, lo: int, hi: int) -> None:
        """Insert every promise ``<process, lo..hi>``."""
        self._add(process, lo, hi)

    def _add(self, process: int, lo: int, hi: int) -> None:
        """Insert ``<process, lo..hi>``.  The O(1) cases are decided here on
        the runs, ``prefix()`` read inline: a call per promise costs more
        than the rest of the insertion (``docs/promise_ranges.md``).  A merge
        goes to :meth:`_IntRanges.add_range`."""
        known = self._known.get(process)
        if known is None:
            if hi < lo or hi < 1:
                return
            known = self._known[process] = _IntRanges()
            frontier = 0
        else:
            runs = known._ranges
            first, last = runs[0], runs[-1]
            frontier = first[1] if first[0] == 1 else 0
            if hi <= frontier or last[0] <= lo <= hi <= last[1] or hi < lo:
                return  # known already
            if lo > frontier + 1 and last[0] <= lo <= last[1] + 1:
                last[1] = hi  # the last run grows
                return
        if lo <= frontier + 1:
            if self._stable_cache:
                self._stable_cache.clear()
            if frontier and (first is last or hi + 1 < runs[1][0]):
                first[1] = hi  # the run from 1 grows under the hole, if any
                return
            lo = frontier + 1
        known.add_range(lo, hi)

    def add_all(self, promises: Iterable[Tuple[int, int]]) -> None:
        """Insert every ``(process, timestamp)`` pair of ``promises``."""
        add = self._add
        for process, timestamp in promises:
            add(process, timestamp, timestamp)

    def absorb_ranges(
        self, wire: PromiseRangeWire, only: Optional[FrozenSet[int]] = None
    ) -> None:
        """Bulk-ingest a wire-encoded range map (see ``PromiseRangeWire``).

        Cost is proportional to the number of *ranges*, not promises.
        ``only`` restricts absorption to the given processes (the receivers
        of commit piggybacks only care about their own partition's peers).
        """
        add = self._add
        for process, spans in wire.items():
            if only is not None and process not in only:
                continue
            for lo, hi in spans:
                add(process, lo, hi)

    def highest_contiguous_promise(self, process: int) -> int:
        """Largest ``c`` such that all promises ``<process, 1..c>`` are known."""
        known = self._known.get(process)
        return known.prefix() if known is not None else 0

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
        known = self._known
        frontiers = []
        for process in key:  # a loop: cheaper than a call per frontier
            first = known[process]._ranges[0] if process in known else (0, 0)
            frontiers.append(first[1] if first[0] == 1 else 0)
        if not frontiers:
            value = 0
        else:
            frontiers.sort()
            value = frontiers[(len(frontiers) - 1) // 2]
        self._stable_cache[key] = value
        return value
