"""Tempo's timestamp order: clock, promises, stability and execution order.

A scalar clock issues promises (Algorithm 1, lines 34-43); a majority's
contiguous promises make a timestamp stable (Algorithm 2, Theorem 1); stable
commands execute in ``(timestamp, id)`` order (Algorithm 6).  One component
owns all of it: :class:`~repro.core.process.TempoProcess` holds one as
``order`` and calls only its operations, and no other module reaches its
private state (lint gate ``private-internals``; the operation-by-operation
table is in ``docs/promise_ranges.md``, "One owner").
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.identifiers import Dot
from repro.core.messages import MPromises
from repro.core.promises import PromiseRangeWire, PromiseSet, PromiseTracker

#: Promises in an outgoing batch: the detached ones as the issuer's
#: wire-encoded ranges, the attached ones as ``dot -> (timestamp,)``.
PromiseBatch = Tuple[PromiseRangeWire, Dict[Dot, Tuple[int, ...]]]


class TimestampOrder:
    """The clock, promises and execution order of one Tempo process.

    ``process`` is the owner's id and ``peers`` the processes replicating
    its partition (itself included): only their promises decide stability.
    """

    __slots__ = (
        "_process",
        "_peers",
        "_peer_set",
        "_clock",
        "_tracker",
        "_promises",
        "_buffered",
        "_commit_heap",
        "_stable_heap",
    )

    #: Constant wiring, and the heaps: derived from the owner's records
    #: (committed, not yet stable / executed), in insertion-history layout.
    _DIGEST_EXEMPT = frozenset(
        {"_process", "_peers", "_peer_set", "_commit_heap", "_stable_heap"}
    )

    def __init__(self, process: int, peers: Sequence[int]) -> None:
        self._process = process
        self._peers: Tuple[int, ...] = tuple(peers)
        self._peer_set = frozenset(self._peers)
        self._clock = 0  # ``Clock`` (Algorithm 1)
        self._tracker = PromiseTracker(process)  # issued here
        self._promises = PromiseSet()  # ``Promises``: known here
        #: Attached promises for identifiers not yet committed here, as
        #: ``(process, timestamp)`` pairs (Algorithm 2, line 47).
        self._buffered: Dict[Dot, List[Tuple[int, int]]] = {}
        #: Min-heap of ``(timestamp, dot)``: committed, not yet stable.
        self._commit_heap: List[Tuple[int, Dot]] = []
        #: Min-heap of ``(timestamp, dot)``: stable here, not yet executed.
        self._stable_heap: List[Tuple[int, Dot]] = []

    # -- the clock (Algorithm 1) ---------------------------------------------

    @property
    def clock(self) -> int:
        """The highest timestamp this process proposed or skipped."""
        return self._clock

    def propose(self, dot: Dot, minimum: int) -> Tuple[int, range]:
        """Propose ``t = max(minimum, Clock + 1)`` for ``dot`` (lines 34-39).

        Returns ``t`` and the run of timestamps the jump skipped.  Both are
        issued as promises: the skipped run detached and known here at once,
        ``t`` attached to ``dot`` and held back until ``dot`` commits here
        (line 47 applies to local promises too).
        """
        if minimum < 0:
            raise ValueError("proposal minimum must be non-negative")
        clock = self._clock
        timestamp = max(minimum, clock + 1)
        detached = range(clock + 1, timestamp)
        self._clock = timestamp
        if detached:
            self._detach(detached)
        self._tracker.add_attached(dot, timestamp)
        self._buffer(dot).append((self._process, timestamp))
        return timestamp, detached

    def bump(self, timestamp: int) -> None:
        """Advance the clock to at least ``timestamp`` (lines 40-43).

        Every timestamp skipped over, ``timestamp`` itself included when the
        clock moves, becomes a detached promise: this process will never
        propose it.
        """
        if timestamp < 0:
            raise ValueError("bump timestamp must be non-negative")
        detached = range(self._clock + 1, timestamp + 1)
        if detached:
            self._clock = timestamp
            self._detach(detached)

    def _detach(self, detached: range) -> None:
        lo, hi = detached.start, detached.stop - 1
        self._tracker.add_detached_range(lo, hi)
        self._promises.add_range(self._process, lo, hi)

    def _buffer(self, dot: Dot) -> List[Tuple[int, int]]:
        return self._buffered.setdefault(dot, [])

    # -- absorbing promises (Algorithm 2) ------------------------------------

    def absorb_promises(
        self, sender: int, message: MPromises, committed: Callable[[Dot], bool]
    ) -> List[Dot]:
        """Take in a peer's broadcast (line 46).

        Detached promises are known at once.  The ones attached to a
        ``committed`` dot count at once too; the others wait for the dot to
        commit here, and those dots are returned.
        """
        promises = self._promises
        if message.detached:
            promises.absorb_ranges(message.detached)
        waiting: List[Dot] = []
        for dot, timestamps in message.attached.items():
            # The issuer of a broadcast promise is the broadcast's sender.
            attached = [(sender, timestamp) for timestamp in timestamps]
            if committed(dot):
                promises.add_all(attached)
            else:
                self._buffer(dot).extend(attached)
                waiting.append(dot)
        return waiting

    def absorb_piggyback(
        self,
        dot: Dot,
        attached: Dict[int, int],
        detached: PromiseRangeWire,
        usable: bool = False,
    ) -> None:
        """Take in the promises one commit of ``dot`` carries — a received
        ``MCommit``'s, or the acks a fast-quorum member collected itself.

        Only promises of this partition's processes matter for stability.
        Detached ones are known at once; attached ones wait for ``dot`` to
        commit here (line 47) unless they are ``usable`` already (``dot``
        executed everywhere).
        """
        peers = self._peer_set
        if detached:
            self._promises.absorb_ranges(detached, only=peers)
        pairs = [pair for pair in attached.items() if pair[0] in peers]
        if usable:
            self._promises.add_all(pairs)
        elif pairs:
            self._buffer(dot).extend(pairs)

    def frontier(self, process: int) -> int:
        """Highest contiguous promise known from ``process``."""
        return self._promises.highest_contiguous_promise(process)

    # -- commit, stability and execution order (Algorithms 2 and 6) ----------

    def commit(self, dot: Dot, timestamp: int) -> None:
        """``dot`` committed here with final ``timestamp`` (Algorithm 3,
        line 56): it queues for stability, the clock is bumped past it and
        its attached promises become usable (line 47)."""
        heappush(self._commit_heap, (timestamp, dot))
        self.bump(timestamp)
        buffered = self._buffered.pop(dot, None)
        if buffered:
            self._promises.add_all(buffered)

    def stable_up_to(self) -> int:
        """The highest stable timestamp (Theorem 1)."""
        return self._promises.stable_timestamp(self._peers)

    def newly_stable(self) -> Iterator[Dot]:
        """Committed dots at or below :meth:`stable_up_to` in ``(timestamp,
        id)`` order (lines 49 and 97), each queued for execution as it is
        yielded; the heap makes a pass that finds none O(1)."""
        stable_up_to = self.stable_up_to()
        heap = self._commit_heap
        while heap and heap[0][0] <= stable_up_to:
            entry = heappop(heap)
            heappush(self._stable_heap, entry)
            yield entry[1]

    def executable(self, ready: Callable[[Dot], bool]) -> Iterator[Dot]:
        """Stable dots in ``(timestamp, id)`` order, each dequeued as it is
        yielded, up to the first one not ``ready`` — it blocks the ones
        after it, like the wait of Algorithm 6, line 102."""
        heap = self._stable_heap
        while heap:
            dot = heap[0][1]
            if not ready(dot):
                return
            heappop(heap)
            yield dot

    def unstable_head(self) -> Optional[Dot]:
        """The first committed dot while it waits for promises."""
        heap = self._commit_heap
        if heap and heap[0][0] > self.stable_up_to():
            return heap[0][1]
        return None

    def execution_head(self) -> Optional[Dot]:
        """The next dot to execute, if any is stable here."""
        heap = self._stable_heap
        return heap[0][1] if heap else None

    def stable_backlog(self) -> List[Dot]:
        """Every dot stable here and not yet executed, in execution order."""
        return [dot for _, dot in sorted(self._stable_heap)]

    # -- promise traffic -----------------------------------------------------

    def outgoing(self) -> PromiseBatch:
        """The promises issued since the last batch, each handed out once
        (line 44, footnote 2): :meth:`issued_above` the clock at the last
        batch; an empty batch when there are none."""
        detached, attached = self._tracker.broadcast(self._clock)
        return ({self._process: detached} if detached else {}), attached

    def issued_above(self, frontier: int) -> PromiseBatch:
        """Every issued promise above ``frontier``, for a repair reply: the
        tracker keeps collected history as one detached range and the
        commands in flight attached."""
        detached, attached = self._tracker.issued_above(frontier)
        return ({self._process: detached} if detached else {}), attached

    # -- garbage collection --------------------------------------------------

    def forget(self, dot: Dot) -> None:
        """``dot`` executed at every peer: nothing stays buffered for it, and
        the promise attached to it is re-filed as detached, which counts the
        same for a command committed everywhere (``docs/memory.md``)."""
        self._buffered.pop(dot, None)
        self._tracker.fold(dot)

    def ledger_size(self) -> int:
        """Issued promises held for re-broadcast (``memory_footprint``)."""
        return self._tracker.ledger_size()
