"""Globally-executed watermark tracking (epoch-2 protocol GC).

fantoch's ``GCTrack``: each process tracks, per *source* (the process that
minted a dot), an executed frontier, announces that clock to its partition
peers (:class:`repro.core.messages.MExecutedClock`, piggybacked on the
periodic tick traffic), and takes per source the **minimum** frontier
announced by all partition peers — itself included — as the
*globally-executed watermark*.  Everything at or below the watermark has
executed at every replica of the partition, so its protocol bookkeeping
(``CommandInfo`` records, per-key conflict archives, Caesar's committed-
timestamp archive) can be dropped: no correct protocol step ever needs it
again, and late duplicates referring to collected identifiers are
suppressed by the O(1) :meth:`GcTracker.collected` predicate.  Janus*
executes every command everywhere, so its peers are every process.

The chain invariant
-------------------

A source's dots that execute at a partition form one *chain*: the dots it
minted over that partition, in sequence order.  The minter knows each
dot's predecessor in the chain and ships it with the command where it is
not ``sequence - 1`` (:attr:`repro.core.commands.Command.links`, set by
:meth:`repro.core.base.ProcessBase.new_command`), so a replica learns it
with the payload.  In :class:`ExecutedChains`, a replica's one record of
what executed there, each execution covers ``[previous + 1, sequence]``:
a sequence covered twice is a command executing twice, and the run
``[1, F]`` is the *frontier* ``F``: every dot of the chain with sequence
``<= F`` has executed here.  It follows every source — a cross-partition
command minted at another shard included — and never passes a dot of the
chain that has not executed.  The tracker assumes two things:

* **Every dot of a chain is eventually executed at the chain's partition.**
  Execution is timestamp- (or dependency-) ordered, not per-source
  ordered, so out-of-order executions wait above the frontier until the
  gap closes.  A dot minted but never submitted (ROADMAP 2(a)) leaves a
  gap that never closes and stalls collection of that source at that
  partition for good.
* **A restarted process keeps its state** (the crash model of every fault
  plan and of the explorer: crash-stop, or restart with state).  The
  minter's chain tails are part of it: a minter that forgot them would
  link its next dots past commands still in flight.

Why crashed peers stay in the minimum: excluding a crashed peer would let
the survivors drop commit information that the peer — or a recovery acting
on its behalf after a restart — may still need, wedging it forever.  With
the peer in the minimum, GC merely *stalls* while it is down and resumes
once it catches up after a restart, which is safe under every schedule.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.identifiers import Dot, intern_dot
from repro.core.messages import MExecutedClock
from repro.core.promises import _IntRanges


class ExecutedChains:
    """Per source, the chain of its dots executed here: the execution
    seam's at-most-once check and the GC's local frontiers and gaps."""

    __slots__ = ("_ranges", "_links")

    def __init__(self) -> None:
        #: Per source, the sequences covered here.  An entry moves to the
        #: end when its frontier leaves 0, so :meth:`clock` lists the
        #: sources in the order their frontiers first moved.
        self._ranges: Dict[int, _IntRanges] = {}
        #: Per source, the executed links ``(previous, sequence)`` that skip
        #: sequences, in chain order, until :meth:`release` passes them.
        self._links: Dict[int, List[Tuple[int, int]]] = {}

    def add(self, dot: Dot, previous: int) -> Optional[int]:
        """Record that ``dot``, whose chain predecessor is ``previous``,
        executed here (``ValueError`` if it already had); return the
        source's frontier before if this moved it, else ``None``."""
        source, sequence = dot.source, dot.sequence
        ranges = self._ranges.get(source)
        if ranges is None:
            ranges = self._ranges[source] = _IntRanges()
        before = ranges.prefix()
        covered = ranges.add_range(previous + 1, sequence)
        if not covered or covered[-1][1] != sequence:
            raise ValueError(f"command {dot} executed twice")
        if sequence > previous + 1:
            insort(self._links.setdefault(source, []), (previous, sequence))
        if ranges.prefix() == before:
            return None
        if not before:
            self._ranges[source] = self._ranges.pop(source)
        return before

    def frontier(self, source: int) -> int:
        """The sequence up to which ``source``'s chain executed here."""
        ranges = self._ranges.get(source)
        return ranges.prefix() if ranges is not None else 0

    def clock(self) -> Dict[int, int]:
        """Every non-zero frontier, by source."""
        clock = {source: ranges.prefix() for source, ranges in self._ranges.items()}
        return {source: frontier for source, frontier in clock.items() if frontier}

    def release(self, source: int, lo: int, hi: int) -> List[Tuple[int, int]]:
        """The dots of ``source``'s chain in ``lo..hi`` (``hi`` at most the
        frontier), as ranges that leave out the sequences a link skips, and
        forget those links: the watermark passing them is the only caller."""
        spans: List[Tuple[int, int]] = []
        links = self._links.get(source)
        if links:
            crossed = 0
            for previous, sequence in links:
                if sequence > hi:
                    break
                if lo <= previous:
                    spans.append((lo, previous))
                lo = sequence
                crossed += 1
            del links[:crossed]
        spans.append((lo, hi))
        return spans

    def range_count(self) -> int:
        """The ranges held over all sources (about one per source)."""
        return sum(len(ranges) for ranges in self._ranges.values())


class GcTracker:
    """Per-process watermark state over the host's :class:`ExecutedChains`."""

    __slots__ = ("_chains", "_peer_clocks", "_watermark", "_stale", "_dirty", "collected_count")

    _DIGEST_EXEMPT = frozenset({"_chains"})  # the host's, derived from executed

    def __init__(self, chains: ExecutedChains, peers: Sequence[int]) -> None:
        #: The local frontiers: the host's record of what executed here.
        self._chains = chains
        #: Last announced clock per other partition member.
        self._peer_clocks: Dict[int, Dict[int, int]] = {peer: {} for peer in peers}
        #: Per-source globally-executed watermark (monotone).
        self._watermark: Dict[int, int] = {}
        #: Sources whose minimum may have risen since the last ``advance``.
        #: The minimum over the frontiers can only change when an entry
        #: sitting *at* the current minimum rises, so ``ingest`` and
        #: ``frontier_moved`` mark exactly those sources and ``advance``
        #: recomputes nothing else — the common no-news call is O(1).
        self._stale: Set[int] = set()
        #: Whether the local frontier advanced since the last announcement.
        self._dirty = False
        #: Dots executed here and then handed to the owner's ``_collect``
        #: (the memory-bound witnesses read this).
        self.collected_count = 0

    # -- local executions -----------------------------------------------------

    def frontier_moved(self, source: int, old: int) -> None:
        """Note that the local frontier of ``source`` rose from ``old``."""
        if old == self._watermark.get(source, 0):
            self._stale.add(source)
        self._dirty = True

    # -- watermark exchange ---------------------------------------------------

    def announcement(self) -> Optional[Dict[int, int]]:
        """The clock to announce this tick, or ``None`` when nothing moved."""
        if not self._dirty:
            return None
        self._dirty = False
        return self._chains.clock()

    def ingest(self, peer: int, clock: Mapping[int, int]) -> None:
        """Merge a peer's announced clock (entries are monotone)."""
        known = self._peer_clocks.get(peer)
        if known is None:
            return
        watermark = self._watermark
        for source, frontier in clock.items():
            old = known.get(source, 0)
            if frontier > old:
                if old == watermark.get(source, 0):
                    self._stale.add(source)
                known[source] = frontier

    def advance(self) -> List[Tuple[int, int, int]]:
        """Recompute the watermark; return newly collectable ranges.

        Each returned triple ``(source, lo, hi)`` covers the dots
        ``(source, lo..hi)`` of the chain that just became globally
        executed; the owner is expected to drop their bookkeeping.  A
        watermark move that crosses a link skipping sequences returns one
        range on each side of it.
        """
        stale = self._stale
        if not stale:
            return []
        chains = self._chains
        clocks = self._peer_clocks.values()
        watermark = self._watermark
        newly: List[Tuple[int, int, int]] = []
        for source in stale:
            level = min(
                [chains.frontier(source)] + [clock.get(source, 0) for clock in clocks]
            )
            old = watermark.get(source, 0)
            if level <= old:
                continue
            watermark[source] = level
            for lo, hi in chains.release(source, old + 1, level):
                newly.append((source, lo, hi))
                self.collected_count += hi - lo + 1
        stale.clear()
        return newly

    # -- queries ---------------------------------------------------------------

    def collected(self, dot: Dot) -> bool:
        """O(1) suppression predicate: ``dot`` is globally executed and its
        bookkeeping has been (or may have been) dropped.  Meaningful for the
        dots of this partition's chains, the only ones its messages name."""
        return dot.sequence <= self._watermark.get(dot.source, 0)


class WatermarkGcMixin:
    """The watermark exchange: announce, ingest, sweep.

    Mixed in ahead of ``ProcessBase`` by every protocol that collects
    (FPaxos keeps no per-command records and does not).  The host calls
    :meth:`_gc_announce` from its ``tick``, routes ``MExecutedClock`` to
    :meth:`_on_executed_clock` and supplies :meth:`_collect`; the shell's
    execution seam (``ProcessBase._execute_command``) records executions in
    ``self.chains``, which the tracker reads, and calls ``frontier_moved``.
    """

    _DIGEST_EXEMPT = frozenset({"_gc_peers"})  # constant wiring

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The other members: where the executed clock is announced.
        self._gc_peers = [peer for peer in self._gc_members() if peer != self.process_id]
        self.gc = GcTracker(self.chains, self._gc_peers)
        self._last_gc_announce = float("-inf")

    def _gc_members(self) -> Sequence[int]:
        """The processes that execute this one's dots, and so must all have
        executed a dot before it is collected: the partition's replicas."""
        return self.partition_peers()

    def _gc_announce(self, now: float) -> None:
        """Once per ``gc_interval``, announce the local executed clock to
        ``_gc_peers`` and sweep.

        The exchange has its own (slower) cadence — collection latency only
        bounds the live-record window, so there is no reason to pay a clock
        exchange per tick — and only sends when the frontier advanced since
        the last announcement (the tracker's dirty flag), so an idle
        partition exchanges nothing.
        """
        if now - self._last_gc_announce < self.config.gc_interval:
            return
        self._last_gc_announce = now
        clock = self.gc.announcement()
        if clock and self._gc_peers:
            self.send(
                self._gc_peers, MExecutedClock(self._sentinel(), clock=clock), now
            )
        self._gc_sweep()

    def _on_executed_clock(
        self, sender: int, message: MExecutedClock, now: float
    ) -> None:
        """Merge a peer's executed clock and collect below the new watermark."""
        self.gc.ingest(sender, message.clock)
        self._gc_sweep()

    def _gc_sweep(self) -> None:
        """Drop bookkeeping for every newly globally-executed identifier."""
        for source, lo, hi in self.gc.advance():
            for sequence in range(lo, hi + 1):
                self._collect(intern_dot(source, sequence))

    def _collect(self, dot: Dot) -> None:
        """Forget ``dot`` entirely: it executed at every partition peer."""
        raise NotImplementedError
