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
with the payload.  The frontier ``F`` for source ``s`` at replica ``j``
means: every dot of ``s``'s chain at ``j``'s partition with sequence
``<= F`` has executed at ``j``.  :meth:`GcTracker.record_executed` moves it
from a dot's predecessor to the dot, so it follows every source — a
cross-partition command minted at another shard included — and never
passes a dot of the chain that has not executed.  The tracker assumes two
things:

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

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.identifiers import Dot, intern_dot
from repro.core.messages import MExecutedClock


class GcTracker:
    """Per-process executed-frontier bookkeeping and watermark state."""

    __slots__ = (
        "process_id",
        "_frontier",
        "_pending",
        "_gaps",
        "_peer_clocks",
        "_watermark",
        "_stale",
        "_dirty",
        "collected_count",
    )

    def __init__(self, process_id: int, partition_members: Iterable[int]) -> None:
        members = tuple(sorted(partition_members))
        self.process_id = process_id
        #: Per-source executed frontier at *this* replica, along the chain.
        self._frontier: Dict[int, int] = {}
        #: Executions waiting above the frontier, per source, keyed by their
        #: chain predecessor: ``previous -> sequence``.
        self._pending: Dict[int, Dict[int, int]] = {}
        #: Per source, the chain links ``(previous, sequence)`` between the
        #: watermark and the frontier that skip sequences, in chain order:
        #: the skipped sequences are no dots of this chain, and
        #: :meth:`advance` leaves them out.
        self._gaps: Dict[int, List[Tuple[int, int]]] = {}
        #: Last announced clock per partition peer.  This process's entry
        #: aliases ``_frontier`` so the local view always participates in
        #: the minimum without a copy per execution.
        self._peer_clocks: Dict[int, Dict[int, int]] = {
            member: {} for member in members
        }
        self._peer_clocks[process_id] = self._frontier
        #: Per-source globally-executed watermark (monotone).
        self._watermark: Dict[int, int] = {}
        #: Sources whose minimum may have risen since the last ``advance``.
        #: The minimum over the peer clocks can only change when an entry
        #: sitting *at* the current minimum rises, so ``ingest`` and
        #: ``record_executed`` mark exactly those sources and ``advance``
        #: recomputes nothing else — the common no-news call is O(1).
        self._stale: Set[int] = set()
        #: Whether the local frontier advanced since the last announcement.
        self._dirty = False
        #: Dots executed here and then handed to the owner's ``_collect``
        #: (the memory-bound witnesses read this).
        self.collected_count = 0

    # -- local executions -----------------------------------------------------

    def record_executed(self, dot: Dot, previous: int) -> None:
        """Note that ``dot``, whose chain predecessor is ``previous``,
        executed locally; advances the local frontier once ``previous`` is
        at or below it."""
        source = dot.source
        frontier = self._frontier.get(source, 0)
        sequence = dot.sequence
        if sequence <= frontier:
            return
        if previous > frontier:
            self._pending.setdefault(source, {})[previous] = sequence
            return
        if frontier == self._watermark.get(source, 0):
            self._stale.add(source)
        pending = self._pending.get(source)
        while True:
            if sequence - frontier > 1:
                self._gaps.setdefault(source, []).append((frontier, sequence))
            frontier = sequence
            if not pending or frontier not in pending:
                break
            sequence = pending.pop(frontier)
        self._frontier[source] = frontier
        self._dirty = True

    # -- watermark exchange ---------------------------------------------------

    def announcement(self) -> Optional[Dict[int, int]]:
        """The clock to announce this tick, or ``None`` when nothing moved."""
        if not self._dirty:
            return None
        self._dirty = False
        return dict(self._frontier)

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
        clocks = self._peer_clocks.values()
        watermark = self._watermark
        newly: List[Tuple[int, int, int]] = []
        for source in stale:
            level = min(clock.get(source, 0) for clock in clocks)
            old = watermark.get(source, 0)
            if level <= old:
                continue
            watermark[source] = level
            lo = old + 1
            gaps = self._gaps.get(source)
            if gaps:
                crossed = 0
                for previous, sequence in gaps:
                    if sequence > level:
                        break
                    if lo <= previous:
                        newly.append((source, lo, previous))
                        self.collected_count += previous - lo + 1
                    lo = sequence
                    crossed += 1
                del gaps[:crossed]
            newly.append((source, lo, level))
            self.collected_count += level - lo + 1
        stale.clear()
        return newly

    # -- queries ---------------------------------------------------------------

    def collected(self, dot: Dot) -> bool:
        """O(1) suppression predicate: ``dot`` is globally executed and its
        bookkeeping has been (or may have been) dropped.  Meaningful for the
        dots of this partition's chains, the only ones its messages name."""
        return dot.sequence <= self._watermark.get(dot.source, 0)

    def watermark_of(self, source: int) -> int:
        return self._watermark.get(source, 0)

    def local_frontier(self, source: int) -> int:
        return self._frontier.get(source, 0)

    def footprint(self) -> Dict[str, int]:
        """Size accounting for the memory-bound witnesses."""
        return {
            "pending_out_of_order": sum(
                len(pending) for pending in self._pending.values()
            ),
            "collected": self.collected_count,
        }


class WatermarkGcMixin:
    """The watermark exchange: announce, ingest, sweep.

    Mixed in ahead of ``ProcessBase`` by every protocol that collects
    (FPaxos keeps no per-command records and does not).  The host calls
    :meth:`_gc_announce` from its ``tick``, routes ``MExecutedClock`` to
    :meth:`_on_executed_clock` and supplies :meth:`_collect`; the shell's
    execution seam (``ProcessBase._execute_command``) reports executions to
    ``self.gc.record_executed``.
    """

    _DIGEST_EXEMPT = frozenset({"_gc_peers"})  # constant wiring

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        members = self._gc_members()
        self.gc = GcTracker(self.process_id, members)
        #: The other members: where the executed clock is announced.
        self._gc_peers = [peer for peer in members if peer != self.process_id]
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
