"""The repair pass: the blocked side pulls what it is missing (§B).

A Tempo command executes once three ingredients are present: its commit, a
majority's promises up to its timestamp and — under partial replication —
an ``MStable`` from every accessed partition.  The happy path sends each of
them exactly once, so over fair-lossy links whatever is missing has to be
asked for again until it arrives.  This module is the only place that asks;
Atlas, EPaxos and Janus* pull their one ingredient, the commit, through
:class:`PullMixin` too (``repro.protocols.dependency``), and FPaxos pulls
its decided slots (``repro.protocols.fpaxos``).

One structure records what is missing: ``_blocked`` maps each
:class:`~repro.core.messages.Need` to the dots lacking that ingredient,
each with ``[since, asked]`` — when the dot started to wait and when a
round last asked for it.

* ``COMMIT`` — every dot this process knows and has not committed: seen
  with a payload, or known only through an attached promise.  Entered by
  the handlers that learn of the dot, dropped by ``_maybe_commit``.
  Overdue after one ``recovery_timeout`` window.
* ``PROMISES`` — the head of the commit heap while it is not stable.
* ``STABLE`` — the head of the stable heap while a remote partition's
  notification is missing.  Both heads are observed once per tick and are
  overdue after two windows (cross-site skew resolves well within one).
  An overdue ``STABLE`` head stands for the backlog queued behind it: the
  round asks for every entry of the stable heap still missing one.

:meth:`PullMixin.blocked_on` reads the structure and nothing else; a
healthy run reports ``[]`` on every tick.  Each overdue item is asked for
at most once per window with one message kind, ``MRepairRequest``, sent to
the peers that can hold the ingredient, and :meth:`_on_repair_request`
answers with the ordinary ``MPayload``/``MCommit``/``MStable``/``MPromises``
payloads.  A round covers every overdue item of the tick, so a backlog left
by an outage is pulled in one round rather than one dot per window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.identifiers import Dot
from repro.core.messages import MPayload, MPromises, MRepairRequest, MStable, Need
from repro.core.phases import Phase

#: ``asked`` of an item no round has asked for yet.
NEVER = float("-inf")


class PullMixin:
    """``_blocked`` and the once-per-window loop over it, shared by Tempo,
    the dependency protocols and FPaxos.  The host calls
    :meth:`_pull_overdue` from its ``tick`` and supplies
    ``_ask(need, dot, now)``: one round for one item."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._blocked: Dict[Need, Dict[Dot, List[float]]] = {n: {} for n in Need}

    def _await_commit(self, dot: Dot, now: float) -> None:
        """Start the clock on ``dot``'s commit (no-op if already running)."""
        awaiting = self._blocked[Need.COMMIT]
        if dot not in awaiting:
            awaiting[dot] = [now, NEVER]

    def blocked_on(self, now: float) -> List[Tuple[Need, Dot, float]]:
        """``(need, dot, since)`` for every item overdue at ``now``.

        Pure: repeated calls change nothing.  Each need's entries are in
        ``since`` order (time only moves forward), so the scan stops at the
        first one still within its patience — one probe per need when
        nothing is overdue.
        """
        window = self.config.recovery_timeout
        overdue: List[Tuple[Need, Dot, float]] = []
        for need, waiting in self._blocked.items():
            patience = window if need is Need.COMMIT else 2 * window
            for dot, (since, _) in waiting.items():
                if now - since < patience:
                    break
                overdue.append((need, dot, since))
        return overdue

    def _pull_overdue(self, now: float) -> None:
        """Ask once per window for every overdue item."""
        window = self.config.recovery_timeout
        for need, dot, _ in self.blocked_on(now):
            entry = self._blocked[need].get(dot)
            if entry is None or now - entry[1] < window:
                continue  # answered earlier in this round, or asked this window
            entry[1] = now
            self._ask(need, dot, now)


class RepairMixin(PullMixin):
    """The repair pass and its request handler, mixed into ``TempoProcess``."""

    def _repair_tick(self, now: float) -> None:
        """Observe the two heap heads, then ask once per window for every
        overdue item."""
        order = self.order
        self._watch_head(Need.PROMISES, order.unstable_head(), now)
        head = order.execution_head()
        waiting = head is not None and not self._info[head].has_all_stable()
        self._watch_head(Need.STABLE, head if waiting else None, now)
        self._pull_overdue(now)

    def _ask(self, need: Need, dot: Dot, now: float) -> None:
        if need is Need.COMMIT:
            self._ask_for_commit(dot, now)
        elif need is Need.PROMISES:
            self._ask_for_promises(dot, now)
        else:
            self._ask_for_stable(now)

    def _watch_head(self, need: Need, dot: Optional[Dot], now: float) -> None:
        """``dot`` (or ``None``) is the one item currently missing ``need``;
        its clock keeps running only while it stays that item."""
        watched = self._blocked[need]
        if dot not in watched:
            watched.clear()
            if dot is not None:
                watched[dot] = [now, NEVER]

    # -- asking ---------------------------------------------------------------

    def _ask_for_commit(self, dot: Dot, now: float) -> None:
        """One round for an uncommitted dot (Algorithm 6, lines 75 and 96).

        A holder of the payload re-broadcasts it so every correct process
        learns it, and the partition leader takes over as coordinator
        (Algorithm 4) — again on every round, since its own ``MRec`` may
        have been the lost message.  Peers that already committed ignore
        ``MRec`` (§B.1), so the outcome is also requested from them.
        """
        record = self._info.get(dot)
        if record is not None and record.is_pending:
            if record.command is not None and record.quorums:
                others = [
                    process
                    for process in self._targets_for(record.quorums)
                    if process != self.process_id
                ]
                if others:
                    payload = MPayload(dot, record.command, record.quorums)
                    self.send(others, payload, now)
            if self._should_attempt_recovery(dot):
                self.recover(dot, now)
        # From here on the pass owns this dot: no healthy-path request too.
        self._commit_requested.add(dot)
        self.send(self._other_peers, MRepairRequest(dot, Need.COMMIT), now)

    def _ask_for_promises(self, dot: Dot, now: float) -> None:
        """Promises are broadcast once (footnote 2): a lost ``MPromises``
        leaves a hole in this process's view of the sender that freezes its
        stable timestamp.  Tell each peer the frontier held for it."""
        for peer in self._other_peers:
            frontier = self.order.frontier(peer)
            self.send([peer], MRepairRequest(dot, Need.PROMISES, frontier), now)

    def _ask_for_stable(self, now: float) -> None:
        """Algorithm 6 blocks a multi-partition command until every accessed
        partition's ``MStable`` arrived, and it is sent once: ask the
        partitions still missing.  Whatever lost the head's notification
        usually lost its successors' too, and they only become the head —
        and overdue — one at a time, so the round covers the whole heap."""
        for dot in self.order.stable_backlog():
            record = self._info[dot]
            request = MRepairRequest(dot, Need.STABLE)
            for partition in sorted(set(record.quorums) - record.stable_from):
                self.send(
                    self.config.processes_of_partition(partition), request, now
                )

    # -- answering ------------------------------------------------------------

    def _on_repair_request(
        self, sender: int, message: MRepairRequest, now: float
    ) -> None:
        """Answer with what this process has of what ``sender`` is missing."""
        if message.need == Need.COMMIT:
            self._on_commit_request(sender, message, now)
        elif message.need == Need.PROMISES:
            self._resend_promises(sender, message.frontier, now)
        else:
            self._resend_stable(sender, message.dot, now)

    def _resend_stable(self, sender: int, dot: Dot, now: float) -> None:
        """Repeat this partition's ``MStable`` for ``dot`` if it is stable
        here: executed, or recorded stable by the local check."""
        record = self._info.get(dot)
        if record is not None:
            stable_here = (
                record.phase is Phase.EXECUTE or self.partition in record.stable_from
            )
        else:
            # A collected record executed everywhere, so it was stable here.
            stable_here = self.gc.collected(dot)
        if stable_here:
            reply = MStable(dot, partition=self.partition)
            self.send([sender], reply, now)
            if self.reliability is not None:
                self.reliability.track([sender], reply, now)

    def _resend_promises(self, sender: int, frontier: int, now: float) -> None:
        """Re-send everything issued above ``frontier`` in one ``MPromises``.

        An attached promise only counts at the requester once it has the
        command committed, so the payload and commit of every committed
        command attached above the frontier go first — one reply fills
        every hole instead of one commit round per hole.
        """
        detached, attached = self.order.issued_above(frontier)
        if not detached and not attached:
            return
        for dot in attached:
            record = self._info.get(dot)
            if record is not None and record.is_committed:
                self._send_commit_info(sender, dot, record, now)
        reply = MPromises(self._sentinel(), detached=detached, attached=attached)
        self.send([sender], reply, now)
