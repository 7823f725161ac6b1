"""The retransmit buffer: critical outbound messages until acknowledged.

A :class:`RetransmitBuffer` tracks the small set of *critical* messages a
process sends — the ones whose loss strands work forever rather than just
delaying it (commit broadcasts, cross-partition stability notifications) —
keyed by ``(destination, wire kind, dot)``, the kind byte read off the
message's class (``WIRE_KIND``, its ``@wire_schema`` declaration).  The
receiver acknowledges each tracked message with an ``MDeliveryAck`` naming
the same byte and carrying its recovery epoch; until
that ack arrives the buffer re-offers the message on recovery-timeout ticks
with exponential backoff, up to a bounded number of attempts, so a lossy
window is healed by a handful of re-sends instead of a storm.

Design constraints (see ``docs/reliable_delivery.md``):

* **Healthy runs pay nothing.**  The buffer only exists when the cluster
  runner installs it for a fault plan that can lose messages; processes
  gate every hook on a single ``self.reliability is None`` check.
* **Bounded.**  Re-sends back off exponentially (``backoff_base_ms`` ·
  2^attempt) and stop after ``max_attempts``; an entry that exhausts its
  budget is dropped and counted in :attr:`RetransmitBuffer.expired` —
  Tempo's repair pass (:mod:`repro.core.repair`), where the blocked side
  asks again, remains the last-resort safety net.
* **Epoch-stamped.**  Acks carry the acker's recovery epoch; acks from a
  previous epoch of a since-restarted peer are ignored (the restarted
  peer re-acks from its durable state), mirroring how ``GcTracker``
  treats stale frontiers.
* **Deterministic.**  Due entries drain in (due time, track order); no
  set iteration, no randomness.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Sequence, Tuple

#: First re-send one recovery timeout after the original send — the same
#: window that paces Tempo's repair pass, so a lost message is retried
#: exactly when the protocol starts suspecting loss.
DEFAULT_BACKOFF_BASE_MS = 500.0

#: Re-send budget per tracked (destination, kind, dot) entry.  With the
#: default backoff base the attempts land ~0.5 s, 1 s, 2 s, 4 s and 8 s
#: after the original send; anything still unacknowledged after that is
#: a crashed (or partitioned-forever) peer, which the repair pass and the
#: failure detector own.
DEFAULT_MAX_ATTEMPTS = 5


class _Entry:
    __slots__ = ("message", "attempts", "next_due")

    def __init__(self, message: object, next_due: float) -> None:
        self.message = message
        self.attempts = 0
        self.next_due = next_due


class RetransmitBuffer:
    """Per-process tracking of unacknowledged critical messages."""

    __slots__ = (
        "process_id",
        "backoff_base_ms",
        "max_attempts",
        "_entries",
        "_heap",
        "_seq",
        "_peer_epoch",
        "tracked",
        "acked",
        "resends",
        "expired",
        "stale_acks",
    )

    def __init__(
        self,
        process_id: int,
        backoff_base_ms: float = DEFAULT_BACKOFF_BASE_MS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if backoff_base_ms <= 0:
            raise ValueError("backoff_base_ms must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.process_id = process_id
        self.backoff_base_ms = backoff_base_ms
        self.max_attempts = max_attempts
        #: (destination, kind id, dot) -> live entry.
        self._entries: Dict[Tuple[int, int, object], _Entry] = {}
        #: Lazy schedule: (next_due, insertion seq, key).  Entries whose
        #: recorded due time no longer matches are stale and skipped.
        self._heap: List[Tuple[float, int, Tuple[int, int, object]]] = []
        self._seq = 0
        #: Highest recovery epoch seen per acking peer; acks stamped with
        #: an older epoch are ignored (the peer restarted since).
        self._peer_epoch: Dict[int, int] = {}
        self.tracked = 0
        self.acked = 0
        self.resends = 0
        self.expired = 0
        self.stale_acks = 0

    # -- producers ------------------------------------------------------------

    def track(
        self, destinations: Sequence[int], message: object, now: float
    ) -> int:
        """Start tracking ``message`` toward each (non-self) destination.

        Returns the number of destinations newly tracked.  A destination
        already tracking this exact (kind, dot) keeps its schedule — a
        re-broadcast of the same message is not a fresh budget.
        """
        kind_id = getattr(type(message), "WIRE_KIND", None)
        if kind_id is None:
            raise ValueError(
                f"{type(message).__name__} declares no wire kind: the "
                "receiver's ack could not name it"
            )
        dot = message.dot
        added = 0
        next_due = now + self.backoff_base_ms
        for destination in destinations:
            if destination == self.process_id:
                continue
            key = (destination, kind_id, dot)
            if key in self._entries:
                continue
            self._entries[key] = _Entry(message, next_due)
            self._seq += 1
            heapq.heappush(self._heap, (next_due, self._seq, key))
            added += 1
        self.tracked += added
        return added

    def record_ack(
        self, destination: int, kind_id: int, dot: object, epoch: int
    ) -> bool:
        """Absorb one delivery ack; returns whether it retired an entry.

        Acks stamped with an epoch older than the highest seen from this
        peer are stale (sent before the peer's last restart) and ignored.
        """
        known = self._peer_epoch.get(destination, 0)
        if epoch < known:
            self.stale_acks += 1
            return False
        if epoch > known:
            self._peer_epoch[destination] = epoch
        entry = self._entries.pop((destination, kind_id, dot), None)
        if entry is None:
            return False
        self.acked += 1
        return True

    # -- consumer -------------------------------------------------------------

    def due(self, now: float) -> List[Tuple[int, object]]:
        """Drain every entry due at ``now``; returns (destination, message)
        pairs to re-send and reschedules each with doubled backoff.

        O(1) when nothing is due (one heap peek), which is the hot case:
        the owning process calls this every tick.
        """
        heap = self._heap
        if not heap or heap[0][0] > now:
            return []
        out: List[Tuple[int, object]] = []
        entries = self._entries
        while heap and heap[0][0] <= now:
            due_at, _, key = heapq.heappop(heap)
            entry = entries.get(key)
            if entry is None or entry.next_due != due_at:
                continue  # acked, expired, or superseded by a later push
            if entry.attempts >= self.max_attempts:
                del entries[key]
                self.expired += 1
                continue
            entry.attempts += 1
            entry.next_due = now + self.backoff_base_ms * (2 ** entry.attempts)
            self._seq += 1
            heapq.heappush(heap, (entry.next_due, self._seq, key))
            self.resends += 1
            out.append((key[0], entry.message))
        return out

    # -- introspection --------------------------------------------------------

    def pending(self) -> int:
        """Number of tracked-but-unacknowledged entries."""
        return len(self._entries)

    def pending_keys(self) -> Iterable[Tuple[int, int, object]]:
        """The live (destination, kind id, dot) keys, in track order."""
        return list(self._entries)

    def stats(self) -> Dict[str, int]:
        return {
            "tracked": self.tracked,
            "acked": self.acked,
            "resends": self.resends,
            "expired": self.expired,
            "stale_acks": self.stale_acks,
            "pending": len(self._entries),
        }
