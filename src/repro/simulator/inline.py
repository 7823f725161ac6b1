"""Inline (zero-latency) runtime for driving protocol processes in tests.

The inline network delivers every queued message immediately, in FIFO order,
with no latency at all.  It is convenient for unit tests of protocol logic
where wall-clock behaviour does not matter, and for the pathological-scenario
experiments that only care about message *orderings*.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.base import Envelope, ProcessBase


class InlineNetwork:
    """Synchronous message pump over a set of processes.

    Messages to unknown destinations (e.g. clients, addressed with negative
    identifiers) are collected in :attr:`undeliverable` for inspection.
    """

    def __init__(self, processes: Iterable[ProcessBase]) -> None:
        self.processes: Dict[int, ProcessBase] = {
            process.process_id: process for process in processes
        }
        self.undeliverable: List[Envelope] = []
        self.delivered: int = 0
        self._reorder: Optional[Callable[[List[Envelope]], List[Envelope]]] = None

    def set_reorder(self, reorder: Callable[[List[Envelope]], List[Envelope]]) -> None:
        """Install a hook that may reorder each drained outbox batch (used by
        adversarial-schedule tests)."""
        self._reorder = reorder

    def collect(self) -> List[Envelope]:
        """Drain every process outbox once."""
        envelopes: List[Envelope] = []
        for process in self.processes.values():
            envelopes.extend(process.drain_outbox())
        if self._reorder is not None:
            envelopes = self._reorder(envelopes)
        return envelopes

    def step(self, now: float = 0.0) -> int:
        """Deliver one round of queued messages; return how many were sent."""
        envelopes = self.collect()
        for envelope in envelopes:
            target = self.processes.get(envelope.destination)
            if target is None:
                self.undeliverable.append(envelope)
                continue
            target.deliver(envelope.sender, envelope.message, now)
            self.delivered += 1
        return len(envelopes)

    def run(self, now: float = 0.0, max_rounds: int = 10_000) -> int:
        """Deliver messages until quiescence; return total rounds used."""
        rounds = 0
        while rounds < max_rounds:
            if self.step(now) == 0:
                return rounds
            rounds += 1
        raise RuntimeError("inline network did not quiesce")

    def tick_all(self, now: float) -> None:
        """Invoke ``tick`` on every process, then deliver until quiescent."""
        for process in self.processes.values():
            if process.alive:
                process.tick(now)
        self.run(now)

    def settle(self, now: float = 0.0, rounds: int = 10) -> None:
        """Alternate ticks and delivery a few times; useful after commits to
        let promise broadcast and stability detection run."""
        for index in range(rounds):
            self.tick_all(now + index * 1.0)


class RecordingNetwork(InlineNetwork):
    """Inline network that also records every envelope it drains, as
    ``(sender, destination, kind name)``."""

    def __init__(self, processes: Iterable[ProcessBase]) -> None:
        super().__init__(processes)
        self.log: List[Tuple[int, int, str]] = []

    def collect(self) -> List[Envelope]:
        envelopes = super().collect()
        self.log.extend(
            (envelope.sender, envelope.destination, type(envelope.message).__name__)
            for envelope in envelopes
        )
        return envelopes
