"""Closed-loop clients (§6.2: "clients are closed-loop and always deployed
in separate machines located in the same regions as servers").

A closed-loop client submits one command, waits for its reply, records the
observed latency, and immediately submits the next command, until the
experiment duration elapses.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.commands import Command
from repro.core.identifiers import Dot
from repro.core.messages import ClientReply
from repro.metrics.histogram import LatencyHistogram


class ClosedLoopClient:
    """One closed-loop client attached to a site.

    Args:
        client_id: non-negative client identifier (its network endpoint is
            ``-(client_id + 1)``).
        site: name of the site the client lives at.
        site_rank: rank of the site among the deployment's sites (used to
            find the co-located replica of each shard).
        workload: object with ``next_keys()`` and ``next_is_read()``.
        submit: callback ``submit(client, keys, is_read, now)`` provided by
            the runner; it mints the command, registers it and schedules the
            submission, returning the command.
        stop_at: simulated time after which no new commands are submitted.
        warmup_ms: latency samples completed before this time are dropped.
    """

    def __init__(
        self,
        client_id: int,
        site: str,
        site_rank: int,
        workload,
        submit: Callable[["ClosedLoopClient", List[str], bool, float], Command],
        stop_at: float,
        warmup_ms: float = 0.0,
        payload_size: int = 100,
    ) -> None:
        self.client_id = client_id
        self.site = site
        self.site_rank = site_rank
        self.workload = workload
        self._submit = submit
        self.stop_at = stop_at
        self.warmup_ms = warmup_ms
        self.payload_size = payload_size
        self.endpoint = -(client_id + 1)
        self.latency = LatencyHistogram()
        self.pending: Dict[Dot, float] = {}
        self.completed = 0
        self.submitted = 0
        self.active = False

    # -- lifecycle --------------------------------------------------------------

    def start(self, now: float) -> None:
        """Submit the first command."""
        self.active = True
        self.submit_next(now)

    def submit_next(self, now: float) -> Optional[Command]:
        """Submit the next command unless the experiment window closed."""
        if now >= self.stop_at:
            self.active = False
            return None
        keys = self.workload.next_keys()
        is_read = self.workload.next_is_read()
        command = self._submit(self, keys, is_read, now)
        self.pending[command.dot] = now
        self.submitted += 1
        return command

    def on_reply(self, sender: int, message: object, now: float) -> None:
        """Handle the execution reply for an outstanding command."""
        if not isinstance(message, ClientReply):
            return
        sent_at = self.pending.pop(message.dot, None)
        if sent_at is None:
            return
        latency = now - sent_at
        if now >= self.warmup_ms:
            self.latency.record(latency)
        self.completed += 1
        self.submit_next(now)

    # -- introspection -------------------------------------------------------------

    def outstanding(self) -> int:
        """Commands submitted but not yet acknowledged."""
        return len(self.pending)

    def mean_latency(self) -> float:
        return self.latency.mean()
