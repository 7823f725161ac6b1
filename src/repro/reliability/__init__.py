"""Protocol-generic reliable delivery (ack-driven bounded retransmission).

The paper's protocols assume fair-lossy links and rely on periodic
re-broadcast for liveness; the PR 8 fault campaign showed where that
assumption bites: send-once cross-shard ``MStable``, baseline commit
broadcasts under loss, and a promise GC that never learns what peers
absorbed.  This package closes those gaps with one mechanism — a
per-destination retransmit buffer over epoch-stamped delivery acks —
threaded through :class:`repro.core.base.ProcessBase` so every protocol
shares it.  See ``docs/reliable_delivery.md``.
"""

from repro.reliability.buffer import (
    DEFAULT_BACKOFF_BASE_MS,
    DEFAULT_MAX_ATTEMPTS,
    RetransmitBuffer,
)

__all__ = [
    "DEFAULT_BACKOFF_BASE_MS",
    "DEFAULT_MAX_ATTEMPTS",
    "RetransmitBuffer",
]
