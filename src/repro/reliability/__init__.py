"""Reliable delivery by push: a per-destination retransmit buffer over
epoch-stamped delivery acks, hooked into :class:`repro.core.base.ProcessBase`.

The repair pass (:mod:`repro.core.repair`) pulls what loss strands for
Tempo, Atlas, EPaxos and Janus*.  Caesar tracks its commits here; Tempo's
lossy cells converge without the buffer, which stays for the benchmark that
pins it.  See ``docs/reliable_delivery.md``.
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
