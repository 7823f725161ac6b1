"""Core Tempo protocol: timestamping, stability detection, commit and recovery.

This package contains the paper's primary contribution — the Tempo
leaderless state-machine-replication protocol (EuroSys '21) — implemented as
message-driven state machines that can be executed by the discrete-event
simulator (:mod:`repro.simulator`), the asyncio runtime
(:mod:`repro.runtime`) or directly from tests.

The main entry point is :class:`repro.core.process.TempoProcess`.
"""

from repro.core.commands import Command
from repro.core.config import ProtocolConfig
from repro.core.identifiers import Dot
from repro.core.phases import Phase
from repro.core.process import TempoProcess
from repro.core.promises import Promise, PromiseSet
from repro.core.quorums import QuorumSystem
from repro.core.stability import TimestampOrder

__all__ = [
    "Command",
    "Dot",
    "Phase",
    "Promise",
    "PromiseSet",
    "ProtocolConfig",
    "QuorumSystem",
    "TempoProcess",
    "TimestampOrder",
]
