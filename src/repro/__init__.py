"""Tempo reproduction: efficient replication via timestamp stability.

Top-level convenience re-exports of the most commonly used pieces of the
library.
"""

from repro.core.commands import Command, Partitioner
from repro.core.config import ProtocolConfig
from repro.core.process import TempoProcess
from repro.kvstore.store import KeyValueStore

__version__ = "1.0.0"

__all__ = [
    "Command",
    "KeyValueStore",
    "Partitioner",
    "ProtocolConfig",
    "TempoProcess",
    "__version__",
]
