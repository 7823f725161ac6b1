"""Conflict-rate microbenchmark (§6.2, full-replication experiments).

Each command carries a key of 8 bytes and a payload of 100 bytes (4 KB in
the load experiments).  To generate a conflict rate ``rho``, a client picks
the shared key ``key-0`` with probability ``rho`` and a key private to the
client otherwise, so that two commands conflict exactly when both chose the
shared key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.simulator.rng import SeededRng

#: The one key every client shares: two commands conflict exactly when both
#: chose it.
SHARED_KEY = "key-0"


@dataclass
class MicroWorkload:
    """Per-client microbenchmark key generator.

    Attributes:
        client_id: identifier of the client this generator belongs to.
        conflict_rate: probability of choosing the shared (hot) key.
        payload_size: command payload size in bytes.
        keys_per_command: number of keys per command (1 in the paper's
            full-replication microbenchmark).
    """

    client_id: int
    conflict_rate: float = 0.02
    payload_size: int = 100
    keys_per_command: int = 1
    rng: Optional[SeededRng] = None
    _counter: int = field(default=0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.conflict_rate <= 1.0:
            raise ValueError("conflict_rate must be in [0, 1]")
        if self.keys_per_command < 1:
            raise ValueError("keys_per_command must be >= 1")
        if self.payload_size < 0:
            raise ValueError("payload_size must be non-negative")
        if self.rng is None:
            self.rng = SeededRng(seed=self.client_id + 1)

    def next_keys(self) -> List[str]:
        """Keys accessed by the next command."""
        keys: List[str] = []
        for _ in range(self.keys_per_command):
            if self.rng.uniform() < self.conflict_rate:
                keys.append(SHARED_KEY)
            else:
                self._counter += 1
                keys.append(f"key-c{self.client_id}-{self._counter}")
        # A command never lists the same key twice.
        return list(dict.fromkeys(keys))

    def next_is_read(self) -> bool:
        """Never: the microbenchmark issues writes only, and draws nothing
        for it (the read/write ablation builds its read-only commands
        directly)."""
        return False
