"""Figure 8 — maximum throughput with batching disabled/enabled.

Paper setup: Tempo f=1 and FPaxos f=1, payloads of 256 B, 1 KB and 4 KB,
batches flushed after 5 ms or 105 commands.  Headline results: batching
boosts FPaxos by ~4x at 256 B (its leader thread is the bottleneck there)
and does not help at larger payloads (network-bound); Tempo sees only a
moderate gain (1.6x at 256 B, 1.3x at 1 KB, none at 4 KB) because its
per-command work cannot be amortised, yet leaderless Tempo still matches or
outperforms FPaxos.

Reproduction: the saturation model of
:mod:`repro.experiments.throughput_model` with ``batch = 105``, which
divides per-command message CPU and header bytes by the batch size while
payload bytes and per-command execution stay.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.config import ProtocolConfig
from repro.experiments.throughput_model import max_throughput

#: Payload sizes of Figure 8 (bytes).
FIGURE8_PAYLOADS: Tuple[int, ...] = (256, 1024, 4096)

#: Protocols of Figure 8.
FIGURE8_PROTOCOLS: Tuple[Tuple[str, int], ...] = (("tempo", 1), ("fpaxos", 1))

NUM_SITES = 5
CONFLICT_RATE = 0.02
#: Commands per batch (the paper flushes after 5 ms or 105 commands).
BATCH_SIZE = 105.0


def run() -> List[Dict[str, object]]:
    """Regenerate Figure 8: max throughput per payload, batching OFF/ON."""
    rows: List[Dict[str, object]] = []
    for payload in FIGURE8_PAYLOADS:
        for protocol, faults in FIGURE8_PROTOCOLS:
            config = ProtocolConfig(num_processes=NUM_SITES, faults=faults)
            off = max_throughput(protocol, config, float(payload), CONFLICT_RATE)[
                "max_ops_per_second"
            ]
            on = max_throughput(
                protocol, config, float(payload), CONFLICT_RATE, batch=BATCH_SIZE
            )["max_ops_per_second"]
            rows.append(
                {
                    "protocol": f"{protocol} f={faults}",
                    "payload_bytes": payload,
                    "batching_off_kops": round(off / 1000.0, 1),
                    "batching_on_kops": round(on / 1000.0, 1),
                    "gain": round(on / off, 2) if off else 0.0,
                }
            )
    return rows


def batching_gains(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """Batching gain per protocol/payload, for assertions and the report."""
    return {
        f"{row['protocol']}@{row['payload_bytes']}B": float(row["gain"]) for row in rows
    }
