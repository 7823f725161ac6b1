"""Figure 7 — throughput and latency as load and contention increase.

Paper setup: 5 sites (cluster testbed), clients per site growing from 32 to
20 480, 4 KB payloads, conflict rates 2 % (top) and 10 % (bottom), plus a
hardware-utilization heatmap at 2 %.  Headline numbers: FPaxos saturates at
53K/45K ops/s (f=1/2), Atlas at 129K/127K (2 %) dropping to 83K/67K (10 %),
Caesar* at 104K/32K, and Tempo reaches 230K ops/s regardless of the conflict
rate or ``f`` (1.8-3.4x Atlas, 4.3-5.1x FPaxos).

Reproduction: the saturation ceilings come from the calibrated resource
model (:mod:`repro.experiments.throughput_model`); the latency-vs-throughput
curves combine those ceilings with the analytic wide-area latency model and
closed-loop queueing (:mod:`repro.experiments.latency_model`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.config import ProtocolConfig
from repro.experiments.latency_model import average_latency, load_curve, per_site_latency
from repro.experiments.throughput_model import max_throughput, utilization_heatmap

#: Client counts per site swept in Figure 7.
FIGURE7_CLIENT_SWEEP: Tuple[int, ...] = (
    32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 20480,
)

#: Protocol/fault combinations of Figure 7.
FIGURE7_PROTOCOLS: Tuple[Tuple[str, int], ...] = (
    ("tempo", 1),
    ("tempo", 2),
    ("atlas", 1),
    ("atlas", 2),
    ("fpaxos", 1),
    ("fpaxos", 2),
    ("caesar", 2),
)

#: Conflict rates of the top (2 %) and bottom (10 %) plots; the curves and
#: the heatmap are drawn at the first.
FIGURE7_CONFLICT_RATES: Tuple[float, ...] = (0.02, 0.10)
NUM_SITES = 5
PAYLOAD = 4096.0


def _ceiling(protocol: str, faults: int, conflict_rate: float) -> Dict[str, float]:
    config = ProtocolConfig(num_processes=NUM_SITES, faults=faults)
    return max_throughput(
        protocol, config=config, payload=PAYLOAD, conflict_rate=conflict_rate
    )


def saturation_table() -> List[Dict[str, object]]:
    """Maximum throughput per protocol and conflict rate (the curve knees)."""
    rows: List[Dict[str, object]] = []
    for conflict_rate in FIGURE7_CONFLICT_RATES:
        for protocol, faults in FIGURE7_PROTOCOLS:
            result = _ceiling(protocol, faults, conflict_rate)
            rows.append(
                {
                    "protocol": f"{protocol} f={faults}",
                    "conflict_rate": conflict_rate,
                    "max_kops": round(result["max_ops_per_second"] / 1000.0, 1),
                    "bottleneck": result["bottleneck"],
                }
            )
    return rows


def latency_throughput_curves() -> List[Dict[str, object]]:
    """The latency-vs-throughput points of Figure 7 (top, 2 % conflicts)."""
    conflict_rate = FIGURE7_CONFLICT_RATES[0]
    rows: List[Dict[str, object]] = []
    for protocol, faults in FIGURE7_PROTOCOLS:
        ceiling = _ceiling(protocol, faults, conflict_rate)["max_ops_per_second"]
        base_latency = average_latency(per_site_latency(protocol, NUM_SITES, faults))
        for point in load_curve(
            list(FIGURE7_CLIENT_SWEEP), NUM_SITES, base_latency, ceiling
        ):
            rows.append(
                {
                    "protocol": f"{protocol} f={faults}",
                    "conflict_rate": conflict_rate,
                    "clients_per_site": int(point["clients_per_site"]),
                    "throughput_kops": round(point["throughput_ops"] / 1000.0, 1),
                    "latency_ms": round(point["latency_ms"], 1),
                }
            )
    return rows


def heatmap() -> List[Dict[str, object]]:
    """Hardware utilization at saturation for the 2 % conflict scenario
    (bottom heatmap of Figure 7)."""
    return utilization_heatmap(
        ["tempo", "atlas", "fpaxos", "caesar"],
        config=ProtocolConfig(num_processes=NUM_SITES, faults=1),
        payload=PAYLOAD,
        conflict_rate=FIGURE7_CONFLICT_RATES[0],
    )


def speedups(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """Tempo's speedup over each other protocol at the same conflict rate."""
    result: Dict[str, float] = {}
    by_rate: Dict[float, Dict[str, float]] = {}
    for row in rows:
        by_rate.setdefault(float(row["conflict_rate"]), {})[str(row["protocol"])] = float(
            row["max_kops"]
        )
    for rate, per_protocol in by_rate.items():
        tempo = max(
            value for name, value in per_protocol.items() if name.startswith("tempo")
        )
        for name, value in per_protocol.items():
            if name.startswith("tempo") or value == 0:
                continue
            result[f"tempo/{name}@{rate}"] = tempo / value
    return result
