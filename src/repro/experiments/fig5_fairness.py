"""Figure 5 — per-site latency (fairness) under low conflicts.

Paper setup: 5 EC2 sites, 512 closed-loop clients per site, 2 % conflict
rate; protocols Tempo (f=1,2), Atlas (f=1,2), FPaxos (f=1,2) and Caesar
(f=2 by construction).  The headline results: FPaxos is up to 3.3x slower at
non-leader sites than at the leader site, while the leaderless protocols
serve all sites roughly uniformly.

This reproduction runs the same deployment on the discrete-event simulator.
Client counts are scaled down (default 16/site) because the simulator is
pure Python; closed-loop latency is load-insensitive until saturation, so
the per-site means are representative (``results/fig5_fairness.txt``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment

#: Protocol/fault combinations shown in Figure 5.
FIGURE5_PROTOCOLS: Tuple[Tuple[str, int], ...] = (
    ("tempo", 1),
    ("tempo", 2),
    ("atlas", 1),
    ("atlas", 2),
    ("fpaxos", 1),
    ("fpaxos", 2),
    ("caesar", 2),
)


@dataclass
class Figure5Options:
    """Knobs for the Figure 5 reproduction."""

    clients_per_site: int = 16
    conflict_rate: float = 0.02
    duration_ms: float = 3_000.0
    warmup_ms: float = 500.0
    num_sites: int = 5
    seed: int = 1
    protocols: Sequence[Tuple[str, int]] = field(default=FIGURE5_PROTOCOLS)


def run_one(protocol: str, faults: int, options: Figure5Options) -> Dict[str, object]:
    """Run one protocol/fault configuration and return its Figure 5 row."""
    config = ExperimentConfig(
        protocol=protocol,
        num_sites=options.num_sites,
        faults=faults,
        clients_per_site=options.clients_per_site,
        conflict_rate=options.conflict_rate,
        duration_ms=options.duration_ms,
        warmup_ms=options.warmup_ms,
        seed=options.seed,
    )
    result = run_experiment(config)
    site_means = result.site_mean_latency()
    row: Dict[str, object] = {
        "protocol": f"{protocol} f={faults}",
    }
    for site, mean in site_means.items():
        row[site] = round(mean, 1)
    row["average"] = round(result.mean_latency(), 1)
    row["completed"] = result.completed
    return row


def run(options: Figure5Options = Figure5Options()) -> List[Dict[str, object]]:
    """Regenerate Figure 5: one row per protocol, one column per site."""
    rows = []
    for protocol, faults in options.protocols:
        rows.append(run_one(protocol, faults, options))
    return rows


def fairness_ratio(row: Dict[str, object], sites: Sequence[str]) -> float:
    """Max/min per-site latency ratio — the paper's unfairness measure
    (FPaxos reaches up to 3.3x, leaderless protocols stay near 1x)."""
    values = [float(row[site]) for site in sites if site in row]
    if not values or min(values) == 0:
        return 0.0
    return max(values) / min(values)
