"""Figure 5 — per-site latency (fairness) under low conflicts.

Paper setup: 5 EC2 sites, 512 closed-loop clients per site, 2 % conflict
rate; protocols Tempo (f=1,2), Atlas (f=1,2), FPaxos (f=1,2) and Caesar
(f=2 by construction).  The headline results: FPaxos is up to 3.3x slower at
non-leader sites than at the leader site, while the leaderless protocols
serve all sites roughly uniformly.

This reproduction runs the same deployment on the discrete-event simulator.
Client counts are scaled down (8/site) because the simulator is
pure Python; closed-loop latency is load-insensitive until saturation, so
the per-site means are representative (``results/fig5_fairness.txt``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.simulator.latency import EC2_REGIONS

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

#: The golden's deployment and workload.
NUM_SITES = 5
CLIENTS_PER_SITE = 8
CONFLICT_RATE = 0.02
DURATION_MS = 2_500.0

#: The golden's columns: one per site, between the protocol and its average.
COLUMNS: List[str] = ["protocol", *EC2_REGIONS[:NUM_SITES], "average", "completed"]


def run_one(protocol: str, faults: int) -> Dict[str, object]:
    """Run one protocol/fault configuration and return its Figure 5 row."""
    config = ExperimentConfig(
        protocol=protocol,
        num_sites=NUM_SITES,
        faults=faults,
        clients_per_site=CLIENTS_PER_SITE,
        conflict_rate=CONFLICT_RATE,
        duration_ms=DURATION_MS,
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


def run() -> List[Dict[str, object]]:
    """Regenerate Figure 5: one row per protocol, one column per site."""
    return [run_one(protocol, faults) for protocol, faults in FIGURE5_PROTOCOLS]


def fairness_ratio(row: Dict[str, object], sites: Sequence[str]) -> float:
    """Max/min per-site latency ratio — the paper's unfairness measure
    (FPaxos reaches up to 3.3x, leaderless protocols stay near 1x)."""
    values = [float(row[site]) for site in sites if site in row]
    if not values or min(values) == 0:
        return 0.0
    return max(values) / min(values)
