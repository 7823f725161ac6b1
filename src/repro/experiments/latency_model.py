"""Analytic per-site latency model.

For the uncontended case, the client-observed latency of each protocol is
determined by wide-area round trips:

* **leaderless protocols** (Tempo, Atlas, EPaxos, Caesar, Janus*): the
  co-located coordinator reaches its fast quorum and back — one round trip
  to the farthest fast-quorum member;
* **FPaxos**: the command is forwarded to the leader, the leader reaches its
  phase-2 quorum (``f + 1``), and the decision travels back to the client's
  site.

Quorum sizes come from :func:`repro.experiments.throughput_model.quorum_size`,
the protocol-to-quorum map the saturation model charges messages by.

The model is used by the load/throughput experiment (Figure 7) to anchor the
latency axis and by tests as an independent cross-check of the simulator.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.config import ProtocolConfig
from repro.experiments.throughput_model import quorum_size
from repro.simulator.latency import EC2_REGIONS, ec2_latency_matrix


def per_site_latency(protocol: str, config: ProtocolConfig) -> Dict[str, float]:
    """Per-site uncontended latency of ``protocol`` deployed on the first
    ``r`` EC2 regions (Figure 5 skeleton); FPaxos leads from the first."""
    sites = list(EC2_REGIONS[: config.num_processes])
    matrix = ec2_latency_matrix(sites)
    quorum = quorum_size(protocol, config)
    if protocol != "fpaxos":
        return {site: matrix.quorum_latency(site, quorum) for site in sites}
    leader = sites[0]
    leader_quorum = matrix.quorum_latency(leader, quorum)
    return {
        site: matrix.latency(site, leader) + leader_quorum + matrix.latency(leader, site)
        for site in sites
    }


def average_latency(per_site: Dict[str, float]) -> float:
    """Average of the per-site latencies."""
    if not per_site:
        return 0.0
    return sum(per_site.values()) / len(per_site)


def queueing_latency(base_ms: float, offered_load: float, capacity: float) -> float:
    """Latency under load: the base wide-area latency inflated by an M/M/1-style
    queueing term as the offered load approaches the saturation capacity.

    Used by Figure 7 to produce the characteristic hockey-stick curves.
    """
    if capacity <= 0:
        return base_ms
    utilization = min(offered_load / capacity, 0.995)
    return base_ms / max(1e-3, (1.0 - utilization)) ** 0.5


def load_curve(
    clients_per_site: Sequence[int],
    num_sites: int,
    base_latency_ms: float,
    capacity_ops: float,
) -> List[Dict[str, float]]:
    """Latency/throughput points as the client count grows (Figure 7).

    For each client count the fixed point of the closed-loop equations is
    found by iteration: latency depends on utilisation, which depends on
    throughput, which depends on latency.
    """
    points: List[Dict[str, float]] = []
    for per_site in clients_per_site:
        clients = per_site * num_sites
        # Solve the closed-loop fixed point exactly: with utilisation
        # u = T / capacity and L = base / sqrt(1 - u), closed-loop clients
        # give T = clients / L, i.e.  u * capacity * base = clients * sqrt(1-u).
        # The left side grows and the right side shrinks in u, so the root is
        # unique; find it by bisection.
        low, high = 0.0, 0.995
        for _ in range(60):
            mid = (low + high) / 2.0
            lhs = mid * capacity_ops * (base_latency_ms / 1000.0)
            rhs = clients * (1.0 - mid) ** 0.5
            if lhs < rhs:
                low = mid
            else:
                high = mid
        utilization = (low + high) / 2.0
        latency = queueing_latency(base_latency_ms, utilization * capacity_ops, capacity_ops)
        throughput = min(utilization * capacity_ops, capacity_ops)
        points.append(
            {
                "clients_per_site": float(per_site),
                "throughput_ops": throughput,
                "latency_ms": latency,
            }
        )
    return points
