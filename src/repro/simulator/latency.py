"""Wide-area latency data and latency matrices.

``EC2_PING_LATENCIES`` reproduces Table 2 of the paper (Appendix A): the
average round-trip ping latency, in milliseconds, between the five EC2
regions used in the evaluation.  One-way latencies are modelled as half the
ping.  Intra-site latency defaults to a small constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence

#: Region names used throughout the evaluation (§6.2).
EC2_REGIONS = (
    "ireland",
    "n-california",
    "singapore",
    "canada",
    "sao-paulo",
)

#: Round-trip ping latencies in milliseconds (Table 2, symmetric closure).
EC2_PING_LATENCIES: Dict[str, Dict[str, float]] = {
    "ireland": {
        "ireland": 0.5,
        "n-california": 141.0,
        "singapore": 186.0,
        "canada": 72.0,
        "sao-paulo": 183.0,
    },
    "n-california": {
        "ireland": 141.0,
        "n-california": 0.5,
        "singapore": 181.0,
        "canada": 78.0,
        "sao-paulo": 190.0,
    },
    "singapore": {
        "ireland": 186.0,
        "n-california": 181.0,
        "singapore": 0.5,
        "canada": 221.0,
        "sao-paulo": 338.0,
    },
    "canada": {
        "ireland": 72.0,
        "n-california": 78.0,
        "singapore": 221.0,
        "canada": 0.5,
        "sao-paulo": 123.0,
    },
    "sao-paulo": {
        "ireland": 183.0,
        "n-california": 190.0,
        "singapore": 338.0,
        "canada": 123.0,
        "sao-paulo": 0.5,
    },
}

#: One-way latency between two endpoints at the same site: the network's
#: intra-site delay and the client -> co-located replica delay.
DEFAULT_LOCAL_LATENCY = 0.25


@dataclass
class LatencyMatrix:
    """One-way latencies between sites, addressed by site name."""

    sites: Sequence[str]
    one_way: Mapping[str, Mapping[str, float]]

    def __post_init__(self) -> None:
        for a in self.sites:
            if a not in self.one_way:
                raise ValueError(f"missing latency row for site {a!r}")
            for b in self.sites:
                if b not in self.one_way[a]:
                    raise ValueError(f"missing latency entry {a!r} -> {b!r}")

    def latency(self, site_a: str, site_b: str) -> float:
        """One-way latency, in milliseconds, from ``site_a`` to ``site_b``."""
        return float(self.one_way[site_a][site_b])

    def rtt(self, site_a: str, site_b: str) -> float:
        """Round-trip latency between two sites."""
        return self.latency(site_a, site_b) + self.latency(site_b, site_a)

    def closest_sites(self, site: str, count: int) -> List[str]:
        """The ``count`` sites closest to ``site`` (excluding itself)."""
        others = sorted(
            (other for other in self.sites if other != site),
            key=lambda other: (self.latency(site, other), other),
        )
        return others[:count]

    def quorum_latency(self, site: str, quorum_size: int) -> float:
        """Round-trip latency to reach a quorum of ``quorum_size`` sites
        (including ``site`` itself): the RTT to the (quorum_size-1)-th
        closest site."""
        if quorum_size <= 1:
            return 0.0
        closest = self.closest_sites(site, quorum_size - 1)
        if len(closest) < quorum_size - 1:
            raise ValueError("not enough sites for the requested quorum size")
        return max(self.rtt(site, other) for other in closest)


def ec2_latency_matrix(sites: Iterable[str] = EC2_REGIONS) -> LatencyMatrix:
    """Build a :class:`LatencyMatrix` of one-way latencies from Table 2."""
    sites = list(sites)
    one_way: Dict[str, Dict[str, float]] = {}
    for a in sites:
        one_way[a] = {}
        for b in sites:
            ping = EC2_PING_LATENCIES[a][b]
            one_way[a][b] = DEFAULT_LOCAL_LATENCY if a == b else ping / 2.0
    return LatencyMatrix(sites=sites, one_way=one_way)


def uniform_latency_matrix(sites: Sequence[str], one_way_ms: float) -> LatencyMatrix:
    """A synthetic matrix where every pair of distinct sites is ``one_way_ms``
    apart; useful for controlled tests."""
    one_way = {
        a: {b: (DEFAULT_LOCAL_LATENCY if a == b else one_way_ms) for b in sites}
        for a in sites
    }
    return LatencyMatrix(sites=sites, one_way=one_way)
