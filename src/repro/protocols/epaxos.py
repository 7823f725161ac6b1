"""EPaxos (Egalitarian Paxos, SOSP'13) — dependency-based leaderless SMR.

The paper's evaluation (§6) characterises EPaxos by:

* fast quorums of size ``floor(3r/4)``;
* a conservative fast-path condition: every fast-quorum member must report
  exactly the same dependencies (and sequence number) for the command;
* slow path over a majority;
* execution over the committed dependency graph (SCC by SCC), which is the
  source of its long tail latency.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.core.identifiers import Dot
from repro.protocols.dependency import DependencyProtocolProcess


class EPaxosProcess(DependencyProtocolProcess):
    """An EPaxos replica."""

    name = "epaxos"

    def fast_quorum_size(self) -> int:
        """EPaxos fast quorums contain ``floor(3r/4)`` processes, at least
        a majority."""
        return self.config.epaxos_fast_quorum_size

    def slow_quorum_size(self) -> int:
        """The slow path uses a simple majority."""
        return self.config.majority

    def allows_fast_path(
        self,
        union_deps: FrozenSet[Dot],
        acks: Dict[int, Tuple[FrozenSet[Dot], int]],
        coordinator: int,
    ) -> bool:
        """Fast path requires every non-coordinator reply to match the
        coordinator's dependencies exactly."""
        reference = acks.get(coordinator)
        if reference is None:
            return False
        return all(reply == reference for reply in acks.values())
