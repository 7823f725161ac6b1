"""Baseline SMR protocols the paper evaluates Tempo against (§6).

* :class:`repro.protocols.fpaxos.FPaxosProcess` — leader-based Flexible
  Paxos with phase-2 quorums of ``f + 1``.
* :class:`repro.protocols.epaxos.EPaxosProcess` — Egalitarian Paxos,
  leaderless with explicit dependencies and fast quorums of ``floor(3r/4)``.
* :class:`repro.protocols.atlas.AtlasProcess` — Atlas, like EPaxos but with
  fast quorums of ``floor(r/2) + f`` and a more permissive fast-path rule.
* :class:`repro.protocols.caesar.CaesarProcess` — Caesar, timestamp ordering
  with explicit dependencies and the blocking wait condition.
* :class:`repro.protocols.janus.JanusProcess` — Janus*, the Atlas-based
  generalization of Janus to partial replication (non-genuine).

All protocols implement the :class:`repro.core.base.ProcessBase` interface so
the simulator, the cluster runner and the tests drive them uniformly.
"""

from repro.protocols.atlas import AtlasProcess
from repro.protocols.caesar import CaesarProcess
from repro.protocols.depgraph import DependencyGraphExecutor
from repro.protocols.dependency import DependencyProtocolProcess
from repro.protocols.epaxos import EPaxosProcess
from repro.protocols.fpaxos import FPaxosProcess
from repro.protocols.janus import JanusProcess
from repro.protocols.registry import PROTOCOLS, build_process, protocol_names

__all__ = [
    "AtlasProcess",
    "CaesarProcess",
    "DependencyGraphExecutor",
    "DependencyProtocolProcess",
    "EPaxosProcess",
    "FPaxosProcess",
    "JanusProcess",
    "PROTOCOLS",
    "build_process",
    "protocol_names",
]
