"""The one builder of "N replicas + stores + partitioner + quorum system".

The simulator runner, the asyncio runtime, the experiments that drive an
inline network, the examples and both test harnesses all get their replicas
here, so the unit tests certify clusters built the way ``run_experiment``
ships them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.core.base import ProcessBase
from repro.core.commands import Partitioner
from repro.core.config import ProtocolConfig
from repro.core.quorums import QuorumSystem
from repro.kvstore.store import KeyValueStore
from repro.protocols.registry import build_process


@dataclass
class Replicas:
    """One process and one key-value store per replica of a deployment,
    sharing a partitioner and a quorum system."""

    config: ProtocolConfig
    partitioner: Partitioner
    quorum_system: QuorumSystem
    processes: List[ProcessBase]
    stores: Dict[int, KeyValueStore]

    def stores_agree(self) -> bool:
        """Whether every replica of every partition has identical contents."""
        reference: Dict[int, KeyValueStore] = {}
        for process_id, store in self.stores.items():
            partition = self.config.partition_of_process(process_id)
            if reference.setdefault(partition, store) != store:
                return False
        return True


def build_replicas(
    protocol: str,
    config: ProtocolConfig,
    *,
    partitioner: Optional[Partitioner] = None,
    latencies: Optional[Mapping[int, Mapping[int, float]]] = None,
    **protocol_kwargs,
) -> Replicas:
    """Build every replica of ``config`` running ``protocol``.

    ``latencies[i][j]`` (one-way, between global processes) makes quorums
    prefer the closest processes; without it they go by rank distance.
    Extra keyword arguments reach the protocol constructor (``ack_broadcast``
    for Tempo, ``leader_rank`` for FPaxos, ...).
    """
    partitioner = partitioner or Partitioner(config.num_partitions)
    quorum_system = QuorumSystem(config, latencies=latencies)
    processes: List[ProcessBase] = []
    stores: Dict[int, KeyValueStore] = {}
    for process_id in range(config.total_processes()):
        store = stores[process_id] = KeyValueStore(
            config.partition_of_process(process_id)
        )
        processes.append(
            build_process(
                protocol,
                process_id,
                config,
                partitioner=partitioner,
                quorum_system=quorum_system,
                apply_fn=store.apply,
                **protocol_kwargs,
            )
        )
    return Replicas(config, partitioner, quorum_system, processes, stores)
