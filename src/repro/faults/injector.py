"""Compile a :class:`~repro.faults.plan.FaultPlan` against one deployment.

The plan names replicas by ``(site_rank, shard)`` and links by site rank;
the injector resolves those into concrete process ids and site names and
schedules every event at its simulated time:

* :class:`~repro.faults.plan.Crash` events go through the simulator's
  first-class ``crash_at`` (a CRASH event at the crash time's queue
  position, which is what keeps ``results/crash_tail.txt`` byte-identical);
* everything else becomes a FAULT event whose payload mutates the network's
  fault state (partition edges, degradation windows, targeted-loss windows)
  or restarts a process.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.faults.plan import (
    Crash,
    FaultPlan,
    FlakyLink,
    Partition,
    Restart,
    TargetedLoss,
)
from repro.simulator.network import LinkDegradation
from repro.simulator.network import TargetedLoss as NetTargetedLoss
from repro.simulator.sim import Simulation


class FaultInjector:
    """Schedules the events of one validated plan onto one simulation.

    ``sites`` is the deployment's site names in rank order and
    ``process_id_of(site_rank, shard)`` resolves a replica coordinate to its
    process id (the cluster runner passes its deployment's resolver).
    """

    def __init__(
        self,
        plan: FaultPlan,
        sites: Sequence[str],
        process_id_of: Callable[[int, int], int],
        num_shards: int = 1,
    ) -> None:
        self.plan = plan.validate(len(sites), num_shards)
        self.sites = list(sites)
        self.process_id_of = process_id_of
        self.num_shards = num_shards

    def install(self, simulation: Simulation) -> None:
        """Schedule every plan event; call once, before ``simulation.run``."""
        if any(
            isinstance(event, TargetedLoss) and event.cross_shard_only
            for event in self.plan
        ):
            # Cross-shard targeted loss needs the network to know each
            # process's shard; tag them all up front (pure metadata, no
            # effect until a cross_group_only rule is active).
            for shard in range(self.num_shards):
                for site_rank in range(len(self.sites)):
                    simulation.network.set_group(
                        self.process_id_of(site_rank, shard), shard
                    )
        for event in self.plan:
            if isinstance(event, Crash):
                simulation.crash_at(
                    event.at_ms, self.process_id_of(event.site_rank, event.shard)
                )
            elif isinstance(event, Restart):
                process_id = self.process_id_of(event.site_rank, event.shard)
                simulation.fault_at(
                    event.at_ms,
                    lambda sim, process_id=process_id: sim.restart(process_id),
                )
            elif isinstance(event, Partition):
                groups = tuple(
                    tuple(self.sites[rank] for rank in group)
                    for group in event.groups
                )
                simulation.fault_at(
                    event.at_ms,
                    lambda sim, groups=groups: sim.network.set_partition(groups),
                )
                simulation.fault_at(
                    event.heal_at_ms, lambda sim: sim.network.clear_partition()
                )
            elif isinstance(event, FlakyLink):
                links = self._links_of(event)
                degradation = LinkDegradation(
                    extra_delay_ms=event.extra_delay_ms,
                    jitter_ms=event.jitter_ms,
                    drop_probability=event.drop_probability,
                )
                simulation.fault_at(
                    event.at_ms,
                    lambda sim, links=links, degradation=degradation: [
                        sim.network.degrade_link(a, b, degradation)
                        for a, b in links
                    ],
                )
                simulation.fault_at(
                    event.until_ms,
                    lambda sim, links=links: [
                        sim.network.restore_link(a, b) for a, b in links
                    ],
                )
            elif isinstance(event, TargetedLoss):
                loss = NetTargetedLoss(
                    probability=event.probability,
                    cross_group_only=event.cross_shard_only,
                )
                simulation.fault_at(
                    event.at_ms,
                    lambda sim, kind=event.kind, loss=loss: (
                        sim.network.set_targeted_loss(kind, loss)
                    ),
                )
                simulation.fault_at(
                    event.until_ms,
                    lambda sim, kind=event.kind: (
                        sim.network.clear_targeted_loss(kind)
                    ),
                )
            else:  # pragma: no cover - validate() rejects unknown events
                raise TypeError(f"unknown fault event: {event!r}")

    def _links_of(self, event: FlakyLink) -> List[Tuple[str, str]]:
        """Concrete site-name link pairs a FlakyLink event degrades."""
        sites = self.sites
        if event.site_a is None:
            return [
                (sites[a], sites[b])
                for a in range(len(sites))
                for b in range(a + 1, len(sites))
            ]
        if event.site_b is None:
            a = event.site_a
            return [(sites[a], sites[b]) for b in range(len(sites)) if b != a]
        return [(sites[event.site_a], sites[event.site_b])]
