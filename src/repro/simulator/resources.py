"""Resource (CPU / NIC) model used by the throughput experiments.

The paper's maximum-throughput results (Figures 7-9) are determined by which
hardware resource saturates first at the busiest process:

* for leader-based FPaxos, the leader's outbound NIC (large payloads) or the
  leader's CPU (small payloads) is the bottleneck;
* for dependency-based leaderless protocols (EPaxos/Atlas/Janus*), the
  single-threaded execution mechanism that builds and traverses the
  dependency graph becomes the bottleneck, and its cost grows with the size
  of the strongly connected components (i.e. with contention);
* Tempo's execution mechanism is cheap (timestamp sorting) and parallel
  across partitions, so Tempo saturates on overall CPU.

This module models a machine as a CPU budget (``cpu_micros_per_second``,
scaled by the number of usable cores) plus inbound/outbound NIC budgets, and
answers "how many commands per second fit" given per-command costs.  The
per-command costs themselves are derived from the protocols' message
patterns in :mod:`repro.experiments.throughput_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class MachineSpec:
    """Hardware capacities of one machine (one site).

    Defaults approximate the paper's cluster machines: 8 hardware threads
    usable by the protocol and a 10 Gbit/s NIC (§6.2); the EC2 instances are
    similar (c5.2xlarge, 8 vCPUs, up to 10 Gbit/s).
    """

    cores: float = 8.0
    cpu_micros_per_core_per_second: float = 1_000_000.0
    nic_bandwidth_bytes_per_second: float = 10e9 / 8.0
    execution_threads: float = 1.0

    def cpu_budget(self) -> float:
        """Total CPU microseconds available per second."""
        return self.cores * self.cpu_micros_per_core_per_second

    def execution_budget(self) -> float:
        """CPU microseconds per second available to the (possibly
        single-threaded) execution component."""
        return self.execution_threads * self.cpu_micros_per_core_per_second


@dataclass(frozen=True)
class CommandCost:
    """Resource usage of a single command at one process."""

    cpu_micros: float
    execution_micros: float
    net_in_bytes: float
    net_out_bytes: float


@dataclass(frozen=True)
class SaturationPoint:
    """Outcome of the saturation analysis at one process."""

    max_commands_per_second: float
    bottleneck: str
    utilization_at_saturation: Dict[str, float]


class ResourceModel:
    """Computes the saturation throughput of a process."""

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine

    def saturation(self, cost: CommandCost) -> SaturationPoint:
        """Maximum commands/s sustainable given the per-command cost.

        The limit of each resource is ``budget / per-command usage``; the
        overall maximum is the smallest of them and the corresponding
        resource is reported as the bottleneck.
        """
        limits: Dict[str, float] = {}
        if cost.cpu_micros > 0:
            limits["cpu"] = self.machine.cpu_budget() / cost.cpu_micros
        if cost.execution_micros > 0:
            limits["execution"] = (
                self.machine.execution_budget() / cost.execution_micros
            )
        if cost.net_in_bytes > 0:
            limits["net_in"] = (
                self.machine.nic_bandwidth_bytes_per_second / cost.net_in_bytes
            )
        if cost.net_out_bytes > 0:
            limits["net_out"] = (
                self.machine.nic_bandwidth_bytes_per_second / cost.net_out_bytes
            )
        if not limits:
            raise ValueError("command cost is entirely zero; cannot saturate")
        bottleneck = min(limits, key=lambda name: limits[name])
        max_rate = limits[bottleneck]
        utilization = {
            name: min(1.0, max_rate / limit) for name, limit in limits.items()
        }
        return SaturationPoint(
            max_commands_per_second=max_rate,
            bottleneck=bottleneck,
            utilization_at_saturation=utilization,
        )

    def utilization(self, cost: CommandCost, rate: float) -> Dict[str, float]:
        """Fractional utilization of each resource at ``rate`` commands/s."""
        return {
            "cpu": min(1.0, rate * cost.cpu_micros / self.machine.cpu_budget()),
            "execution": min(
                1.0, rate * cost.execution_micros / self.machine.execution_budget()
            ),
            "net_in": min(
                1.0,
                rate * cost.net_in_bytes / self.machine.nic_bandwidth_bytes_per_second,
            ),
            "net_out": min(
                1.0,
                rate * cost.net_out_bytes / self.machine.nic_bandwidth_bytes_per_second,
            ),
        }
