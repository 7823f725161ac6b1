"""Discrete-event geo-distributed simulator.

This package is the substrate on which the latency experiments run.  It
models processes placed at sites, message delivery with per-site-pair
latencies (the EC2 ping matrix of Appendix A by default), periodic ticks,
closed-loop clients, and the events of a :class:`repro.faults.FaultPlan`:
the simulation starts and ends each at its simulated time, and the network
applies the open window events (partitions, flaky links, targeted loss)
itself.

The simulator corresponds to the paper's "simulator" execution mode: it
computes observed client latency in a given wide-area configuration while
disregarding CPU and network bandwidth bottlenecks (those are modelled
separately, analytically, by :mod:`repro.experiments.throughput_model`).
"""

from repro.simulator.events import Event, EventKind, EventQueue
from repro.simulator.latency import EC2_PING_LATENCIES, LatencyMatrix, ec2_latency_matrix
from repro.simulator.network import Network
from repro.simulator.sim import Simulation
from repro.simulator.inline import InlineNetwork

__all__ = [
    "EC2_PING_LATENCIES",
    "Event",
    "EventKind",
    "EventQueue",
    "InlineNetwork",
    "LatencyMatrix",
    "Network",
    "Simulation",
    "ec2_latency_matrix",
]
