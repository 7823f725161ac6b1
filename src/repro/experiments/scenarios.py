"""Adversarial scenario matrix: trace-certified fault-injection campaign.

The paper's evaluation runs the protocols on their happy path (plus one
planned-fault figure); this module sweeps the *unhappy* paths the text only
argues about — coordinator crashes at different sites and times, a crashed
replica restarting with its durable state (the watermark GC must stall for
the outage and resume after the catch-up), a site partitioned away and
healed, flaky wide-area links, message-class-targeted
loss (the cross-partition ``MStable`` notifications multi-shard stability
depends on) and Zipfian conflict skew — and certifies every cell with the
:mod:`repro.analysis` trace checker (the run *raises* on any consistency
violation, so a matrix row exists only if the invariants held).

Each cell reports tail latency, how many commands were left stuck on alive
replicas, and whether the survivors converged (no stuck commands and — for
Tempo, whose execution is a per-shard total order — identical execution
orders).  Convergence is a *requirement* for every cell whose fault plan
can lose or delay traffic: Tempo's repair pass (:mod:`repro.core.repair`:
the blocked side asks again for a missing commit, promises or remote
``MStable``, and the leader recovers, §B.1) plus the reliable-delivery
layer (:mod:`repro.reliability`: ack-driven commit/MStable retransmission,
and coordinator re-solicitation for the dependency baselines) drains
everything such a window strands.  The only cells that do not converge are
the baselines' coordinator crashes (``crash@s0``): the dead coordinator held
quorum state no other replica can reconstruct, and Atlas / EPaxos
coordinator recovery is outside the paper's scope, so those cells print
``no*`` and the table carries :data:`LEGEND`.  Crash-only plans keep the
reliability layer off: a replica that never returns needs no re-send.

The matrix is deterministic end to end (every cell is seeded and all fault
randomness draws from the network's dedicated fault RNG stream), so
``results/scenario_matrix.txt`` is byte-identical across reruns and CI
checks it for drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.faults import Crash, FaultPlan, FlakyLink, Partition, Restart, TargetedLoss

#: Tail bound (ms) gating the promoted worst cells: recovery timeout
#: (500 ms) + one repair round + wide-area round trips, matching the
#: crash-tail benchmark's budget.
WORST_CELL_TAIL_BOUND_MS = 2_000.0

TITLE = (
    "Fault-injection scenario matrix - trace-certified, "
    "p50/p99/p99.9 latency (ms), stuck commands on alive replicas"
)

#: The ``converged`` mark of a cell that does not require convergence and
#: did not converge, and the legend line that explains it.
NOT_CONVERGED_BY_SCOPE = "no*"
LEGEND = (
    f"{NOT_CONVERGED_BY_SCOPE}: Atlas / EPaxos coordinator recovery is outside "
    "the paper's scope; the dead coordinator's quorum state is not reconstructible"
)


def legend(rows: Sequence[Dict[str, object]]) -> str:
    """:data:`LEGEND` when some row carries its mark, else nothing."""
    marked = any(row["converged"] == NOT_CONVERGED_BY_SCOPE for row in rows)
    return LEGEND if marked else ""


#: Fault shapes every protocol is swept through (the acceptance floor is
#: >= 3 protocols x >= 4 shapes; ``zipf`` rides along as a healthy-but-
#: skewed control).
SHAPES: Tuple[str, ...] = (
    "crash",
    "restart",
    "partition",
    "flaky",
    "targeted",
    "zipf",
)


@dataclass(frozen=True)
class ScenarioCell:
    """One cell of the matrix: a protocol under one fault shape."""

    name: str
    protocol: str
    shape: str
    config: ExperimentConfig
    #: Whether the cell *asserts* survivor convergence (no stuck commands;
    #: for Tempo also one agreed per-shard execution order).  False only
    #: for the baselines' coordinator crashes, outside the paper's scope.
    requires_convergence: bool = False
    #: Promoted worst cells additionally gate their p99.9 under
    #: :data:`WORST_CELL_TAIL_BOUND_MS` (the CI regression gate).
    tail_gated: bool = False


@dataclass
class ScenarioOptions:
    """Knobs for the campaign (scaled for the pure-Python simulator)."""

    num_sites: int = 5
    faults: int = 1
    clients_per_site: int = 4
    conflict_rate: float = 0.10
    duration_ms: float = 2_000.0
    warmup_ms: float = 400.0
    seed: int = 1
    protocols: Sequence[str] = ("tempo", "atlas", "epaxos")
    #: Restrict to cells whose name contains any of these substrings
    #: (``None`` = full matrix); the CI smoke job runs a slice.
    select: Optional[Sequence[str]] = None


def _base_config(options: ScenarioOptions, protocol: str, **overrides) -> ExperimentConfig:
    base = dict(
        protocol=protocol,
        num_sites=options.num_sites,
        faults=options.faults,
        clients_per_site=options.clients_per_site,
        conflict_rate=options.conflict_rate,
        duration_ms=options.duration_ms,
        warmup_ms=options.warmup_ms,
        seed=options.seed,
        record_execution_trace=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def build_matrix(options: ScenarioOptions = ScenarioOptions()) -> List[ScenarioCell]:
    """The campaign's cells: crash-site/time sweep x partition/heal x
    flaky links x targeted loss x Zipf skew, per protocol."""
    cells: List[ScenarioCell] = []
    crash_window = options.duration_ms * 0.4
    heal_at = options.duration_ms * 0.7
    # Crash sweep: Tempo sweeps crash site and crash time (its recovery
    # machinery must deliver convergence wherever the coordinator dies);
    # the baselines take the representative site-0 crash.
    for protocol in options.protocols:
        if protocol == "tempo":
            sweep = [(0, crash_window), (1, crash_window), (0, heal_at)]
        else:
            sweep = [(0, crash_window)]
        for site_rank, at_ms in sweep:
            cells.append(
                ScenarioCell(
                    name=f"crash@s{site_rank}/t{int(at_ms)}",
                    protocol=protocol,
                    shape="crash",
                    config=_base_config(
                        options,
                        protocol,
                        fault_plan=FaultPlan(
                            [Crash(at_ms=at_ms, site_rank=site_rank)]
                        ),
                    ),
                    requires_convergence=protocol == "tempo",
                    tail_gated=protocol == "tempo",
                )
            )
    # Crash/restart (crash-recovery variant): site 1 dies mid-run and
    # returns later holding its durable state.  While it is down the
    # watermark GC stalls at every survivor (the crashed peer stays in the
    # minimum); after the restart the replica must catch up — Tempo via
    # its repair pass, the baselines via the reliable-delivery layer's
    # commit retransmission and coordinator re-solicitation — and the
    # campaign asserts post-restart convergence for every protocol.
    restart_at = options.duration_ms * 0.6
    for protocol in options.protocols:
        cells.append(
            ScenarioCell(
                name=f"restart@s1/t{int(crash_window)}-{int(restart_at)}",
                protocol=protocol,
                shape="restart",
                config=_base_config(
                    options,
                    protocol,
                    fault_plan=FaultPlan(
                        [
                            Crash(at_ms=crash_window, site_rank=1),
                            Restart(at_ms=restart_at, site_rank=1),
                        ]
                    ),
                ),
                requires_convergence=True,
                tail_gated=protocol == "tempo",
            )
        )
    # Partition/heal: site 0 isolated from the quorum for a window, then
    # healed; recovery must drain what the window stranded.
    isolated = ((0,), tuple(range(1, options.num_sites)))
    for protocol in options.protocols:
        cells.append(
            ScenarioCell(
                name=f"partition@s0/t{int(crash_window)}-{int(heal_at)}",
                protocol=protocol,
                shape="partition",
                config=_base_config(
                    options,
                    protocol,
                    fault_plan=FaultPlan(
                        [Partition(crash_window, heal_at, isolated)]
                    ),
                ),
                requires_convergence=True,
                tail_gated=protocol == "tempo",
            )
        )
    # Flaky links: every wide-area link gains delay + jitter + 5 % drop
    # for a window (fair-lossy links; retransmission copes).
    for protocol in options.protocols:
        cells.append(
            ScenarioCell(
                name="flaky-links/d30j10p0.05",
                protocol=protocol,
                shape="flaky",
                config=_base_config(
                    options,
                    protocol,
                    fault_plan=FaultPlan(
                        [
                            FlakyLink(
                                at_ms=crash_window,
                                until_ms=heal_at + 200.0,
                                extra_delay_ms=30.0,
                                jitter_ms=10.0,
                                drop_probability=0.05,
                            )
                        ]
                    ),
                ),
                requires_convergence=True,
            )
        )
    # Targeted loss: for Tempo, the cross-partition MStable notifications
    # of a 2-shard deployment (the only deployment where MStable crosses
    # the wire); for the dependency protocols, their commit broadcast.
    for protocol in options.protocols:
        if protocol == "tempo":
            cells.append(
                ScenarioCell(
                    name="mstable-loss/x-shard",
                    protocol=protocol,
                    shape="targeted",
                    config=_base_config(
                        options,
                        protocol,
                        num_sites=3,
                        num_shards=2,
                        keys_per_command=2,
                        fault_plan=FaultPlan(
                            [
                                TargetedLoss(
                                    at_ms=crash_window,
                                    until_ms=heal_at,
                                    kind="MStable",
                                    probability=1.0,
                                    cross_shard_only=True,
                                )
                            ]
                        ),
                    ),
                    requires_convergence=True,
                )
            )
        else:
            cells.append(
                ScenarioCell(
                    name="commit-loss/p0.3",
                    protocol=protocol,
                    shape="targeted",
                    config=_base_config(
                        options,
                        protocol,
                        fault_plan=FaultPlan(
                            [
                                TargetedLoss(
                                    at_ms=crash_window,
                                    until_ms=heal_at,
                                    kind="MDepCommit",
                                    probability=0.3,
                                )
                            ]
                        ),
                    ),
                    requires_convergence=True,
                )
            )
    # Zipfian conflict skew: healthy network, hot-key YCSB+T contention.
    for protocol in options.protocols:
        cells.append(
            ScenarioCell(
                name="zipf0.95/ycsbt",
                protocol=protocol,
                shape="zipf",
                config=_base_config(
                    options,
                    protocol,
                    workload="ycsbt",
                    zipf=0.95,
                    write_ratio=0.5,
                ),
                requires_convergence=True,
            )
        )
    if options.select:
        cells = [
            cell
            for cell in cells
            if any(token in cell.name or token == cell.shape for token in options.select)
        ]
    return cells


def _convergence(result, protocol: str) -> Tuple[int, bool]:
    """``(stuck, converged)`` for one finished cell.

    ``stuck`` counts commands an *alive* replica failed to finish: still
    pending, or committed but never executed (a committed command whose
    stability/ordering prerequisites were lost stalls the execution queue
    without ever being "pending").  Converged means no stuck commands;
    Tempo executes a per-shard total order, so its survivors must
    additionally agree on one execution order per shard.
    """
    deployment = result.deployment
    alive = [process for process in deployment.processes if process.alive]
    stuck = sum(
        len(process.pending_dots())
        + len(set(process.committed_dots()) - set(process.executed_dots()))
        for process in alive
    )
    converged = stuck == 0
    if converged and protocol == "tempo":
        by_shard: Dict[int, set] = {}
        protocol_config = deployment.protocol_config
        for process in alive:
            shard = protocol_config.partition_of_process(process.process_id)
            by_shard.setdefault(shard, set()).add(tuple(process.executed_dots()))
        converged = all(len(orders) == 1 for orders in by_shard.values())
    return stuck, converged


def run_cell(cell: ScenarioCell) -> Dict[str, object]:
    """Run one cell under the trace checker and build its matrix row.

    ``run_experiment`` raises on any trace violation, so a returned row is
    certified; convergence is asserted where the cell requires it.
    """
    result = run_experiment(cell.config)
    stuck, converged = _convergence(result, cell.protocol)
    if cell.requires_convergence:
        assert converged, (
            f"cell {cell.name} ({cell.protocol}): expected convergence, "
            f"{stuck} commands stuck"
        )
    row: Dict[str, object] = {
        "scenario": cell.name,
        "protocol": cell.protocol,
        "shape": cell.shape,
        "completed": result.completed,
        "p50": round(result.percentile(50.0), 1),
        "p99": round(result.percentile(99.0), 1),
        "p99.9": round(result.percentile(99.9), 1),
        "stuck": stuck,
        # A cell that requires convergence has asserted it above.
        "converged": "yes" if converged else NOT_CONVERGED_BY_SCOPE,
        # Identifiers dropped by the watermark GC across the run: the
        # witness that collection keeps running (or honestly stalls)
        # under the cell's fault shape.
        "gc": int(result.stats.get("gc_collected", 0)),
    }
    if cell.tail_gated:
        assert float(row["p99.9"]) <= WORST_CELL_TAIL_BOUND_MS, (
            f"promoted worst cell {cell.name} ({cell.protocol}) breached the "
            f"tail bound: {row}"
        )
    return row


def run_matrix(options: ScenarioOptions = ScenarioOptions()) -> List[Dict[str, object]]:
    """Run the whole campaign and return the matrix rows, cell order."""
    return [run_cell(cell) for cell in build_matrix(options)]
