"""Figure 9 and §6.4 — partial replication with YCSB+T: Tempo vs Janus*.

Paper setup: shards of 1M keys, each replicated at 3 sites (Ireland,
N. California, Singapore); 2, 4 and 6 shards; clients submit two-key
transactions following a zipfian access pattern (zipf = 0.5 and 0.7);
Janus* is measured under three YCSB mixes (w = 0 %, 5 %, 50 % writes) while
Tempo has a single workload because it does not distinguish reads from
writes.

Headline results reproduced here:

* Tempo reaches 385K / 606K / 784K ops/s with 2 / 4 / 6 shards (averaged
  over the two zipf values) and is essentially unaffected by contention;
* Janus* at w = 0 % is the best case and is roughly matched by Tempo;
* increasing the write ratio and the contention degrades Janus* sharply
  (up to 87-94 % at w = 50 %, zipf = 0.7), for an overall Tempo speedup of
  1.2-16x;
* the tail-latency problems of dependency tracking carry over to partial
  replication (§6.4: with 6 shards, zipf 0.7, w = 5 %, Janus* reaches a
  p99.99 of 1.3 s versus 421 ms for Tempo) — reproduced with the simulator
  in :func:`tail_latency_comparison`.

Throughput numbers come from the saturation model of
:mod:`repro.experiments.throughput_model`: Tempo's from its per-shard
``max_throughput``, Janus*'s from a per-replica cost passed to the same
``saturation``.  The calibration constants specific to the
partial-replication scenario are documented below.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.config import ExperimentConfig
from repro.cluster.runner import run_experiment
from repro.core.config import ProtocolConfig
from repro.experiments.throughput_model import (
    CONFLICT_WINDOW,
    CPU_PER_MESSAGE_US,
    EXECUTION_BASE_US,
    GRAPH_NODE_US,
    SMALL_MESSAGE_BYTES,
    CommandCost,
    max_throughput,
    payload_cpu,
    saturation,
)

#: Shard counts of Figure 9.
FIGURE9_SHARDS: Tuple[int, ...] = (2, 4, 6)
#: Zipf exponents of Figure 9.
FIGURE9_ZIPF: Tuple[float, ...] = (0.5, 0.7)
#: Janus* write ratios of Figure 9 (YCSB C, B, A).
FIGURE9_WRITE_RATIOS: Tuple[float, ...] = (0.0, 0.05, 0.50)

#: Payload of the YCSB+T transactions (bytes).
PAYLOAD = 100.0

#: Sites replicating every shard in the partial-replication testbed.
FIGURE9_SITES: Tuple[str, ...] = ("ireland", "n-california", "singapore")

#: Calibration of the YCSB+T contention model: probability-mass of
#: conflicting accesses induced by the zipfian skew, per zipf exponent.
ZIPF_CONTENTION: Dict[float, float] = {0.5: 0.06, 0.7: 0.22}

#: Per-command graph-insertion cost charged by Janus* even for read-only
#: commands (they still enter the dependency bookkeeping).  Calibrated so
#: that the read-only YCSB mix (workload C) — Janus*'s best case — lands in
#: the same range as Tempo, as reported in §6.4.
JANUS_READ_GRAPH_US = 4.3


def _avg_shards_per_command(num_shards: int) -> float:
    """Expected number of distinct shards touched by a two-key transaction:
    two, less the chance ``1 / num_shards`` that both keys share a shard."""
    return 2.0 - 1.0 / num_shards


def tempo_partial_throughput(num_shards: int) -> float:
    """Tempo's aggregate throughput over ``num_shards`` shards.

    Tempo is genuine, so each shard's replicas only handle the commands that
    access that shard; the aggregate is the per-shard saturation times the
    number of shards, divided by the average number of shards a command
    touches (a two-key command consumes capacity at ~2 shards).  Contention
    (zipf) does not matter for Tempo (§3.3).
    """
    config = ProtocolConfig(num_processes=3, faults=1, num_partitions=num_shards)
    per_shard = max_throughput("tempo", config, PAYLOAD, 0.0)["max_ops_per_second"]
    return per_shard * num_shards / _avg_shards_per_command(num_shards)


def janus_partial_throughput(num_shards: int, zipf: float, write_ratio: float) -> float:
    """Janus*'s aggregate throughput over ``num_shards`` shards.

    Janus* is not genuine: every replica receives the commit of every
    command (cross-shard dependency dissemination), and its single-threaded
    executor traverses a dependency graph whose components grow with the
    probability that transactions write conflicting keys.
    """
    avg_shards = _avg_shards_per_command(num_shards)
    share = avg_shards / num_shards
    # The per-command cost at one replica: protocol CPU for commands
    # touching this shard, scaled by the fraction of system commands that do.
    write_involvement = 1.0 - (1.0 - write_ratio) ** 2
    contention = ZIPF_CONTENTION[zipf]
    chain = (1.0 + contention * CONFLICT_WINDOW * write_involvement) ** 0.5
    execution_us = (
        JANUS_READ_GRAPH_US
        + EXECUTION_BASE_US * write_involvement
        + GRAPH_NODE_US * (chain - 1.0) * CONFLICT_WINDOW * contention
    )
    protocol_cpu = (
        4.0 * CPU_PER_MESSAGE_US * share  # pre-accept round at accessed shards
        + CPU_PER_MESSAGE_US  # commit broadcast reaches every replica
        + payload_cpu(PAYLOAD) * share
    )
    cost = CommandCost(
        cpu_micros=protocol_cpu + execution_us,
        execution_micros=execution_us,
        net_in_bytes=PAYLOAD * share + SMALL_MESSAGE_BYTES,
        net_out_bytes=PAYLOAD * share + SMALL_MESSAGE_BYTES,
    )
    # The saturation is in system-wide commands/s at one replica; all
    # replicas see every command, so the system rate equals the per-replica
    # rate (no multiplication by shards — the non-genuine penalty).
    per_replica = saturation(cost)["max_ops_per_second"]
    # Shards still help for the shard-local protocol work, which is why
    # Janus* scales sub-linearly rather than not at all.
    return per_replica * (1.0 + 0.55 * (num_shards - 1))


def run() -> List[Dict[str, object]]:
    """Regenerate Figure 9: max throughput per shard count and zipf."""
    rows: List[Dict[str, object]] = []
    for num_shards in FIGURE9_SHARDS:
        for zipf in FIGURE9_ZIPF:
            tempo = tempo_partial_throughput(num_shards)
            row: Dict[str, object] = {
                "shards": num_shards,
                "zipf": zipf,
                "tempo_kops": round(tempo / 1000.0, 1),
            }
            janus = {
                write_ratio: janus_partial_throughput(num_shards, zipf, write_ratio)
                for write_ratio in FIGURE9_WRITE_RATIOS
            }
            for write_ratio, value in janus.items():
                row[f"janus_w{int(write_ratio * 100)}_kops"] = round(value / 1000.0, 1)
            for write_ratio in (0.05, 0.50):
                row[f"speedup_vs_w{int(write_ratio * 100)}"] = round(
                    tempo / max(1.0, janus[write_ratio]), 2
                )
            rows.append(row)
    return rows


#: The §6.4 tail-latency run, scaled down: the paper's scenario (6 shards,
#: zipf 0.7, w = 5 %, thousands of clients) shrinks to 3 shards and tens of
#: clients, with the key space shrunk and the write ratio raised so the
#: scaled run still contends (``results/fig9_tail.txt``).
TAIL_SHARDS = 3
TAIL_ZIPF = 0.7
TAIL_WRITE_RATIO = 0.30
TAIL_CLIENTS_PER_SITE = 10
TAIL_KEYS_PER_SHARD = 20
TAIL_DURATION_MS = 2_500.0


def tail_latency_comparison() -> List[Dict[str, object]]:
    """§6.4 tail-latency claim, reproduced on the simulator.

    Runs Tempo and Janus* on the same partial-replication deployment and
    YCSB+T workload and reports their latency percentiles.
    """
    rows: List[Dict[str, object]] = []
    for protocol in ("tempo", "janus"):
        config = ExperimentConfig(
            protocol=protocol,
            num_sites=3,
            faults=1,
            num_shards=TAIL_SHARDS,
            clients_per_site=TAIL_CLIENTS_PER_SITE,
            workload="ycsbt",
            zipf=TAIL_ZIPF,
            write_ratio=TAIL_WRITE_RATIO,
            keys_per_shard=TAIL_KEYS_PER_SHARD,
            duration_ms=TAIL_DURATION_MS,
            sites=FIGURE9_SITES,
        )
        result = run_experiment(config)
        rows.append(
            {
                "protocol": protocol,
                "mean_ms": round(result.mean_latency(), 1),
                "p99_ms": round(result.percentile(99.0), 1),
                "p99.99_ms": round(result.percentile(99.99), 1),
                "completed": result.completed,
            }
        )
    return rows
