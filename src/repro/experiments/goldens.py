"""The golden tables of ``results/`` that ``src/`` computes, each defined once.

:data:`GOLDENS` maps a results-file stem to the function that computes the
table's rows at the golden's parameters (constants of its experiment
module), with the table's title and, where a row's keys are not in column
order, its columns.  The benchmark for ``NAME`` calls ``rows()`` and writes
``results/NAME.txt``; ``python -m repro figure NAME`` prints the same bytes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.experiments import (
    fig2_stability,
    fig5_fairness,
    fig6_tail,
    fig7_load,
    fig8_batching,
    fig9_partial,
    pathological,
    table1_fastpath,
)
from repro.metrics.report import format_table


class Golden(NamedTuple):
    """One golden table: how to compute its rows and how to print them."""

    rows: Callable[[], List[Dict[str, object]]]
    title: str
    columns: Optional[List[str]] = None

    def table(self, rows: Sequence[Dict[str, object]]) -> str:
        """The rows as the text of ``results/NAME.txt`` (without its final
        newline)."""
        return format_table(rows, columns=self.columns, title=self.title)


GOLDENS: Dict[str, Golden] = {
    "table1_fastpath": Golden(
        table1_fastpath.run, "Table 1 - Tempo fast-path examples (r = 5)"
    ),
    "fig2_stability": Golden(
        fig2_stability.figure2_rows,
        "Figure 2 - stable timestamps per promise-set combination (r = 3)",
    ),
    "fig3_comparison": Golden(
        fig2_stability.figure3_rows,
        "Figure 3 - timestamp stability vs explicit dependencies",
    ),
    "fig5_fairness": Golden(
        fig5_fairness.run,
        "Figure 5 - per-site mean latency (ms), 5 sites, 2% conflicts",
        fig5_fairness.COLUMNS,
    ),
    "fig6_tail": Golden(
        fig6_tail.run,
        "Figure 6 - latency percentiles (ms), 5 sites, contended workload",
    ),
    "fig6_multishard": Golden(
        fig6_tail.run_multishard,
        "Figure 6 variant - latency percentiles (ms), 3 sites, 2 shards, "
        "two-key commands, contended workload",
    ),
    "fig7_saturation": Golden(
        fig7_load.saturation_table,
        "Figure 7 - maximum throughput (K ops/s), 5 sites, 4KB payloads",
    ),
    "fig7_curves": Golden(
        fig7_load.latency_throughput_curves,
        "Figure 7 (top) - latency vs throughput as clients grow, 2% conflicts",
    ),
    "fig7_heatmap": Golden(
        fig7_load.heatmap,
        "Figure 7 (heatmap) - hardware utilization at saturation, 2% conflicts",
    ),
    "fig8_batching": Golden(
        fig8_batching.run,
        "Figure 8 - max throughput (K ops/s) with batching OFF/ON",
    ),
    "fig9_partial": Golden(
        fig9_partial.run,
        "Figure 9 - max throughput (K ops/s) with 2/4/6 shards, 3 sites per shard",
    ),
    "fig9_tail": Golden(
        fig9_partial.tail_latency_comparison,
        "§6.4 - tail latency under partial replication (scaled-down simulator run)",
    ),
    "pathological": Golden(
        pathological.run,
        "§D - adversarial round-robin schedule (3 processes, all commands conflict)",
    ),
    "pathological_growth": Golden(
        pathological.growth,
        "§D - EPaxos dependency-component growth with schedule length",
    ),
}
