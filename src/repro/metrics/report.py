"""Experiment reports and plain-text table rendering.

Every experiment driver in :mod:`repro.experiments` returns an
:class:`ExperimentReport`; the benchmark harness prints them with
:func:`format_table` so the rows/series of the paper's tables and figures
can be eyeballed directly from the bench output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.metrics.histogram import LatencyHistogram


@dataclass
class ExperimentReport:
    """Outcome of one experiment run (one protocol, one configuration)."""

    name: str
    protocol: str
    parameters: Dict[str, object] = field(default_factory=dict)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    per_site_latency: Dict[str, LatencyHistogram] = field(default_factory=dict)
    throughput_ops: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def mean_latency(self) -> float:
        return self.latency.mean()

    def site_means(self) -> Dict[str, float]:
        return {site: histogram.mean() for site, histogram in self.per_site_latency.items()}

    def tail(self, percentile: float) -> float:
        return self.latency.percentile(percentile)

    def row(self) -> Dict[str, object]:
        """Flat dictionary used by the table renderer."""
        row: Dict[str, object] = {"protocol": self.protocol}
        row.update(self.parameters)
        summary = self.latency.summary()
        row.update(
            {
                "mean_ms": round(summary["mean"], 1),
                "p99_ms": round(summary["p99"], 1),
                "p99.9_ms": round(summary["p99.9"], 1),
                "throughput_ops": round(self.throughput_ops, 1),
            }
        )
        row.update({key: round(value, 3) for key, value in self.extra.items()})
        return row


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[List[str]] = None,
    title: str = "",
    footnote: str = "",
) -> str:
    """Render rows as an aligned plain-text table, ``footnote`` (if any) on
    the line under it."""
    if not rows:
        return f"{title}\n(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    if footnote:
        lines.append(footnote)
    return "\n".join(lines)
