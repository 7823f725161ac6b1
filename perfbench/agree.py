"""Compare two result sets metric by metric against the benchmark's bounds.

A result set is what ``python -m perfbench run --out FILE`` writes.  For
every (workload, end-to-end metric) the comparison prints both values, the
change, the run-to-run spread and a verdict:

* ``same``       — B is within the metric's bound of A;
* ``worse`` / ``better`` — B differs from A by more than the bound;
* ``unresolved`` — it differs by more than the bound, but so does the
  run-to-run spread, so the difference may be noise;
* ``ungated``    — the workload is not listed in ``BENCHMARK.json``: its
  values are shown and held to no bound.

The spread is taken from same-input repeats.  Both sets must come from one
``--seed``, so repeat *i* of A and repeat *i* of B ran the very same input
and ``b_i / a_i - 1`` is one measurement of the change; the spread is the
range of these.  It is exactly 0 for values on a simulated or virtual clock
unless the program changed, and it is the host's noise for ``setup_s`` and
``peak_rss_mb``.

Bounds, directions and the gated workloads are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Set, Tuple

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def load_declared(path: str = BENCHMARK_JSON) -> Tuple[Dict[str, Tuple[str, float]], Set[str]]:
    """``metric -> (better, bound)`` of every end-to-end metric, and the
    names of the workloads held to those bounds."""
    with open(path, encoding="utf-8") as handle:
        declared = json.load(handle)
    bounds = {m["name"]: (m["better"], float(m["bound"])) for m in declared["end_to_end"]}
    return bounds, {w["name"] for w in declared["workloads"]}


def _relative(a: float, b: float) -> float:
    return (b - a) / abs(a) if a else 0.0


def compare(
    set_a: dict, set_b: dict, bounds: Dict[str, Tuple[str, float]], gated: Set[str]
) -> List[dict]:
    """One row per (workload, metric) present in both sets."""
    for key in ("seed", "seconds"):
        if set_a[key] != set_b[key]:
            raise SystemExit(
                f"perfbench agree: the sets differ in {key} ({set_a[key]} and {set_b[key]}), "
                "so their repeats did not run the same inputs"
            )
    rows = []
    for workload, result_a in set_a["workloads"].items():
        result_b = set_b["workloads"].get(workload)
        if result_b is None:
            continue
        for metric, (better, bound) in bounds.items():
            if metric not in result_a["metrics"] or metric not in result_b["metrics"]:
                continue
            entry_a, entry_b = result_a["metrics"][metric], result_b["metrics"][metric]
            change = _relative(entry_a["value"], entry_b["value"])
            worsening = -change if better == "higher" else change
            paired = [_relative(a, b) for a, b in zip(entry_a["repeats"], entry_b["repeats"])]
            spread = max(paired) - min(paired)
            if workload not in gated:
                verdict = "ungated"
            elif abs(worsening) <= bound:
                verdict = "same"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "worse" if worsening > 0 else "better"
            rows.append(
                {
                    "workload": workload, "metric": metric,
                    "a": entry_a["value"], "b": entry_b["value"], "unit": entry_a["unit"],
                    "change": change, "spread": spread, "bound": bound, "verdict": verdict,
                }
            )
    return rows


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        set_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        set_b = json.load(handle)
    rows = compare(set_a, set_b, *load_declared())
    print(f"{'workload':12s} {'metric':15s} {'A':>12s} {'B':>12s} {'unit':6s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for row in rows:
        print(
            f"{row['workload']:12s} {row['metric']:15s} {row['a']:12.6g} {row['b']:12.6g} "
            f"{row['unit']:6s} {row['change']:+8.2%} {row['spread']:7.2%} {row['bound']:6.0%}  "
            f"{row['verdict']}"
        )
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"{len(rows)} rows, {len(worse)} worse")
    return 1 if worse else 0
