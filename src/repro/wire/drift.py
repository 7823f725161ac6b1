"""Renderer for ``results/wire_drift.txt``: declared vs. encoded frame sizes.

Epoch 1 shipped ``Message.size_bytes()`` as a byte *model* while the codecs
produced the *measured* frame size, and this report tracked the gap.  Today
both are generated from one ``@wire_schema`` declaration per kind
(:mod:`repro.core.wireschema`), so every row is zero drift by construction;
the golden stays as the pin on the per-kind frame sizes of the canonical
samples, and any row beyond :data:`DRIFT_THRESHOLD` — or any nonzero drift,
per the tests — means the generator itself broke.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

#: Relative drift above which an estimate counts as wrong (satellite rule:
#: "measured and size_bytes() disagree by >25%").
DRIFT_THRESHOLD = 0.25


def drift_rows(
    estimated: Mapping[str, int], measured: Mapping[str, int]
) -> List[Dict[str, object]]:
    """Per-kind drift table from declared/encoded byte counts.

    ``estimated`` and ``measured`` map kind name to bytes (over the same
    messages).  Rows are sorted by descending relative drift.
    """
    rows: List[Dict[str, object]] = []
    for kind in sorted(set(estimated) | set(measured)):
        estimate = int(estimated.get(kind, 0))
        measure = int(measured.get(kind, 0))
        drift = abs(measure - estimate) / estimate if estimate else float(measure > 0)
        rows.append(
            {
                "kind": kind,
                "estimate_bytes": estimate,
                "measured_bytes": measure,
                "drift_pct": round(100.0 * drift, 1),
                "drifted": drift > DRIFT_THRESHOLD,
                # Kept for golden-format stability: always equal to
                # ``measured_bytes``.
                "corrected_estimate": measure,
            }
        )
    rows.sort(key=lambda row: (-float(row["drift_pct"]), str(row["kind"])))
    return rows


def drifted_kinds(rows: List[Dict[str, object]]) -> List[str]:
    """Kind names whose estimate drifts beyond the threshold."""
    return [str(row["kind"]) for row in rows if row["drifted"]]
