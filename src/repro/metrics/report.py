"""Plain-text table rendering.

The benchmark harness prints the rows of the paper's tables and figures with
:func:`format_table`, so they can be eyeballed directly from the bench output
and diffed in ``results/*.txt``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


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
