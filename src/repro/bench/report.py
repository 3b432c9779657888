"""Plain-text table rendering for benchmark output.

Every experiment harness prints its result as one of these tables, so the
rows the paper's tables/figures would carry are regenerated as text the
reader can diff across runs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Render dict-rows as a fixed-width table.

    Column order follows the first row's key order; missing cells render
    empty.  Values are stringified with ``str``.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: List[str] = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [[str(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells))
        for i, col in enumerate(columns)
    ]
    parts: List[str] = []
    if title:
        parts.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    parts.append(header)
    parts.append("  ".join("-" * w for w in widths))
    for line in cells:
        parts.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(parts)


def print_table(rows: Sequence[Dict[str, object]], title: str = "") -> None:
    print()
    print(format_table(rows, title=title))

