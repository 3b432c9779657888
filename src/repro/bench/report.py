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


def format_histogram(
    values: Sequence[float],
    bins: int = 10,
    title: str = "",
    width: int = 40,
) -> str:
    """ASCII histogram of a value distribution (activation counts, gaps…)."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not values:
        return f"{title}\n(no values)" if title else "(no values)"
    lo = min(values)
    hi = max(values)
    span = (hi - lo) or 1.0
    counts = [0] * bins
    for value in values:
        idx = min(bins - 1, int((value - lo) / span * bins))
        counts[idx] += 1
    peak = max(counts)
    lines: List[str] = [title] if title else []
    for i, count in enumerate(counts):
        left = lo + span * i / bins
        right = lo + span * (i + 1) / bins
        bar = "#" * (round(width * count / peak) if peak else 0)
        lines.append(f"{left:10.2f}..{right:10.2f} | {bar} {count}")
    return "\n".join(lines)
