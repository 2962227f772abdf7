"""Plain-text rendering of experiment results.

The benchmark harnesses regenerate the paper's tables and figures as aligned
text tables (rows/series with the same structure as the paper's plots), so the
shape of each result can be compared at a glance and recorded under
``benchmarks/results/``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    string_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    num_columns = len(headers)
    for row in string_rows:
        if len(row) != num_columns:
            raise ValueError(
                f"row has {len(row)} cells but there are {num_columns} headers"
            )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in string_rows)) if string_rows else len(headers[i])
        for i in range(num_columns)
    ]
    def render(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    separator = "-+-".join("-" * width for width in widths)
    lines = [render(headers), separator]
    lines.extend(render(row) for row in string_rows)
    return "\n".join(lines)
