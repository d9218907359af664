"""Plain-text rendering of experiment tables and figure series.

The benchmark harness prints the same rows/series the paper reports; these
helpers format them as aligned monospace tables so ``pytest benchmarks/ -s``
output is directly readable and can be pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Number = Union[int, float]
Cell = Union[str, Number]


def _format_cell(value: Cell, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000 or (abs(value) < 0.001):
            return f"{value:.3g}"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str = "",
    precision: int = 4,
) -> str:
    """Render an aligned text table with optional title."""
    formatted_rows: List[List[str]] = [
        [_format_cell(cell, precision) for cell in row] for row in rows
    ]
    columns = len(headers)
    widths = [len(str(header)) for header in headers]
    for row in formatted_rows:
        for index in range(min(columns, len(row))):
            widths[index] = max(widths[index], len(row[index]))

    def format_line(cells: Sequence[str]) -> str:
        padded = [
            str(cells[index]).ljust(widths[index]) if index < len(cells) else " " * widths[index]
            for index in range(columns)
        ]
        return "| " + " | ".join(padded) + " |"

    separator = "+-" + "-+-".join("-" * width for width in widths) + "-+"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(separator)
    lines.append(format_line(list(headers)))
    lines.append(separator)
    for row in formatted_rows:
        lines.append(format_line(row))
    lines.append(separator)
    return "\n".join(lines)


def render_series(
    x_label: str,
    x_values: Sequence[Number],
    series: Mapping[str, Sequence[Number]],
    title: str = "",
    precision: int = 4,
) -> str:
    """Render one figure panel: x values as columns, one row per series."""
    headers = [x_label] + [_format_cell(x, precision) for x in x_values]
    rows = []
    for name in sorted(series):
        rows.append([name] + [value for value in series[name]])
    return render_table(headers, rows, title=title, precision=precision)


def render_figure(
    figure_title: str,
    x_label: str,
    x_values: Sequence[Number],
    panels: Mapping[str, Mapping[str, Sequence[Number]]],
    precision: int = 4,
    panel_axes: Optional[Mapping[str, Tuple[str, Sequence[Number]]]] = None,
) -> str:
    """Render a multi-panel figure (one panel per dataset, as in the paper);
    a panel named in ``panel_axes`` uses its own ``(x_label, x_values)``."""
    blocks = [figure_title]
    for panel_name in sorted(panels):
        label, values = (panel_axes or {}).get(panel_name, (x_label, x_values))
        blocks.append(
            render_series(
                label,
                values,
                panels[panel_name],
                title=f"[{panel_name}]",
                precision=precision,
            )
        )
    return "\n\n".join(blocks)
