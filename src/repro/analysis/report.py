"""Terminal rendering: ASCII tables and bar/series plots.

The benchmark harness prints the same rows and series the paper's
figures report; these helpers keep that output readable without any
plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = ["ascii_table", "ascii_bars", "ascii_series"]


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as a fixed-width table."""
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def ascii_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    unit: str = "",
    title: Optional[str] = None,
) -> str:
    """Render one bar per label, scaled to the maximum value."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    peak = max(values) if values else 1.0
    peak = peak if peak > 0 else 1.0
    label_w = max((len(label) for label in labels), default=0)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(1, int(round(value / peak * width))) if value > 0 else ""
        lines.append(f"{label.ljust(label_w)} |{bar.ljust(width)}| {value:.2f}{unit}")
    return "\n".join(lines)


def ascii_series(
    points: Sequence[Tuple[float, float]],
    x_label: str = "x",
    y_label: str = "y",
    width: int = 50,
    title: Optional[str] = None,
) -> str:
    """Render (x, y) samples as one scaled row per sample."""
    lines = [title] if title else []
    peak = max((y for _, y in points), default=1.0)
    peak = peak if peak > 0 else 1.0
    lines.append(f"{x_label:>12}  {y_label}")
    for x, y in points:
        bar = "*" * max(1, int(round(y / peak * width))) if y > 0 else ""
        lines.append(f"{x:12.2f}  {bar} {y:.2f}")
    return "\n".join(lines)
