"""ASCII tables for experiment output.

Every experiment renders its result through one of these so that the
examples, benchmark harness, and EXPERIMENTS.md all show the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Table", "format_cell"]


def format_cell(value: object) -> str:
    """Render one cell: floats get 4 significant digits, rest ``str()``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


@dataclass
class Table:
    """A titled grid of experiment results.

    Attributes
    ----------
    title
        Experiment heading (includes the experiment id, e.g. ``"E3: …"``).
    columns
        Column headers.
    rows
        Data rows (any cell type; rendered via :func:`format_cell`).
    notes
        Free-form footnotes (paper claim, interpretation).
    """

    title: str
    columns: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(cells)

    def column(self, name: str) -> list[object]:
        """Extract one column by header name."""
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """Render the table as aligned ASCII text."""
        header = [str(c) for c in self.columns]
        body = [[format_cell(c) for c in row] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append(sep)
        for r in body:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
        for note in self.notes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
