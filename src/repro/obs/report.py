"""Console output: the library's one print sink and plain-text tables.

The benchmarks print the rows/series the paper reports; a tiny dependency-free
table renderer keeps that output readable both on the terminal and inside
EXPERIMENTS.md code blocks.  It lives in the foundation layer so every layer
above -- the telemetry summary included -- renders through it.
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float, None]


def write_out(text: str = "") -> None:
    """The library's single sanctioned console sink.

    ``src/repro`` is lint-gated against stray ``print`` calls (ruff
    ``T201``); report-style output -- experiment tables, runner status
    lines, validator verdicts -- flows through here instead so there is
    exactly one place to redirect or silence it.
    """
    sys.stdout.write(text + "\n")


class TextTable:
    """A simple left-aligned text table with a header row."""

    def __init__(self, headers: Sequence[str], float_format: str = "{:.3g}") -> None:
        if not headers:
            raise ValueError("a table needs at least one column")
        self.headers = [str(h) for h in headers]
        self.float_format = float_format
        self._rows: List[List[str]] = []

    def _format(self, cell: Cell) -> str:
        if cell is None:
            return "-"
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return self.float_format.format(cell)
        return str(cell)

    def add_row(self, cells: Iterable[Cell]) -> None:
        """Append one row (must match the header width)."""
        row = [self._format(cell) for cell in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self._rows.append(row)

    def add_rows(self, rows: Iterable[Iterable[Cell]]) -> None:
        """Append several rows."""
        for row in rows:
            self.add_row(row)

    @property
    def n_rows(self) -> int:
        """Number of data rows."""
        return len(self._rows)

    def render(self) -> str:
        """Render the table as a multi-line string."""
        widths = [len(header) for header in self.headers]
        for row in self._rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

        out = [line(self.headers), line(["-" * width for width in widths])]
        out.extend(line(row) for row in self._rows)
        return "\n".join(out)

    def __str__(self) -> str:
        return self.render()
