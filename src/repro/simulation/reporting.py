"""Plain-text and markdown tables for experiment output."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.simulation.metrics import LatencySummary


def _render(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str | None = None
) -> str:
    """Render an aligned ascii table."""
    rendered = [[_render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells for {len(headers)} headers"
            )
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def latency_rows(
    summary: LatencySummary, label: str = "latency"
) -> list[list]:
    """``[metric, value]`` rows for a latency summary.

    Shared by ``python -m repro run`` (single-client tails over a network
    backend) and the serving report so both render percentiles the same
    way.
    """
    return [
        [f"{label} p50 ms", f"{summary.p50_ms:.2f}"],
        [f"{label} p95 ms", f"{summary.p95_ms:.2f}"],
        [f"{label} p99 ms", f"{summary.p99_ms:.2f}"],
        [f"{label} p99.9 ms", f"{summary.p999_ms:.2f}"],
        [f"{label} mean ms", f"{summary.mean_ms:.2f}"],
        [f"{label} max ms", f"{summary.max_ms:.2f}"],
    ]


def latency_rows_from(summary: dict, label: str = "latency") -> list[list]:
    """Dict-keyed twin of :func:`latency_rows`.

    The report classes render their text tables from their ``to_dict()``
    views (the single source of truth for ``--json`` parity), so their
    latency sections start from the exported mapping rather than the
    live :class:`LatencySummary`.
    """
    return [
        [f"{label} p50 ms", f"{summary['p50']:.2f}"],
        [f"{label} p95 ms", f"{summary['p95']:.2f}"],
        [f"{label} p99 ms", f"{summary['p99']:.2f}"],
        [f"{label} p99.9 ms", f"{summary['p999']:.2f}"],
        [f"{label} mean ms", f"{summary['mean']:.2f}"],
        [f"{label} max ms", f"{summary['max']:.2f}"],
    ]


@dataclass
class ExperimentTable:
    """A named experiment result: headers, rows, and provenance notes.

    The drivers of :mod:`repro.simulation.experiments` build these;
    ``python -m repro experiments`` prints them as text or markdown.
    """

    experiment: str
    claim: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        """Append one result row."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"{len(cells)} cells for {len(self.headers)} headers"
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        """Append a free-form provenance note."""
        self.notes.append(note)

    def to_text(self) -> str:
        """Render as an aligned ascii table with the claim as title."""
        body = format_table(
            self.headers, self.rows, title=f"{self.experiment}: {self.claim}"
        )
        if self.notes:
            body += "\n" + "\n".join(f"  note: {note}" for note in self.notes)
        return body

    def to_markdown(self) -> str:
        """Render as a markdown section."""
        lines = [f"### {self.experiment} — {self.claim}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_render(cell) for cell in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)
