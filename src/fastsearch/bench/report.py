"""Delimited report emission for benchmark results.

A report's columns are the fields of its row type, in declaration order:
:class:`~.harness.ThroughputRow` for throughput reports and
:class:`~.harness.SetupStatsRow` for setup-stats reports.  Strings and
ints print as they are; a float prints with the digits named in its
field's metadata.

Rows are emitted in deterministic order: throughput by (algorithm, size,
precision, lane width), setup stats by size.
"""

from __future__ import annotations

import csv
import io
from dataclasses import fields

from .harness import SetupStatsRow, ThroughputRow

#: kind -> (row type, sort key)
_KINDS = {
    "throughput": (ThroughputRow, lambda r: (r.algorithm, r.size, r.precision, r.lane_width)),
    "setup": (SetupStatsRow, lambda r: r.size),
}


def _cell(row, f) -> str:
    value = getattr(row, f.name)
    digits = f.metadata.get("digits")
    return str(value) if digits is None else f"{value:.{digits}f}"


def emit_report(rows, fmt: str = "csv", kind: str | None = None) -> str:
    """Render rows as ``csv`` or ``md`` text; an empty set yields headers only.

    ``kind`` is ``"throughput"`` or ``"setup"``; when omitted it follows
    the first row, and an empty set is a throughput report.
    """
    rows = list(rows)
    if kind is None:
        kind = "setup" if rows and not hasattr(rows[0], "algorithm") else "throughput"
    if kind not in _KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    row_type, key = _KINDS[kind]
    columns = fields(row_type)
    header = [f.name for f in columns]
    body = [[_cell(r, f) for f in columns] for r in sorted(rows, key=key)]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body)
        return buf.getvalue()
    if fmt == "md":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        for cells in body:
            lines.append("| " + " | ".join(c.replace("|", r"\|") for c in cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; use csv or md")
