"""Formatting of benchmark series in the style of the paper's figures."""

from __future__ import annotations

import json
from typing import Iterable


def wall_speedups(rows: Iterable, baseline: str = "sequential") -> dict[str, float]:
    """Real wall-clock speedup per backend, relative to *baseline*.

    *rows* need ``backend`` and ``wall_time`` attributes (or keys).  Returns
    ``{backend: baseline_wall / backend_wall}`` — the measured counterpart of
    the simulated ``RunTimings.speedup``; backends whose wall time is zero
    (degenerate tiny runs) are omitted.  An absent baseline yields ``{}``.
    """

    def _get(row, attribute):
        if hasattr(row, attribute):
            return getattr(row, attribute)
        return row[attribute]

    by_backend = {_get(row, "backend"): float(_get(row, "wall_time")) for row in rows}
    baseline_wall = by_backend.get(baseline)
    if not baseline_wall:
        return {}
    return {
        backend: baseline_wall / wall
        for backend, wall in by_backend.items()
        if wall > 0
    }


def rows_as_json(name: str, title: str, rows: Iterable) -> str:
    """Serialise a measured series as machine-readable JSON.

    The shape (``{"name", "title", "rows": [...]}``) is what the CI smoke
    job and the ``BENCH_*.json`` perf-trajectory files consume.
    """
    dictionaries = [row.as_dict() if hasattr(row, "as_dict") else dict(row) for row in rows]
    return json.dumps(
        {"name": name, "title": title, "rows": dictionaries},
        indent=2,
        sort_keys=True,
        default=str,
    )


def format_rows(rows: Iterable) -> str:
    """Render a list of rows (or dicts) as an aligned text table; a column
    only some rows report is blank on the others."""
    dictionaries = [row.as_dict() if hasattr(row, "as_dict") else dict(row) for row in rows]
    if not dictionaries:
        return "(no rows)"
    columns = list(dict.fromkeys(column for entry in dictionaries for column in entry))
    widths = {
        column: max(len(str(column)), *(len(str(d.get(column, ""))) for d in dictionaries))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for entry in dictionaries:
        lines.append(
            "  ".join(str(entry.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def print_series(title: str, rows: Iterable) -> None:
    """Print a titled series table (what the benchmark logs show)."""
    print(f"\n== {title} ==")
    print(format_rows(rows))
