"""Reporting helpers shared by the ``bench_*.py`` scripts beside this file.

Each benchmark regenerates one of the paper's tables or figures and
prints it in the same layout, with the paper's reported values alongside
for comparison.  Output also goes to ``benchmarks/results/<name>.txt``
so EXPERIMENTS.md can reference a stable artifact.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """A fixed-width text table."""
    str_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_series(
    name: str, points: Sequence[tuple], x_label: str = "x", y_label: str = "y"
) -> str:
    """One plotted line as text: ``name: (x1, y1) (x2, y2) ...``."""
    body = " ".join(f"({_cell(x)}, {_cell(y)})" for x, y in points)
    return f"{name} [{x_label} -> {y_label}]: {body}"


def results_dir() -> str:
    """benchmarks/results/ next to the benchmark files."""
    directory = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(directory, exist_ok=True)
    return directory


def write_result(name: str, text: str, echo: bool = True) -> str:
    """Persist (and echo) one benchmark's report."""
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    if echo:
        print()
        print(text)
    return path


def bench_scale() -> float:
    """Workload scale multiplier from $REPRO_BENCH_SCALE (default 1.0).

    The paper ran on a 32-core/64 GB Greenplum cluster with KBs up to
    10M facts; defaults here are laptop-sized.  Export
    ``REPRO_BENCH_SCALE=5`` (etc.) to stretch every sweep.
    """
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1"))
    except ValueError:
        return 1.0


def scaled(value: int, minimum: int = 1) -> int:
    return max(minimum, int(value * bench_scale()))
