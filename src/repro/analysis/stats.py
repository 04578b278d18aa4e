"""Small reporting helpers shared by the benchmark harnesses."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.parallel.cost_model import ordered_sum

__all__ = ["format_table", "geometric_mean", "speedup", "ascii_series"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width text table (the benchmarks print paper-style rows)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; 0.0 for empty input, requires positives."""
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    # left to right on every Python version, like the recorded sums
    return math.exp(ordered_sum(math.log(v) for v in vals) / len(vals))


def speedup(baseline: float, candidate: float) -> float:
    """``baseline / candidate`` guarded against a zero denominator."""
    if candidate <= 0:
        return float("inf")
    return baseline / candidate


_SPARK_LEVELS = " .:-=+*#%@"


def ascii_series(values: Sequence[float], width: int = 1) -> str:
    """Tiny text sparkline of a numeric series (max normalized).

    The benchmark harnesses append these to the figure tables so a
    results file shows the curve shape at a glance.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    top = max(vals)
    if top <= 0:
        return _SPARK_LEVELS[0] * len(vals) * width
    out = []
    for v in vals:
        idx = int(round((len(_SPARK_LEVELS) - 1) * max(v, 0.0) / top))
        out.append(_SPARK_LEVELS[idx] * width)
    return "".join(out)
