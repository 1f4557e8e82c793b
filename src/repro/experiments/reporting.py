"""ASCII reporting for experiment results.

Every experiment renders its output in the same visual vocabulary as
the paper's artifact — a table for Table II, distribution summaries for
the box plots (Figures 2–3), grouped bars for Figure 1, and level/rate
time-series for Figures 4–6 — so a terminal diff against the paper's
numbers is one glance.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width table with a header rule."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@dataclass(frozen=True)
class Distribution:
    """Five-number summary of a sample (the box-plot numbers)."""

    n: int
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    mean: float
    stdev: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "Distribution":
        if not samples:
            raise ValueError("need at least one sample")
        ordered = sorted(samples)
        if len(ordered) >= 2:
            quartiles = statistics.quantiles(ordered, n=4)
            stdev = statistics.stdev(ordered)
        else:
            quartiles = [ordered[0]] * 3
            stdev = 0.0
        return cls(
            n=len(ordered),
            minimum=ordered[0],
            p25=quartiles[0],
            median=quartiles[1],
            p75=quartiles[2],
            maximum=ordered[-1],
            mean=statistics.fmean(ordered),
            stdev=stdev,
        )

    def row(self, scale: float = 1.0) -> List[str]:
        return [
            f"{self.median / scale:.1f}",
            f"{self.p25 / scale:.1f}",
            f"{self.p75 / scale:.1f}",
            f"{self.minimum / scale:.1f}",
            f"{self.maximum / scale:.1f}",
            f"{self.stdev / scale:.1f}",
        ]


DIST_HEADERS = ["median", "p25", "p75", "min", "max", "stdev"]


def format_grouped_bars(
    groups: Dict[str, Dict[str, float]],
    unit: str = "%",
    width: int = 40,
    title: str = "",
) -> str:
    """Horizontal ASCII bars, one per (group, series) pair."""
    peak = max((v for series in groups.values() for v in series.values()), default=1.0)
    peak = max(peak, 1e-9)
    lines = [title] if title else []
    for group, series in groups.items():
        lines.append(group)
        for name, value in series.items():
            bar = "#" * max(0, round(width * value / peak))
            lines.append(f"  {name:<6s} {value:7.1f}{unit} |{bar}")
    return "\n".join(lines)


def format_timeseries(
    times: Sequence[float],
    values: Sequence[float],
    label: str,
    n_buckets: int = 60,
    height: float | None = None,
) -> str:
    """Coarse sparkline: bucket means rendered as a bar per bucket."""
    if len(times) != len(values) or not times:
        raise ValueError("times and values must be equal-length, non-empty")
    t_max = max(times)
    buckets: List[List[float]] = [[] for _ in range(n_buckets)]
    for t, v in zip(times, values):
        idx = min(n_buckets - 1, int(n_buckets * t / t_max) if t_max > 0 else 0)
        buckets[idx].append(v)
    peak = height if height is not None else max(values)
    peak = max(peak, 1e-9)
    glyphs = " .:-=+*#%@"
    cells = []
    for bucket in buckets:
        if not bucket:
            cells.append(" ")
            continue
        level = statistics.fmean(bucket) / peak
        cells.append(glyphs[min(len(glyphs) - 1, int(level * (len(glyphs) - 1) + 0.5))])
    return f"{label:<12s} |{''.join(cells)}| peak={peak:.3g}"


def check(condition: bool, description: str, failures: Optional[List[str]] = None) -> str:
    """Render a shape assertion as an OK/FAIL line (and collect failures)."""
    status = "OK  " if condition else "FAIL"
    if not condition and failures is not None:
        failures.append(description)
    return f"[{status}] {description}"
