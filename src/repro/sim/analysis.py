"""Summary statistics over simulated transfer traces.

Time-weighted level occupancy and application-rate statistics over the
epochs of a :class:`~repro.sim.transfer.TransferResult`, as
``examples/trace_replay.py`` prints them.  Each epoch weighs by its
duration, not as one count.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .transfer import TransferResult


def level_occupancy(result: TransferResult) -> Dict[int, float]:
    """Fraction of *time* spent at each level (not epoch counts)."""
    durations = [e.end - e.start for e in result.epochs]
    total = sum(durations)
    if total <= 0:
        return {}
    per_level: Dict[int, float] = {}
    for epoch, duration in zip(result.epochs, durations):
        per_level[epoch.level] = per_level.get(epoch.level, 0.0) + duration
    return {level: per_level[level] / total for level in sorted(per_level)}


def rate_statistics(result: TransferResult) -> Dict[str, float]:
    """Duration-weighted application-rate statistics over a trace.

    ``mean`` and ``std`` weigh each epoch by its duration; ``p50`` and
    ``p95`` are percentiles of the per-epoch rates.
    """
    durations = [e.end - e.start for e in result.epochs]
    rates = [float(e.app_rate) for e in result.epochs]
    total = sum(durations)
    if total <= 0:
        raise ValueError("trace has no duration")
    weights = [d / total for d in durations]
    mean = sum(w * r for w, r in zip(weights, rates))
    var = sum(w * (r - mean) ** 2 for w, r in zip(weights, rates))
    ordered = sorted(rates)
    return {
        "mean": mean,
        "std": math.sqrt(var),
        "min": ordered[0],
        "max": ordered[-1],
        "p50": _percentile(ordered, 50),
        "p95": _percentile(ordered, 95),
    }


def _percentile(ordered: List[float], q: float) -> float:
    """The ``q``-th percentile of sorted values, interpolated linearly
    between the two nearest ranks (Hyndman and Fan's type 7)."""
    pos = (len(ordered) - 1) * (q / 100)
    lo = math.floor(pos)
    if lo >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[lo], ordered[lo + 1]
    return a + (b - a) * (pos - lo)
